"""Trial loop: termination, reproducibility, and result contracts."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amoebatsp.dynamics import DELTA_IN, initial_level
from amoebatsp.harness import PRESETS, preset
from amoebatsp.instance import ParamSet, decode_solution, generate_map, route_length
from amoebatsp.solver import TrialResult, run_trial
from oracles import brute_force_optimum


@pytest.fixture(scope="module")
def small():
    inst = generate_map(10, seed=41)
    return inst, ParamSet.for_instance(inst)


class TestRunTrial:
    def test_reproducible(self, small):
        inst, p = small
        a = run_trial(inst, p, preset("improved"), seed=7)
        b = run_trial(inst, p, preset("improved"), seed=7)
        assert a.success == b.success
        assert a.iterations == b.iterations
        assert a.tour == b.tour
        assert a.ratio == b.ratio
        assert np.array_equal(a.final_x, b.final_x)
        # equal outcomes, yet distinct results: == is identity and never raises
        assert (a == b) is False and a == a

    def test_success_invariants(self, small):
        inst, p = small
        r = run_trial(inst, p, preset("improved"), seed=3)
        assert r.success
        assert sorted(r.tour) == list(range(10))
        assert r.r_calc == pytest.approx(route_length(r.tour, inst))
        assert r.ratio == r.r_calc / 1000.0
        assert decode_solution(r.final_x).tour == r.tour
        assert r.iterations <= 3000

    def test_failure_leaves_outcome_fields_absent(self, small):
        inst, p = small
        r = run_trial(inst, p, preset("a1"), seed=5, max_iters=300)
        assert not r.success
        assert r.iterations == 300
        assert r.tour is None and r.r_calc is None and r.ratio is None

    # improved and c1, the presets that solve within 300 iterations, are
    # drawn more often than the rest, so that both branches are reached
    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(["c1", "improved"]) | st.sampled_from(sorted(PRESETS)),
           n=st.integers(3, 10), map_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**32 - 1), max_iters=st.integers(1, 300))
    def test_result_invariants(self, name, n, map_seed, seed, max_iters):
        # every trial passes the output checks the benchmark runs on each trial
        inst = generate_map(n, map_seed)
        r = run_trial(inst, ParamSet.for_instance(inst), preset(name), seed=seed,
                      max_iters=max_iters)
        if r.success:
            assert sorted(r.tour) == list(range(n))
            assert decode_solution(r.final_x).tour == r.tour
            assert r.r_calc == route_length(r.tour, inst)
            assert r.ratio == r.r_calc / (100.0 * n)
            assert r.iterations <= max_iters
        else:
            assert r.tour is None and r.r_calc is None and r.ratio is None
            assert r.iterations == max_iters
            assert decode_solution(r.final_x).tour is None

    def test_success_and_ratio_are_derived(self):
        solved, unsolved = TrialResult(5, (0, 2, 1), 330.0), TrialResult(5)
        assert solved.success and solved.ratio == 330.0 / 300.0
        assert not unsolved.success and unsolved.ratio is None
        for name in ("success", "ratio"):
            with pytest.raises(TypeError):
                TrialResult(iterations=5, **{name: None})
            with pytest.raises(AttributeError):
                setattr(solved, name, None)

    def test_budget_prefix_stability(self, small):
        inst, p = small
        r = run_trial(inst, p, preset("improved"), seed=11)
        assert r.success
        again = run_trial(inst, p, preset("improved"), seed=11,
                          max_iters=r.iterations + 500)
        assert again.iterations == r.iterations
        assert again.tour == r.tour

    def test_uncalibrated_nu_refused(self, small):
        inst, _ = small
        bad = ParamSet(nu=1.0)  # way past the calibration bound
        with pytest.raises(ValueError, match="not calibrated"):
            run_trial(inst, bad, preset("original"), seed=0)

    def test_bad_budget_refused(self, small):
        inst, p = small
        with pytest.raises(ValueError, match="max_iters"):
            run_trial(inst, p, preset("original"), seed=0, max_iters=0)

    def test_default_start_follows_size_rule(self, small):
        # one noiseless step from an all-dark start adds DELTA_IN / n^2
        inst, p = small
        r = run_trial(inst, p, preset("a1"), seed=0, max_iters=1)
        assert np.allclose(r.final_x, initial_level(10) + DELTA_IN / 100, atol=1e-15)
        r = run_trial(inst, p, replace(preset("a1"), init_level=0.3), seed=0, max_iters=1)
        assert np.allclose(r.final_x, 0.3 + DELTA_IN / 100, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(PRESETS)), n=st.integers(3, 10),
           map_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    def test_explicit_size_rule_start_is_the_default(self, name, n, map_seed, seed):
        # init_level None and the size rule's own level start the same trial
        inst = generate_map(n, map_seed)
        p = ParamSet.for_instance(inst)
        default = run_trial(inst, p, preset(name), seed=seed, max_iters=150)
        explicit = run_trial(inst, p, replace(preset(name), init_level=initial_level(n)),
                             seed=seed, max_iters=150)
        assert (explicit.iterations, explicit.tour) == (default.iterations, default.tour)
        assert explicit.final_x.tobytes() == default.final_x.tobytes()

    def test_trace_row_per_iteration(self, small):
        inst, p = small
        rows = []
        r = run_trial(inst, p, preset("improved"), seed=2, trace=rows)
        assert len(rows) == r.iterations
        assert [d.t for d in rows] == list(range(1, r.iterations + 1))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(PRESETS)), n=st.integers(3, 12),
           map_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    def test_trace_leaves_the_trial_unchanged(self, name, n, map_seed, seed):
        # recording diagnostics reads the state and draws no random numbers
        inst = generate_map(n, map_seed)
        p = ParamSet.for_instance(inst)
        plain = run_trial(inst, p, preset(name), seed=seed, max_iters=150)
        rows = []
        traced = run_trial(inst, p, preset(name), seed=seed, max_iters=150, trace=rows)
        assert (traced.success, traced.iterations, traced.tour) == \
            (plain.success, plain.iterations, plain.tour)
        assert traced.final_x.tobytes() == plain.final_x.tobytes()
        assert len(rows) == traced.iterations
        assert rows[-1].sum_x == float(traced.final_x.sum())

    def test_trace_off_by_default(self, small, monkeypatch):
        # an untraced trial builds no per-step record
        def no_row(*args):
            raise AssertionError("an untraced step built a StepDiagnostics row")

        monkeypatch.setattr("amoebatsp.dynamics.StepDiagnostics", no_row)
        inst, p = small
        assert run_trial(inst, p, preset("improved"), seed=2).success

    def test_different_seeds_explore_differently(self, small):
        inst, p = small
        a = run_trial(inst, p, preset("improved"), seed=100)
        b = run_trial(inst, p, preset("improved"), seed=101)
        assert a.iterations != b.iterations or a.tour != b.tour

    def test_never_beats_brute_force(self):
        inst = generate_map(8, seed=55)
        p = ParamSet.for_instance(inst)
        _, optimum = brute_force_optimum(inst)
        for seed in range(3):
            r = run_trial(inst, p, preset("improved"), seed=seed)
            if r.success:
                assert r.r_calc >= optimum - 1e-9
