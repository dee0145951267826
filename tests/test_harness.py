"""Batches, sweeps, presets, aggregation rules, and the scaling fit."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amoebatsp.dynamics import ElementA, ElementB, ElementC, VariantConfig
from amoebatsp.harness import (
    PRESETS,
    REFERENCE_IMPROVED_SWEEP,
    AggregateStats,
    aggregate,
    fit_scaling,
    preset,
    read_results_csv,
    run_batch,
    trial_seeds,
    write_fit_json,
    write_plot_data,
    write_results_csv,
)
from amoebatsp.instance import ParamSet, generate_map
from amoebatsp.solver import TrialResult, run_trial

# reference sweep column (n, mean iterations) used as a fixture for the fit
SWEEP_COLUMN = [(n, iters) for n, (_, iters, _) in REFERENCE_IMPROVED_SWEEP.items()]


def stats_from_points(points):
    return [AggregateStats(variant="improved", n=n, trials=1000, success_rate=1.0,
                           avg_iterations=it, std_iterations=1.0,
                           avg_ratio=0.9, std_ratio=0.01) for n, it in points]


class TestPresets:
    def test_original_composition(self):
        cfg = preset("original")
        assert cfg.element_a is ElementA.UNIFORM
        assert cfg.element_b is ElementB.ORIGINAL
        assert cfg.element_c == frozenset()

    def test_improved_composition(self):
        cfg = preset("improved")
        assert cfg.element_a is ElementA.NORMAL
        assert cfg.element_b is ElementB.DENOM_N
        assert cfg.element_c == frozenset({ElementC.O_CONST})

    def test_c3_composition(self):
        cfg = preset("c3")
        assert cfg.element_a is ElementA.UNIFORM
        assert cfg.element_b is ElementB.ORIGINAL
        assert cfg.element_c == frozenset({ElementC.L_INNER_STEP})

    def test_b_scaling_factors(self):
        assert preset("b1").i_scale == 0.9
        assert preset("b2").i_scale == 1.1
        assert preset("b1").element_b is ElementB.SCALE_I

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            preset("b9")

    def test_configurations_pairwise_distinct(self):
        # a batch's label is the preset whose configuration equals its own
        assert len(set(PRESETS.values())) == len(PRESETS)


class TestRunBatch:
    def test_deterministic(self):
        kwargs = dict(global_seed=5)
        a = run_batch(10, 8, preset("improved"), **kwargs)
        b = run_batch(10, 8, preset("improved"), **kwargs)
        assert a == b

    @settings(max_examples=8, deadline=None)
    @given(name=st.sampled_from(sorted(PRESETS)), n=st.integers(3, 8), trials=st.integers(1, 6),
           workers=st.integers(2, 3), global_seed=st.integers(0, 2**32 - 1),
           max_iters=st.integers(1, 150))
    def test_worker_count_independence(self, name, n, trials, workers, global_seed, max_iters):
        # the seed contract: a trial depends on (global_seed, trial index)
        # alone, and trial order rests on Pool.map keeping input order
        kwargs = dict(global_seed=global_seed, max_iters=max_iters, keep_trials=True)
        a = run_batch(n, trials, PRESETS[name], workers=1, **kwargs)
        b = run_batch(n, trials, PRESETS[name], workers=workers, **kwargs)
        assert ([(r.iterations, r.tour, r.final_x.tobytes()) for r in a.per_trial]
                == [(r.iterations, r.tour, r.final_x.tobytes()) for r in b.per_trial])
        assert a == b

    @staticmethod
    def record_pools(monkeypatch, cpus):
        """Pin os.cpu_count to cpus and return the list of Pool sizes opened."""
        import amoebatsp.harness as harness

        sizes = []
        real_pool = harness.Pool

        def recording_pool(processes):
            sizes.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(harness, "Pool", recording_pool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        return sizes

    @pytest.mark.parametrize("cpus, trials, workers, pool", [(4, 2, 4, 2), (2, 8, 64, 2)],
                             ids=["batch", "cpu-count"])
    def test_pool_capped_by_the_batch_and_the_cpus(self, monkeypatch, cpus, trials, workers,
                                                   pool):
        sizes = self.record_pools(monkeypatch, cpus=cpus)
        a = run_batch(6, trials, preset("improved"), global_seed=3, workers=workers,
                      keep_trials=True)
        b = run_batch(6, trials, preset("improved"), global_seed=3, workers=1, keep_trials=True)
        assert sizes == [pool]
        assert ([(r.iterations, r.tour, r.final_x.tobytes()) for r in a.per_trial]
                == [(r.iterations, r.tour, r.final_x.tobytes()) for r in b.per_trial])

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 2}, "need at least 3 cities, got n=2"),
        ({"trials": 0}, "trials must be at least 1"),
        ({"workers": -1}, "workers must be at least 1"),
        ({"max_iters": 0}, "max_iters must be at least 1"),
        ({"map_policy": "sometimes"}, "unknown map_policy 'sometimes'"),
        ({"map_seed": 77}, "map_seed needs map_policy 'fixed'"),
    ], ids=["n", "trials", "workers", "max_iters", "map_policy", "map_seed"])
    def test_refused_before_the_pool(self, monkeypatch, kwargs, message):
        sizes = self.record_pools(monkeypatch, cpus=2)
        with pytest.raises(ValueError) as refusal:
            run_batch(**{"n": 6, "trials": 4, "cfg": preset("improved"), "global_seed": 0,
                         "workers": 2, **kwargs})
        assert str(refusal.value) == message
        assert sizes == []

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_batch_labelled_by_its_preset(self, name):
        # the start level is not part of the name
        assert run_batch(6, 1, PRESETS[name], global_seed=0, max_iters=5).variant == name
        moved = replace(PRESETS[name], init_level=0.44)
        assert run_batch(6, 1, moved, global_seed=0, max_iters=5).variant == name

    @pytest.mark.parametrize("cfg", [
        VariantConfig(element_b=ElementB.SCALE_I),
        VariantConfig(element_a=ElementA.NORMAL, normal_sd=0.005),
        VariantConfig(element_c=frozenset({ElementC.O_CONST, ElementC.L_INNER_STEP})),
    ])
    def test_batch_of_no_preset_labelled_custom(self, cfg):
        assert run_batch(6, 1, cfg, global_seed=0, max_iters=5).variant == "custom"

    def test_trial_seed_derivation_contract(self):
        # batch trial i must equal a hand-built trial with the derived seeds
        stats = run_batch(10, 3, preset("improved"), global_seed=9, keep_trials=True)
        for i, recorded in enumerate(stats.per_trial):
            map_seed, trial_seed = trial_seeds(9, i)
            inst = generate_map(10, map_seed)
            params = ParamSet.for_instance(inst)
            redo = run_trial(inst, params, preset("improved"), seed=trial_seed)
            assert redo.iterations == recorded.iterations
            assert redo.tour == recorded.tour

    def test_fixed_map_policy_reuses_one_map(self):
        stats = run_batch(10, 3, preset("improved"), global_seed=2,
                          map_policy="fixed", map_seed=77, keep_trials=True)
        inst = generate_map(10, 77)
        params = ParamSet.for_instance(inst)
        for i, recorded in enumerate(stats.per_trial):
            redo = run_trial(inst, params, preset("improved"), seed=trial_seeds(2, i)[1])
            assert redo.iterations == recorded.iterations


class TestVariantOrdering:
    def test_iteration_ordering_at_n20(self):
        # the characteristic speed ordering of the variants: constant
        # contraction fastest, then denominator-n, then normal noise, then
        # the original, with the hard inner step slowest
        means = {}
        for name in ("c1", "b4", "a2", "original", "c3"):
            s = run_batch(20, 20, preset(name), global_seed=17, workers=2)
            assert s.avg_iterations is not None
            means[name] = s.avg_iterations
        assert means["c1"] < means["b4"] < means["a2"] < means["original"] < means["c3"]


class TestAggregate:
    def test_averages_over_successes_only(self):
        results = [
            TrialResult(100, (0, 1, 2), 270.0),
            TrialResult(3000),
            TrialResult(200, (2, 0, 1), 240.0),
        ]
        s = aggregate(results, "x", 10)
        assert s.success_rate == pytest.approx(2 / 3)
        assert s.avg_iterations == pytest.approx(150.0)
        assert s.avg_ratio == pytest.approx(0.85)
        assert s.std_iterations == pytest.approx(np.std([100, 200], ddof=1))

    def test_empty_success_set_marks_absent(self):
        results = [TrialResult(3000)] * 4
        s = aggregate(results, "a1", 20)
        assert s.success_rate == 0.0
        assert s.avg_iterations is None
        assert s.avg_ratio is None
        assert s.std_iterations is None

    def test_single_success_has_no_std(self):
        results = [TrialResult(10, (0, 1, 2), 270.0)]
        s = aggregate(results, "x", 5)
        assert s.avg_iterations == 10.0
        assert s.std_iterations is None


class TestFitScaling:
    def test_reference_column_exponent_near_half(self):
        fit = fit_scaling(stats_from_points(SWEEP_COLUMN))
        assert fit.exponent == pytest.approx(0.49, abs=0.05)
        assert fit.r_squared > 0.99

    def test_reference_endpoints_ratio(self):
        assert 622.2 / 199.5 == pytest.approx(3.12, abs=0.01)

    def test_linear_synthetic_gives_exponent_one(self):
        points = [(n, 7.0 * n) for n in (10, 20, 40, 80)]
        fit = fit_scaling(stats_from_points(points))
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(7.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_failed_sizes_excluded(self):
        stats = stats_from_points([(10, 100.0), (20, 141.0), (40, 200.0)])
        stats.append(AggregateStats(variant="improved", n=80, trials=10,
                                    success_rate=0.0, avg_iterations=None,
                                    std_iterations=None, avg_ratio=None,
                                    std_ratio=None))
        fit = fit_scaling(stats)
        assert len(fit.points) == 3

    def test_too_few_points_refused(self):
        with pytest.raises(ValueError):
            fit_scaling(stats_from_points([(10, 100.0), (20, 140.0)]))


class TestCsvAndJson:
    def test_results_roundtrip(self, tmp_path):
        # a kept batch compares and prints as its row: per_trial is neither
        # compared nor in its repr, so it equals its read-back
        kept = run_batch(6, 3, preset("improved"), global_seed=0, max_iters=300,
                         keep_trials=True)
        assert len(kept.per_trial) == 3
        assert "array(" not in repr(kept) and "per_trial" not in repr(kept)
        stats = [
            AggregateStats("original", 20, 200, 0.97, 2215.5, 401.25, 0.9264, 0.031),
            AggregateStats("a1", 20, 100, 0.0, None, None, None, None),
            kept,
        ]
        path = tmp_path / "r.csv"
        write_results_csv(stats, path)
        header = path.read_text().splitlines()[0]
        assert header == ("variant,n,trials,success_rate,avg_iterations,"
                          "std_iterations,avg_ratio,std_ratio")
        back = read_results_csv(path)
        assert back == stats

    _average = st.none() | st.floats(allow_nan=False)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.builds(
        AggregateStats, variant=st.sampled_from(sorted(PRESETS) + ["custom"]),
        n=st.integers(3, 10**9), trials=st.integers(1, 10**9),
        success_rate=st.floats(0.0, 1.0), avg_iterations=_average,
        std_iterations=_average, avg_ratio=_average, std_ratio=_average), max_size=5))
    @example(rows=[AggregateStats("custom", 3, 1, 5e-324, None, None, None, None),
                   AggregateStats("a1", 10**6, 7, 1 / 7, 1.7976931348623157e308, 5e-324,
                                  1.1125369292536007e-308, 1e-300)])
    def test_results_roundtrip_property(self, rows):
        # the writer's shortest-repr cells read back to the same floats,
        # subnormal and near-overflow ones included; None is an empty cell
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            write_results_csv(rows, path)
            assert read_results_csv(path) == rows

    def test_fit_json(self, tmp_path):
        import json
        fit = fit_scaling(stats_from_points(SWEEP_COLUMN))
        path = tmp_path / "fit.json"
        write_fit_json(fit, path)
        data = json.loads(path.read_text())
        assert set(data) == {"points", "exponent", "prefactor", "r_squared"}
        assert data["exponent"] == pytest.approx(fit.exponent)

    def test_plot_data(self, tmp_path):
        stats = stats_from_points([(10, 200.0), (40, 400.0), (90, 600.0)])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_plot_data(stats, a, b)
        lines_a = a.read_text().splitlines()
        assert lines_a[0] == "n,avg_iterations,sqrt_n_fit"
        assert len(lines_a) == 4
        rows_a = [[float(cell) for cell in line.split(",")] for line in lines_a[1:]]
        # the pinned sqrt-n curve is exact here since points lie on 63.3*sqrt(n)
        for _, avg, fit in rows_a:
            assert fit == pytest.approx(avg, rel=1e-12)
        lines_b = b.read_text().splitlines()
        assert lines_b[0] == "n,avg_ratio,reference_0.9"
        rows_b = [[float(cell) for cell in line.split(",")] for line in lines_b[1:]]
        assert [row[1:] for row in rows_b] == [[0.9, 0.9]] * 3

    def test_plot_data_with_nothing_solved_is_header_only(self, tmp_path):
        stats = [AggregateStats("a1", n, 2, 0.0, None, None, None, None) for n in (5, 6)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_plot_data(stats, a, b)
        assert a.read_text().splitlines() == ["n,avg_iterations,sqrt_n_fit"]
        assert b.read_text().splitlines() == ["n,avg_ratio,reference_0.9"]
