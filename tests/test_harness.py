"""Batches, sweeps, presets, aggregation rules, and the scaling fit."""

import numpy as np
import pytest

from amoebatsp import (
    ElementA,
    ElementB,
    ElementC,
    ParamSet,
    TrialResult,
    VariantConfig,
    aggregate,
    fit_scaling,
    generate_map,
    preset,
    run_batch,
    run_trial,
)
from amoebatsp.harness import (
    _MAP_STREAM,
    _TRIAL_STREAM,
    AggregateStats,
    _derive_seed,
    read_results_csv,
    write_fit_json,
    write_plot_data,
    write_results_csv,
)

# reference sweep column used as a fixture for the fit
SWEEP_COLUMN = [(10, 199.5), (11, 201.3), (12, 211.1), (13, 219.1), (14, 229.0),
                (15, 235.8), (16, 247.0), (17, 253.2), (18, 260.4), (19, 269.3),
                (20, 276.3), (30, 341.5), (40, 393.3), (50, 437.7), (60, 479.5),
                (70, 515.9), (80, 550.6), (90, 581.4), (100, 622.2)]


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


class TestRunBatch:
    def test_deterministic(self):
        kwargs = dict(global_seed=5, variant_name="improved")
        a = run_batch(10, 8, preset("improved"), **kwargs)
        b = run_batch(10, 8, preset("improved"), **kwargs)
        assert a == b

    def test_worker_count_independence(self):
        # trial order rests on Pool.map returning results in input order
        a = run_batch(10, 8, preset("improved"), global_seed=3, workers=1, keep_trials=True)
        b = run_batch(10, 8, preset("improved"), global_seed=3, workers=2, keep_trials=True)
        assert ([(r.iterations, r.tour) for r in a.per_trial]
                == [(r.iterations, r.tour) for r in b.per_trial])
        assert a.success_rate == b.success_rate
        assert a.avg_iterations == b.avg_iterations
        assert a.std_iterations == b.std_iterations
        assert a.avg_ratio == b.avg_ratio
        assert a.std_ratio == b.std_ratio

    def test_pool_no_larger_than_the_batch(self, monkeypatch):
        import amoebatsp.harness as harness

        sizes = []

        def recording_pool(processes):
            sizes.append(processes)
            return real_pool(processes)

        real_pool = harness.Pool
        monkeypatch.setattr(harness, "Pool", recording_pool)
        a = run_batch(10, 2, preset("improved"), global_seed=3, workers=4, keep_trials=True)
        b = run_batch(10, 2, preset("improved"), global_seed=3, workers=1, keep_trials=True)
        assert sizes == [2]
        assert ([(r.iterations, r.tour) for r in a.per_trial]
                == [(r.iterations, r.tour) for r in b.per_trial])

    def test_trial_seed_derivation_contract(self):
        # batch trial i must equal a hand-built trial with the derived seeds
        stats = run_batch(10, 3, preset("improved"), global_seed=9, keep_trials=True)
        for i, recorded in enumerate(stats.per_trial):
            inst = generate_map(10, _derive_seed(9, i, _MAP_STREAM))
            params = ParamSet.for_instance(inst)
            redo = run_trial(inst, params, preset("improved"),
                             seed=_derive_seed(9, i, _TRIAL_STREAM))
            assert redo.iterations == recorded.iterations
            assert redo.tour == recorded.tour

    def test_fixed_map_policy_reuses_one_map(self):
        stats = run_batch(10, 3, preset("improved"), global_seed=2,
                          map_policy="fixed", map_seed=77, keep_trials=True)
        inst = generate_map(10, 77)
        params = ParamSet.for_instance(inst)
        for i, recorded in enumerate(stats.per_trial):
            redo = run_trial(inst, params, preset("improved"),
                             seed=_derive_seed(2, i, _TRIAL_STREAM))
            assert redo.iterations == recorded.iterations

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            run_batch(10, 1, preset("improved"), global_seed=0, map_policy="sometimes")

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_batch(10, 0, preset("improved"), global_seed=0)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_batch(10, 1, preset("improved"), global_seed=0, workers=-1)

    def test_map_seed_needs_fixed_policy(self):
        with pytest.raises(ValueError, match="map_seed"):
            run_batch(10, 1, preset("improved"), global_seed=0, map_seed=77)


class TestVariantOrdering:
    def test_iteration_ordering_at_n20(self):
        # the characteristic speed ordering of the variants: constant
        # contraction fastest, then denominator-n, then normal noise, then
        # the original, with the hard inner step slowest
        means = {}
        for name in ("c1", "b4", "a2", "original", "c3"):
            s = run_batch(20, 20, preset(name), global_seed=17, workers=2,
                          variant_name=name)
            assert s.avg_iterations is not None
            means[name] = s.avg_iterations
        assert means["c1"] < means["b4"] < means["a2"] < means["original"] < means["c3"]


class TestAggregate:
    def test_averages_over_successes_only(self):
        results = [
            TrialResult(success=True, iterations=100, ratio=0.9),
            TrialResult(success=False, iterations=3000),
            TrialResult(success=True, iterations=200, ratio=0.8),
        ]
        s = aggregate(results, "x", 10)
        assert s.success_rate == pytest.approx(2 / 3)
        assert s.avg_iterations == pytest.approx(150.0)
        assert s.avg_ratio == pytest.approx(0.85)
        assert s.std_iterations == pytest.approx(np.std([100, 200], ddof=1))

    def test_empty_success_set_marks_absent(self):
        results = [TrialResult(success=False, iterations=3000)] * 4
        s = aggregate(results, "a1", 20)
        assert s.success_rate == 0.0
        assert s.avg_iterations is None
        assert s.avg_ratio is None
        assert s.std_iterations is None

    def test_single_success_has_no_std(self):
        results = [TrialResult(success=True, iterations=10, ratio=0.9)]
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
        stats = [
            AggregateStats("original", 20, 200, 0.97, 2215.5, 401.25, 0.9264, 0.031),
            AggregateStats("a1", 20, 100, 0.0, None, None, None, None),
        ]
        path = tmp_path / "r.csv"
        write_results_csv(stats, path)
        header = path.read_text().splitlines()[0]
        assert header == ("variant,n,trials,success_rate,avg_iterations,"
                          "std_iterations,avg_ratio,std_ratio")
        back = read_results_csv(path)
        assert back == stats

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
