"""Acceptance suite: every criterion at its stated tolerance.

Statistical criteria run 200 seeded trials (100 or 1000 where stated) under
global seed 0 with fresh maps per trial. Each test records one PASS/FAIL
line (echoed in the terminal summary) before asserting, so a red criterion
still reports its measured values. Every mean compared with a reference
is printed with its standard error and its gap to the reference in
standard errors, so noise can be told from signal.
"""

import itertools
import math

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from amoebatsp.dynamics import AmoebaState, ElementA, VariantConfig, step
from amoebatsp.harness import (REFERENCE_IMPROVED_SWEEP, fit_scaling, preset, run_batch,
                               standard_error)
from amoebatsp.instance import ParamSet, generate_map, route_length
from amoebatsp.solver import run_trial
from oracles import brute_force_optimum, cost_function

GLOBAL_SEED = 0
WORKERS = 2


def record(num: int, passed: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def within(value, center, rel):
    return abs(value - center) <= rel * center


def sem(s, field):
    """harness.standard_error, nan where fewer than two trials solved."""
    se = standard_error(s, field)
    return math.nan if se is None else se


def gap(value, se, ref, digits):
    """'value +-SE, gap in sigma' against ref; the gap is absent when SE is 0."""
    sigma = f", gap {(value - ref) / se:+.1f} sigma" if se > 0 else ""
    return f"{value:.{digits}f} +-{se:.{digits}f} SE{sigma}"


def stat(s, field, ref, digits):
    return gap(getattr(s, field), sem(s, field), ref, digits)


@pytest.fixture(scope="module")
def batch_original():
    return run_batch(20, 200, preset("original"), global_seed=GLOBAL_SEED, workers=WORKERS)


@pytest.fixture(scope="module")
def batch_improved_1000():
    return run_batch(20, 1000, preset("improved"), global_seed=GLOBAL_SEED, workers=WORKERS)


@pytest.fixture(scope="module")
def sweep_improved():
    plan = [(10, 200), (20, 200), (50, 50), (100, 50)]
    return {n: run_batch(n, trials, preset("improved"), global_seed=GLOBAL_SEED, workers=WORKERS)
            for n, trials in plan}


def test_criterion_01_original_model(batch_original):
    s = batch_original
    ok = (s.success_rate >= 0.97
          and within(s.avg_iterations, 1870.6, 0.15)
          and abs(s.avg_ratio - 0.951) <= 0.03)
    record(1, ok, f"original n=20: success={stat(s, 'success_rate', 0.97, 3)} (>=0.97), "
                  f"iters={stat(s, 'avg_iterations', 1870.6, 1)} (1870.6 +-15%), "
                  f"ratio={stat(s, 'avg_ratio', 0.951, 4)} (0.951 +-0.03)")
    assert s.success_rate >= 0.97
    assert within(s.avg_iterations, 1870.6, 0.15), s.avg_iterations
    assert abs(s.avg_ratio - 0.951) <= 0.03, s.avg_ratio


def test_criterion_02_no_fluctuations_never_solves():
    s = run_batch(20, 100, preset("a1"), global_seed=GLOBAL_SEED, workers=WORKERS)
    ok = s.success_rate == 0.0
    record(2, ok, f"a1 n=20: success={s.success_rate:.3f} (expected exactly 0.000)")
    assert s.success_rate == 0.0


def test_criterion_03_normal_fluctuations():
    s = run_batch(20, 200, preset("a2"), global_seed=GLOBAL_SEED, workers=WORKERS)
    ok = within(s.avg_iterations, 1326.8, 0.15) and s.success_rate >= 0.96
    record(3, ok, f"a2 n=20: iters={stat(s, 'avg_iterations', 1326.8, 1)} (1326.8 +-15%), "
                  f"success={stat(s, 'success_rate', 0.96, 3)} (>=0.96)")
    assert within(s.avg_iterations, 1326.8, 0.15), s.avg_iterations
    assert s.success_rate >= 0.96


def test_criterion_04_denominator_n():
    s = run_batch(20, 200, preset("b4"), global_seed=GLOBAL_SEED, workers=WORKERS)
    ok = within(s.avg_iterations, 1049.3, 0.15)
    record(4, ok, f"b4 n=20: iters={stat(s, 'avg_iterations', 1049.3, 1)} (1049.3 +-15%)")
    assert within(s.avg_iterations, 1049.3, 0.15), s.avg_iterations


def test_criterion_05_constant_contraction():
    s = run_batch(20, 200, preset("c1"), global_seed=GLOBAL_SEED, workers=WORKERS)
    ok = s.success_rate >= 0.99 and within(s.avg_iterations, 974.5, 0.15)
    record(5, ok, f"c1 n=20: success={stat(s, 'success_rate', 0.99, 3)} (>=0.99), "
                  f"iters={stat(s, 'avg_iterations', 974.5, 1)} (974.5 +-15%)")
    assert s.success_rate >= 0.99
    assert within(s.avg_iterations, 974.5, 0.15), s.avg_iterations


def test_criterion_06_inner_step_function():
    s = run_batch(20, 200, preset("c3"), global_seed=GLOBAL_SEED, workers=WORKERS)
    ok = abs(s.success_rate - 0.46) <= 0.10 and abs(s.avg_ratio - 1.000) <= 0.03
    record(6, ok, f"c3 n=20: success={stat(s, 'success_rate', 0.46, 3)} (0.46 +-0.10), "
                  f"ratio={stat(s, 'avg_ratio', 1.000, 4)} (1.000 +-0.03)")
    assert abs(s.success_rate - 0.46) <= 0.10
    assert abs(s.avg_ratio - 1.000) <= 0.03


def test_criterion_07_improved_thousand_trials(batch_improved_1000):
    s = batch_improved_1000
    ok = (s.success_rate == 1.0
          and within(s.avg_iterations, 276.3, 0.15)
          and abs(s.avg_ratio - 0.934) <= 0.03)
    record(7, ok, f"improved n=20 x1000: success={s.success_rate:.3f} (=1.00), "
                  f"iters={stat(s, 'avg_iterations', 276.3, 1)} (276.3 +-15%), "
                  f"ratio={stat(s, 'avg_ratio', 0.934, 4)} (0.934 +-0.03)")
    assert s.success_rate == 1.0
    assert within(s.avg_iterations, 276.3, 0.15), s.avg_iterations
    assert abs(s.avg_ratio - 0.934) <= 0.03, s.avg_ratio


def test_criterion_08_sqrt_scaling(sweep_improved):
    fit = fit_scaling(list(sweep_improved.values()))
    s10, s100 = sweep_improved[10], sweep_improved[100]
    endpoints = s100.avg_iterations / s10.avg_iterations
    # delta-method standard error of a ratio of independent means
    endpoints_se = endpoints * math.hypot(sem(s100, "avg_iterations") / s100.avg_iterations,
                                          sem(s10, "avg_iterations") / s10.avg_iterations)
    ok = 0.40 <= fit.exponent <= 0.60 and within(endpoints, 3.12, 0.15)
    means = ", ".join(f"{n}: {stat(s, 'avg_iterations', REFERENCE_IMPROVED_SWEEP[n][1], 1)}"
                      for n, s in sweep_improved.items())
    record(8, ok, f"improved sweep: exponent={fit.exponent:.3f} ([0.40, 0.60]), "
                  f"iters(100)/iters(10)={gap(endpoints, endpoints_se, 3.12, 3)} (3.12 +-15%); "
                  f"iters vs reference rows {means}")
    assert 0.40 <= fit.exponent <= 0.60, fit.exponent
    assert within(endpoints, 3.12, 0.15), endpoints


def test_criterion_09_ratio_improves_with_n(sweep_improved):
    r100 = sweep_improved[100].avg_ratio
    r10 = sweep_improved[10].avg_ratio
    se100, se10 = sem(sweep_improved[100], "avg_ratio"), sem(sweep_improved[10], "avg_ratio")
    ok = abs(r100 - 0.859) <= 0.03 and r100 < r10
    record(9, ok, f"improved sweep: ratio(100)={gap(r100, se100, 0.859, 4)} (0.859 +-0.03), "
                  f"ratio(10)={r10:.4f} +-{se10:.4f} SE (must be higher, by "
                  f"{(r10 - r100) / math.hypot(se10, se100):.1f} sigma)")
    assert abs(r100 - 0.859) <= 0.03, r100
    assert r100 < r10


def test_criterion_10_exact_conservation():
    inst = generate_map(10, seed=77)
    params = ParamSet.for_instance(inst)
    cfg = VariantConfig(element_a=ElementA.ZERO)
    rng = np.random.default_rng(1)
    state = AmoebaState.initial(10)
    checked = 0
    worst = 0.0
    rows = []
    for _ in range(1000):
        prev_stock = state.stock
        state = step(state, inst, params, cfg, rng, rows)
        diag = rows[-1]
        if diag.l_off > 0 and prev_stock == 0.0:
            checked += 1
            worst = max(worst, abs(diag.residual))
    ok = checked > 0 and worst <= 1e-12
    record(10, ok, f"conservation over 1000 live steps (n=10): "
                   f"{checked} applicable steps, worst |residual|={worst:.2e} (<=1e-12)")
    assert checked > 0
    assert worst <= 1e-12


def test_criterion_11_cost_route_identity():
    worst = 0.0
    for seed in range(5):
        inst = generate_map(5, seed=1000 + seed)
        params = ParamSet.for_instance(inst)
        for tour in itertools.permutations(range(5)):
            x = np.zeros((5, 5))
            for k, city in enumerate(tour):
                x[city, k] = 1.0
            expected = params.nu * route_length(tour, inst)
            got = cost_function(x, params, inst)
            worst = max(worst, abs(got - expected) / abs(expected))
    ok = worst <= 1e-9
    record(11, ok, f"cost == nu*route over 5 maps x 120 tours: "
                   f"worst rel err={worst:.2e} (<=1e-9)")
    assert worst <= 1e-9


def test_criterion_12_oracle_bound():
    ratios = []
    solved = 0
    for i in range(20):
        inst = generate_map(8, seed=500 + i)
        params = ParamSet.for_instance(inst)
        result = run_trial(inst, params, preset("improved"), seed=900 + i)
        if result.success:
            solved += 1
            _, optimum = brute_force_optimum(inst)
            assert result.r_calc >= optimum - 1e-9
            ratios.append(result.r_calc / optimum)
    median = float(np.median(ratios)) if ratios else float("nan")
    note = "" if median <= 1.15 else " [note: above the 1.15 report line]"
    ok = bool(ratios) and 1.0 - 1e-12 <= median <= 1.5
    record(12, ok, f"n=8 vs brute force: {solved}/20 solved, "
                   f"median ratio-to-optimum={median:.4f} (hard band [1.0, 1.5]){note}")
    assert ratios
    assert 1.0 - 1e-12 <= median <= 1.5


def test_criterion_13_bitwise_determinism(sweep_improved):
    reference = sweep_improved[10]
    for workers in (1, 2):
        redo = run_batch(10, 200, preset("improved"), global_seed=GLOBAL_SEED, workers=workers)
        same = redo == reference  # the whole CSV row: variant, n, trials and every aggregate
        if not same:
            record(13, False, f"rerun with workers={workers} diverged")
            assert same
    record(13, True, "aggregates bit-identical across reruns with 1 and 2 workers")
