"""Acceptance suite: every criterion at its stated tolerance.

Statistical criteria run 200 seeded trials (100 or 1000 where stated) under
global seed 0 with fresh maps per trial. Each test records one PASS/FAIL
line (echoed in the terminal summary) before asserting, so a red criterion
still reports its measured values. Criteria 1-9 score each reference cell
with harness.score against its band in harness, as `reproduce` does, and
print it with its standard error and its gap to the reference in standard
errors, so noise can be told from signal.
"""

import itertools
import math

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from amoebatsp.dynamics import AmoebaState, ElementA, VariantConfig, step
from amoebatsp.harness import (COMPARED, SWEEP_ENDPOINTS_BAND, SWEEP_EXPONENT_BAND, fit_scaling,
                               preset, reference_cell, run_batch, score, standard_error)
from amoebatsp.instance import ParamSet, generate_map, route_length
from amoebatsp.solver import run_trial
from oracles import brute_force_optimum, cost_function

GLOBAL_SEED = 0
WORKERS = 2
SHORT = {"success_rate": "success", "avg_iterations": "iters", "avg_ratio": "ratio"}


def record(num: int, passed: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def scored(num: int, label: str, s, *fields) -> bool:
    """Record criterion num from the named cells of batch s, each scored
    against its band and printed with it; True when every cell passes."""
    cells = [reference_cell(s, field) for field in fields]
    verdicts = [score(*cell) for cell in cells]
    ok = all(passed for passed, _ in verdicts)
    parts = [f"{SHORT[field]}={text} ({cell[3]})"
             for field, cell, (_, text) in zip(fields, cells, verdicts)]
    record(num, ok, f"{label}: {', '.join(parts)}")
    return ok


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
    assert scored(1, "original n=20", batch_original, *COMPARED)


def test_criterion_02_no_fluctuations_never_solves():
    s = run_batch(20, 100, preset("a1"), global_seed=GLOBAL_SEED, workers=WORKERS)
    assert scored(2, "a1 n=20", s, "success_rate")


def test_criterion_03_normal_fluctuations():
    s = run_batch(20, 200, preset("a2"), global_seed=GLOBAL_SEED, workers=WORKERS)
    assert scored(3, "a2 n=20", s, "avg_iterations", "success_rate")


def test_criterion_04_denominator_n():
    s = run_batch(20, 200, preset("b4"), global_seed=GLOBAL_SEED, workers=WORKERS)
    assert scored(4, "b4 n=20", s, "avg_iterations")


def test_criterion_05_constant_contraction():
    s = run_batch(20, 200, preset("c1"), global_seed=GLOBAL_SEED, workers=WORKERS)
    assert scored(5, "c1 n=20", s, "success_rate", "avg_iterations")


def test_criterion_06_inner_step_function():
    s = run_batch(20, 200, preset("c3"), global_seed=GLOBAL_SEED, workers=WORKERS)
    assert scored(6, "c3 n=20", s, "success_rate", "avg_ratio")


def test_criterion_07_improved_thousand_trials(batch_improved_1000):
    assert scored(7, "improved n=20 x1000", batch_improved_1000, *COMPARED)


def test_criterion_08_sqrt_scaling(sweep_improved):
    fit = fit_scaling(list(sweep_improved.values()))
    s10, s100 = sweep_improved[10], sweep_improved[100]
    endpoints = s100.avg_iterations / s10.avg_iterations
    # delta-method standard error of a ratio of independent means
    endpoints_se = endpoints * math.hypot(
        standard_error(s100, "avg_iterations") / s100.avg_iterations,
        standard_error(s10, "avg_iterations") / s10.avg_iterations)
    band = SWEEP_ENDPOINTS_BAND
    ends_ok, ends = score(endpoints, endpoints_se, band.center, band, 3)
    ok = SWEEP_EXPONENT_BAND.holds(fit.exponent) and ends_ok
    means = ", ".join(f"{n}: {score(*reference_cell(s, 'avg_iterations'))[1]}"
                      for n, s in sweep_improved.items())
    record(8, ok, f"improved sweep: exponent={fit.exponent:.3f} ({SWEEP_EXPONENT_BAND}), "
                  f"iters(100)/iters(10)={ends} ({band}); iters vs reference rows {means}")
    assert ok


def test_criterion_09_ratio_improves_with_n(sweep_improved):
    s10, s100 = sweep_improved[10], sweep_improved[100]
    se10, se100 = standard_error(s10, "avg_ratio"), standard_error(s100, "avg_ratio")
    cell = reference_cell(s100, "avg_ratio")
    ratio_ok, text = score(*cell)
    ok = ratio_ok and s100.avg_ratio < s10.avg_ratio
    record(9, ok, f"improved sweep: ratio(100)={text} ({cell[3]}), "
                  f"ratio(10)={s10.avg_ratio:.4f} +-{se10:.4f} SE (must be higher, by "
                  f"{(s10.avg_ratio - s100.avg_ratio) / math.hypot(se10, se100):.1f} sigma)")
    assert ok


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
