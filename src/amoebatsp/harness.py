"""Batch experiments: seeded trial batches, n-sweeps, and the scaling fit.

Trial seeds derive from (global_seed, trial_index) and map seeds from
(global_seed, trial_index, map-stream tag), so batches are reproducible
and embarrassingly parallel: results are aggregated in trial-index order
no matter how many workers ran them.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .dynamics import ElementA, ElementB, ElementC, VariantConfig
from .instance import ParamSet, check_city_count, generate_map
from .solver import DEFAULT_MAX_ITERS, TrialResult, run_trial

_MAP_STREAM = 0x6D61
_TRIAL_STREAM = 0x7472


@dataclass
class AggregateStats:
    """One batch, compared and printed as its CSV row; averages cover solved trials only."""

    variant: str
    n: int
    trials: int
    success_rate: float
    avg_iterations: float | None
    std_iterations: float | None
    avg_ratio: float | None
    std_ratio: float | None
    per_trial: list[TrialResult] | None = field(default=None, compare=False, repr=False)


RESULTS_CSV_HEADER = [f.name for f in fields(AggregateStats) if f.compare]


@dataclass
class ScalingFit:
    """Log-log least-squares fit of mean iterations against city count."""

    points: list[tuple[int, float]]
    exponent: float
    prefactor: float
    r_squared: float


PRESETS = {
    "original": VariantConfig(),
    "a1": VariantConfig(element_a=ElementA.ZERO),
    "a2": VariantConfig(element_a=ElementA.NORMAL),
    "b1": VariantConfig(element_b=ElementB.SCALE_I, i_scale=0.9),
    "b2": VariantConfig(element_b=ElementB.SCALE_I, i_scale=1.1),
    "b3": VariantConfig(element_b=ElementB.ZERO_DELTA_IN),
    "b4": VariantConfig(element_b=ElementB.DENOM_N),
    "c1": VariantConfig(element_c=frozenset({ElementC.O_CONST})),
    "c2": VariantConfig(element_c=frozenset({ElementC.L_OUTER_STEP})),
    "c3": VariantConfig(element_c=frozenset({ElementC.L_INNER_STEP})),
    "improved": VariantConfig(element_a=ElementA.NORMAL,
                              element_b=ElementB.DENOM_N,
                              element_c=frozenset({ElementC.O_CONST})),
}

# Reference results bundled for side-by-side comparison in `reproduce`:
# per variant at n=20, (success rate, mean iterations, mean ratio).
REFERENCE_N20 = {
    "original": (0.992, 1870.6, 0.951),
    "a1": (0.000, None, None),
    "a2": (0.986, 1326.8, 0.941),
    "b1": (0.990, 1937.4, 0.957),
    "b2": (0.992, 1817.4, 0.949),
    "b3": (0.996, 1989.7, 0.958),
    "b4": (0.994, 1049.3, 0.912),
    "c1": (1.000, 974.5, 0.952),
    "c2": (0.991, 1874.8, 0.953),
    "c3": (0.460, 2578.7, 1.000),
}

# Improved-model reference sweep: n -> (success rate, mean iterations, mean ratio).
REFERENCE_IMPROVED_SWEEP = {
    10: (1.00, 199.5, 0.957), 11: (1.00, 201.3, 0.953), 12: (1.00, 211.1, 0.900),
    13: (1.00, 219.1, 0.926), 14: (1.00, 229.0, 0.954), 15: (1.00, 235.8, 0.916),
    16: (1.00, 247.0, 0.939), 17: (1.00, 253.2, 0.899), 18: (1.00, 260.4, 0.910),
    19: (1.00, 269.3, 0.891), 20: (1.00, 276.3, 0.934), 30: (1.00, 341.5, 0.887),
    40: (1.00, 393.3, 0.880), 50: (1.00, 437.7, 0.875), 60: (1.00, 479.5, 0.881),
    70: (1.00, 515.9, 0.871), 80: (1.00, 550.6, 0.867), 90: (1.00, 581.4, 0.876),
    100: (1.00, 622.2, 0.859),
}

REFERENCE_TABLES = {
    "2": ["a1", "a2", "original"],
    "3": ["b1", "b2", "b3", "b4", "original"],
    "4": ["c1", "c2", "c3", "original"],
}


def preset(name: str) -> VariantConfig:
    """Named variant configuration; unknown names are rejected."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1)[0])


def trial_seeds(global_seed: int, index: int) -> tuple[int, int]:
    """(map seed, trial seed) of trial `index` in a batch run with global_seed."""
    return (_derive_seed(global_seed, index, _MAP_STREAM),
            _derive_seed(global_seed, index, _TRIAL_STREAM))


def _trial(index, n, cfg, global_seed, map_seed, max_iters, keep_trials):
    """Trial `index` of a batch; map_seed None draws the trial's own map."""
    own_map_seed, seed = trial_seeds(global_seed, index)
    inst = generate_map(n, own_map_seed if map_seed is None else map_seed)
    result = run_trial(inst, ParamSet.for_instance(inst), cfg, seed=seed, max_iters=max_iters)
    if not keep_trials:
        result.final_x = None
    return result


def run_batch(n: int, trials: int, cfg: VariantConfig, global_seed: int,
              max_iters: int = DEFAULT_MAX_ITERS, map_policy: str = "fresh",
              map_seed: int | None = None, workers: int = 1,
              keep_trials: bool = False) -> AggregateStats:
    """Run seeded trials of one configuration and aggregate the criteria.

    map_policy "fresh" draws a new map per trial (nu recalibrated each time)
    and refuses a map_seed; "fixed" reuses one map seeded by map_seed
    (derived from global_seed when omitted). The pool holds no more workers
    than trials or CPUs. keep_trials attaches the trial results, final
    states included, as per_trial. The label is the PRESETS name of cfg at
    any start level, or "custom".
    """
    check_city_count(n)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if map_policy not in ("fresh", "fixed"):
        raise ValueError(f"unknown map_policy {map_policy!r}")
    if map_policy == "fresh" and map_seed is not None:
        raise ValueError("map_seed needs map_policy 'fixed'")
    if map_policy == "fixed" and map_seed is None:
        map_seed = _derive_seed(global_seed, _MAP_STREAM)
    job = partial(_trial, n=n, cfg=cfg, global_seed=global_seed, map_seed=map_seed,
                  max_iters=max_iters, keep_trials=keep_trials)
    workers = min(workers, trials, os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            results = pool.map(job, range(trials))
    else:
        results = [job(i) for i in range(trials)]
    name = next((key for key, known in PRESETS.items()
                 if known == replace(cfg, init_level=None)), "custom")
    stats = aggregate(results, name, n)
    if keep_trials:
        stats.per_trial = results
    return stats


def aggregate(results: list[TrialResult], variant_name: str, n: int) -> AggregateStats:
    """Fold trial results in order; empty success sets yield absent averages."""
    wins = [r for r in results if r.success]
    iters = np.array([r.iterations for r in wins], dtype=float)
    ratios = np.array([r.ratio for r in wins], dtype=float)

    def _mean(a):
        return float(a.mean()) if a.size else None

    def _std(a):
        return float(a.std(ddof=1)) if a.size > 1 else None

    return AggregateStats(
        variant=variant_name,
        n=n,
        trials=len(results),
        success_rate=len(wins) / len(results),
        avg_iterations=_mean(iters),
        std_iterations=_std(iters),
        avg_ratio=_mean(ratios),
        std_ratio=_std(ratios),
    )


def standard_error(stats: AggregateStats, field: str) -> float | None:
    """Standard error of a batch mean: of success_rate over all trials, of
    avg_iterations or avg_ratio over the solved trials (None below two)."""
    if field == "success_rate":
        p = stats.success_rate
        return math.sqrt(p * (1.0 - p) / stats.trials)
    std = getattr(stats, field.replace("avg_", "std_"))
    return None if std is None else std / math.sqrt(round(stats.success_rate * stats.trials))


def fit_scaling(stats: list[AggregateStats]) -> ScalingFit:
    """Least squares on (ln n, ln mean iterations); needs 3+ distinct solved
    sizes, each with a finite positive n and mean."""
    points = [(s.n, s.avg_iterations) for s in stats
              if s.success_rate > 0 and s.avg_iterations is not None]
    for n, it in points:
        if not (n > 0 and math.isfinite(it) and it > 0):
            raise ValueError(f"scaling fit needs finite positive n and mean iterations, "
                             f"got n={n} avg_iterations={it}")
    if len({n for n, _ in points}) < 3:
        raise ValueError("scaling fit needs at least 3 distinct sizes with successes")
    ln_n = np.log([p[0] for p in points])
    ln_it = np.log([p[1] for p in points])
    design = np.vstack([ln_n, np.ones_like(ln_n)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ln_it, rcond=None)
    predicted = design @ np.array([slope, intercept])
    ss_res = float(((ln_it - predicted) ** 2).sum())
    ss_tot = float(((ln_it - ln_it.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ScalingFit(points=points, exponent=float(slope),
                      prefactor=float(np.exp(intercept)), r_squared=r_squared)


def write_csv(path, header, rows) -> None:
    """The one table writer: a header line, then one line per row. None is an
    empty cell; every other value is written as str() gives it, so floats,
    numpy's included, appear as their shortest round-trip decimal."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if v is None else v for v in row] for row in rows)


def write_results_csv(stats: list[AggregateStats], path) -> None:
    """Fixed-column results CSV; absent averages become empty cells."""
    write_csv(path, RESULTS_CSV_HEADER,
              ([getattr(s, col) for col in RESULTS_CSV_HEADER] for s in stats))


def read_results_csv(path) -> list[AggregateStats]:
    """Read a results CSV back into aggregates (per_trial not recoverable).
    Only avg/std cells may be empty (fit_scaling compares success_rate with 0);
    a bad cell raises ValueError naming the file, line, column and cell."""
    strict = {"n": int, "trials": int, "success_rate": float}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RESULTS_CSV_HEADER if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: results CSV lacks columns {missing}")
        stats = []
        for row in reader:
            fields = {"variant": row["variant"]}
            for col in RESULTS_CSV_HEADER[1:]:
                cell, parse = row[col] or "", strict.get(col, float)
                try:
                    fields[col] = parse(cell) if cell or col in strict else None
                except ValueError:
                    raise ValueError(f"{path}: line {reader.line_num}, column {col}: "
                                     f"cannot read {cell!r} as {parse.__name__}") from None
            stats.append(AggregateStats(**fields))
        return stats


def write_fit_json(fit: ScalingFit, path) -> None:
    Path(path).write_text(json.dumps(asdict(fit), indent=2), encoding="utf-8")


def write_plot_data(stats: list[AggregateStats], iters_path, ratio_path) -> None:
    """Plot-ready CSVs, one row per solved size: iteration scaling with a
    sqrt-n reference curve, and ratio against the 0.9 reference line."""
    points = [(s.n, s.avg_iterations, s.avg_ratio) for s in stats
              if s.avg_iterations is not None]
    # sqrt-n curve fitted with the exponent pinned at 1/2
    logs = [np.log(it) - 0.5 * np.log(n) for n, it, _ in points]
    c = float(np.exp(np.mean(logs))) if logs else None
    write_csv(iters_path, ["n", "avg_iterations", "sqrt_n_fit"],
              ((n, it, c * np.sqrt(n)) for n, it, _ in points))
    write_csv(ratio_path, ["n", "avg_ratio", "reference_0.9"],
              ((n, ratio, 0.9) for n, _, ratio in points))
