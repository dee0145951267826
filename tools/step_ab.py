"""Time the untraced solver step of two checkouts side by side in one process.

    python3 tools/step_ab.py PARENT_CHECKOUT CHILD_CHECKOUT

Each checkout's src/amoebatsp is copied into a temporary directory under
its own package name (the package imports itself only relatively), so both
versions load into one interpreter. For each size the two sides then run
the same seeded trials, alternating trial by trial and which side goes
first, so drift in the host's CPU speed hits both alike. A trial's cost is
its run_trial wall time over its iterations. Prints, per size, each side's
median and quartiles in us/step, the median child/parent ratio over the
pairs and the pairs the child won; the last line is the same as one JSON
object. Trials that end differently on the two sides are counted, since
then the sides did not do the same work.
"""

from __future__ import annotations

import importlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# (n, preset, trials): dispatch-bound small maps and a kernel-bound large one
RUNS = ((10, "improved", 60), (20, "original", 40), (100, "improved", 16))
MAP_SEED = 1000


def load(checkout: str, name: str, into: Path):
    shutil.copytree(Path(checkout) / "src" / "amoebatsp", into / name)
    return importlib.import_module(name)


def timed_trial(pkg, n: int, preset: str, seed: int) -> tuple[float, tuple]:
    inst = pkg.generate_map(n, MAP_SEED + seed)
    params = pkg.ParamSet.for_instance(inst)
    cfg = pkg.preset(preset)
    start = perf_counter()
    r = pkg.run_trial(inst, params, cfg, seed=seed)
    elapsed = perf_counter() - start
    return 1e6 * elapsed / r.iterations, (r.success, r.iterations, r.tour)


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 2), round(q2, 2), round(q3, 2)]


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/step_ab.py PARENT_CHECKOUT CHILD_CHECKOUT")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = (load(sys.argv[1], "ab_parent", Path(tmp)),
                 load(sys.argv[2], "ab_child", Path(tmp)))
        report = []
        for n, preset, trials in RUNS:
            for pkg in sides:
                timed_trial(pkg, n, preset, seed=trials)  # warm-up, untimed
            us = ([], [])
            differ = 0
            for seed in range(trials):
                order = (0, 1) if seed % 2 == 0 else (1, 0)
                outcome = [None, None]
                for side in order:
                    cost, outcome[side] = timed_trial(sides[side], n, preset, seed)
                    us[side].append(cost)
                differ += outcome[0] != outcome[1]
            ratios = [c / p for p, c in zip(*us)]
            row = {"n": n, "preset": preset, "pairs": trials,
                   "parent_us_per_step_q1_median_q3": quartiles(us[0]),
                   "child_us_per_step_q1_median_q3": quartiles(us[1]),
                   "median_ratio": round(statistics.median(ratios), 3),
                   "child_faster_pairs": sum(r < 1 for r in ratios),
                   "outcomes_differ": differ}
            report.append(row)
            print(f"n={n:<3} {preset:<8} parent {row['parent_us_per_step_q1_median_q3']} "
                  f"child {row['child_us_per_step_q1_median_q3']} us/step (q1, median, q3); "
                  f"ratio {row['median_ratio']}; child faster in "
                  f"{row['child_faster_pairs']}/{trials}; outcomes differ in {differ}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
