"""Compare two checkouts in one process: same trajectories, and step time.

    python3 tools/step_ab.py PARENT_CHECKOUT CHILD_CHECKOUT

Each checkout's src/amoebatsp is copied into a temporary directory under
its own package name (the package imports itself only relatively), so both
versions load into one interpreter. First both sides run a fixed batch of
every preset at n = 8, 12 and 20, and each trial's outcome (success,
iterations, tour) and final branch-length bytes are compared across the
sides; a change that only moves rounding differs in final states alone.
Each side's SHA-256 digests over the outcomes and the final states are
printed too. Then, per size, the sides run the same seeded trials,
alternating trial by trial and which side goes first, so drift in the
host's CPU speed hits both alike; a trial's cost is its run_trial wall
time over its iterations. Prints each side's quartiles in us/step, the
median child/parent ratio, the pairs the child won and the pairs that
ended differently. The last line is the whole report as one JSON object.
"""

import hashlib
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# trajectory batches: every preset at each size, as run_batch runs them
SIZES = (8, 12, 20)
TRIALS = 6
GLOBAL_SEED = 7
MAX_ITERS = 1500
WORKERS = 2
# timed (n, preset, trials): dispatch-bound small maps and a kernel-bound large one
RUNS = ((10, "improved", 60), (20, "original", 40), (100, "improved", 16))
MAP_SEED = 1000


def load(checkout: str, name: str, into: Path) -> SimpleNamespace:
    """The checkout's modules that the comparison calls, imported by module
    rather than through the package root, which may or may not re-export them."""
    shutil.copytree(Path(checkout) / "src" / "amoebatsp", into / name)
    return SimpleNamespace(**{module: importlib.import_module(f"{name}.{module}")
                              for module in ("harness", "instance", "solver")})


def trajectories(pkg) -> tuple[dict, dict]:
    """Each trial's outcome and final-state bytes, keyed (preset, n, index),
    and the side's outcome and final-state digests."""
    trials = {}
    for name, cfg in pkg.harness.PRESETS.items():
        for n in SIZES:
            stats = pkg.harness.run_batch(n, TRIALS, cfg, global_seed=GLOBAL_SEED,
                                          max_iters=MAX_ITERS, workers=WORKERS, keep_trials=True)
            for index, r in enumerate(stats.per_trial):
                trials[name, n, index] = (repr((name, n, r.success, r.iterations, r.tour)).encode(),
                                          r.final_x.tobytes())
    outcomes, states = zip(*trials.values())
    return trials, {"outcomes": hashlib.sha256(b"".join(outcomes)).hexdigest(),
                    "final_states": hashlib.sha256(b"".join(states)).hexdigest()}


def compare(sides) -> dict:
    (parent, parent_digests), (child, child_digests) = map(trajectories, sides)
    pairs = [(parent.get(key, (None, None)), child.get(key, (None, None)))
             for key in parent.keys() | child.keys()]
    return {"trials": len(pairs),
            "outcomes_differ": sum(p[0] != c[0] for p, c in pairs),
            "final_states_differ": sum(p[1] != c[1] for p, c in pairs),
            "digests": {"parent": parent_digests, "child": child_digests}}


def timed_trial(pkg, n: int, preset: str, seed: int) -> tuple[float, tuple]:
    inst = pkg.instance.generate_map(n, MAP_SEED + seed)
    params, cfg = pkg.instance.ParamSet.for_instance(inst), pkg.harness.preset(preset)
    start = perf_counter()
    r = pkg.solver.run_trial(inst, params, cfg, seed=seed)
    return 1e6 * (perf_counter() - start) / r.iterations, (r.success, r.iterations, r.tour)


def quartiles(values: list[float]) -> list[float]:
    return [round(q, 2) for q in statistics.quantiles(values, n=4)]


def time_steps(sides) -> list[dict]:
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
    return report


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/step_ab.py PARENT_CHECKOUT CHILD_CHECKOUT")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = (load(sys.argv[1], "ab_parent", Path(tmp)),
                 load(sys.argv[2], "ab_child", Path(tmp)))
        same = compare(sides)
        for side, digests in same["digests"].items():
            for what, digest in digests.items():
                print(f"{side:<6} {what:<12} {digest}")
        print(f"{same['trials']} trials: outcomes differ in {same['outcomes_differ']}, "
              f"final states in {same['final_states_differ']}")
        steps = time_steps(sides)
    print(json.dumps({"trajectories": same, "steps": steps}))


if __name__ == "__main__":
    main()
