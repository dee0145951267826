"""Print SHA-256 digests of seeded trajectories over every preset.

    python3 tools/trajectory_digest.py

Runs a fixed batch of every preset at n = 8, 12 and 20 and prints two
lines: a digest over the outcomes (preset, n, success, iterations, tour)
and one over the final branch-length bytes. Run it on two checkouts to
tell a change that keeps every outcome but moves rounding (same first
line, different second) from one that changes what the solver finds.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from amoebatsp.harness import PRESETS, run_batch  # noqa: E402

SIZES = (8, 12, 20)
TRIALS = 6
GLOBAL_SEED = 7
MAX_ITERS = 1500
WORKERS = 2


def main() -> None:
    outcomes = hashlib.sha256()
    states = hashlib.sha256()
    for name, cfg in PRESETS.items():
        for n in SIZES:
            stats = run_batch(n, TRIALS, cfg, global_seed=GLOBAL_SEED, max_iters=MAX_ITERS,
                              workers=WORKERS, variant_name=name, keep_trials=True)
            for r in stats.per_trial:
                outcomes.update(repr((name, n, r.success, r.iterations, r.tour)).encode())
                states.update(r.final_x.tobytes())
    print(f"outcomes     {outcomes.hexdigest()}")
    print(f"final states {states.hexdigest()}")


if __name__ == "__main__":
    main()
