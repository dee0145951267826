"""The benchmark's tracing hooks still find the layers they time.

perfbench/tracing.py wraps module attributes of the package by name; if a
layer is renamed or its sigmoid calls change, the traced benchmark silently
times nothing. This runs one trial plainly and once traced.
"""

from pathlib import Path

import numpy as np

from amoebatsp.harness import preset
from amoebatsp.instance import ParamSet, generate_map
from amoebatsp.solver import run_trial

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_trial_matches_and_records_each_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    inst = generate_map(6, seed=3)
    params = ParamSet.for_instance(inst)

    def trial():
        return run_trial(inst, params, preset("original"), seed=5, max_iters=200)

    plain = trial()
    rec = tracing.Recorder()
    with tracing.installed(rec):
        traced = trial()
    assert (traced.iterations, traced.tour) == (plain.iterations, plain.tour)
    assert np.array_equal(traced.final_x, plain.final_x)

    calls = {name: count for name, (count, _, _) in tracing.layer_times(rec.drain()).items()}
    for name in ("dynamics.step", "dynamics.compute_L", "dynamics.sigmoid.inner",
                 "dynamics.sigmoid.contraction"):
        assert calls[name] == plain.iterations, name
    # the lit test is a threshold on the coupling, so the outer logistic never runs
    assert calls["dynamics.sigmoid.outer"] == 0
