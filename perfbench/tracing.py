"""Outside-in span tracing of the amoebatsp layers.

Wrappers are installed at the module attribute each caller looks up, so the
package itself is unchanged:

- ``solver.step`` and ``solver.decode_solution``, looked up by ``run_trial``;
- ``dynamics.compute_L``, ``compute_O``, ``compute_I_and_S`` and
  ``sample_fluctuations``, looked up by ``step``;
- ``dynamics.sigmoid``, looked up by ``compute_L`` and ``compute_O``; the
  inner, outer and contraction calls are told apart by their
  ``SigmoidParams`` argument;
- ``harness.run_trial`` and ``harness.generate_map``, looked up by the batch
  job in each pool worker;
- ``instance.generate_map``, looked up by the benchmark's serial set-up;
- the ``ParamSet.for_instance`` class attribute, used by both.

A wrapper only reads the clock and forwards the call, so a traced run
returns exactly what an untraced run returns. Spans are kept in memory as
(name, start, end, parent, trial) columns and written once the run ends.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter
from unittest import mock

import numpy as np

from amoebatsp import dynamics, harness, instance, solver

SPAN_NAMES = (
    "solver.run_trial",
    "dynamics.step",
    "dynamics.compute_L",
    "dynamics.sigmoid.inner",
    "dynamics.sigmoid.outer",
    "dynamics.sigmoid.contraction",
    "dynamics.sigmoid.other",
    "dynamics.compute_O",
    "dynamics.compute_I_and_S",
    "dynamics.sample_fluctuations",
    "instance.decode_solution",
    "instance.generate_map",
    "instance.for_instance",
)
_NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
_COLUMNS = ("name", "start", "end", "parent", "trial")


class Recorder:
    """In-memory span store for one process.

    ``trial_id`` is stamped on every span opened while it is set; spans
    drained from pool workers carry -1 and get their trial index from the
    caller.
    """

    def __init__(self):
        self.trial_id = -1
        self._reset()

    def _reset(self):
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self._open = [-1]

    def wrap(self, fn, name, by_first_arg=None):
        """Return ``fn`` recording one span per call.

        ``by_first_arg`` maps a call's first argument to a span name and
        falls back to ``name`` for any other value.
        """
        default = _NAME_ID[name]
        by_arg = {key: _NAME_ID[value] for key, value in (by_first_arg or {}).items()}
        rec = self

        def traced(*args, **kwargs):
            i = len(rec.start)
            rec.name.append(by_arg.get(args[0], default) if by_arg else default)
            rec.parent.append(rec._open[-1])
            rec.trial.append(rec.trial_id)
            rec.end.append(0.0)
            rec._open.append(i)
            rec.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[i] = perf_counter()
                rec._open.pop()

        return traced

    def drain(self) -> dict[str, np.ndarray]:
        """Hand over every span recorded so far and start empty."""
        spans = {column: np.array(getattr(self, column)) for column in _COLUMNS}
        self._reset()
        return spans


def merge(blocks) -> dict[str, np.ndarray]:
    """Concatenate drained span blocks, re-basing parent indices.

    ``blocks`` holds (spans, trial) pairs; a trial that is not None
    replaces the trial column of its block.
    """
    parts = {column: [] for column in _COLUMNS}
    offset = 0
    for spans, trial in blocks:
        size = len(spans["start"])
        for column in ("name", "start", "end"):
            parts[column].append(spans[column])
        parts["parent"].append(np.where(spans["parent"] >= 0, spans["parent"] + offset, -1))
        parts["trial"].append(spans["trial"] if trial is None else np.full(size, trial))
        offset += size
    return {column: np.concatenate(parts[column]) if parts[column] else np.empty(0)
            for column in _COLUMNS}


def layer_times(spans) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, inclusive seconds, self seconds).

    Self time is a span's duration minus the time its child spans cover.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"].astype(np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - covered
    names = spans["name"]
    out = {}
    for i, name in enumerate(SPAN_NAMES):
        mask = names == i
        out[name] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()))
    return out


def write_spans(spans, path) -> None:
    """Write merged spans as an .npz file with the name table alongside."""
    np.savez(path, names=np.array(SPAN_NAMES), **spans)


@contextlib.contextmanager
def installed(rec: Recorder):
    """Route every traced layer through ``rec`` for the duration of the block."""
    sigmoid_names = {
        dynamics.INNER_SIGMOID: "dynamics.sigmoid.inner",
        dynamics.OUTER_SIGMOID: "dynamics.sigmoid.outer",
        dynamics.CONTRACTION_SIGMOID: "dynamics.sigmoid.contraction",
    }
    targets = [
        (solver, "step", "dynamics.step"),
        (solver, "decode_solution", "instance.decode_solution"),
        (dynamics, "compute_L", "dynamics.compute_L"),
        (dynamics, "compute_O", "dynamics.compute_O"),
        (dynamics, "compute_I_and_S", "dynamics.compute_I_and_S"),
        (dynamics, "sample_fluctuations", "dynamics.sample_fluctuations"),
        (instance, "generate_map", "instance.generate_map"),
        (harness, "generate_map", "instance.generate_map"),
        (harness, "run_trial", "solver.run_trial"),
    ]
    with contextlib.ExitStack() as stack:
        for owner, attr, name in targets:
            stack.enter_context(
                mock.patch.object(owner, attr, rec.wrap(getattr(owner, attr), name)))
        stack.enter_context(mock.patch.object(
            dynamics, "sigmoid",
            rec.wrap(dynamics.sigmoid, "dynamics.sigmoid.other", by_first_arg=sigmoid_names)))
        stack.enter_context(mock.patch.object(
            instance.ParamSet, "for_instance",
            staticmethod(rec.wrap(instance.ParamSet.for_instance, "instance.for_instance"))))
        yield
