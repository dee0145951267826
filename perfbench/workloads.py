"""The benchmark workloads: seeded inputs, one timed pass, output checks.

Serial workloads draw every map and trial seed from the workload seed and
hand only the resulting ``TspInstance``, ``ParamSet``, variant and seed to
``solver.run_trial``. The batch workload passes the workload seed to
``harness.run_batch`` as ``global_seed``. A workload's trial count is
``--seconds`` times a fixed rate, so one set of arguments always runs the
same trials; the rates were chosen so that a run at the first benchmarked
commit takes about ``--seconds`` on a 2-core x86-64 machine.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
from dataclasses import dataclass, field
from time import perf_counter
from unittest import mock

import numpy as np

import tracing
from amoebatsp import harness, instance, solver
from amoebatsp.solver import DEFAULT_MAX_ITERS


@dataclass(frozen=True)
class Workload:
    """City count, the presets trials cycle through, and the run size."""

    n: int
    presets: tuple[str, ...]
    trials_per_second: float
    workers: int = 1  # above 1, trials go through harness.run_batch

    def trial_count(self, seconds: int) -> int:
        """A whole number of rounds through the presets."""
        k = len(self.presets)
        return k * max(1, round(seconds * self.trials_per_second / k))


WORKLOADS = {
    "n20-ablation": Workload(20, ("original", "a2", "b4", "c1", "c2", "c3"), 3.3),
    "n100-improved": Workload(100, ("improved",), 1.3),
    "n10-batch": Workload(10, ("improved",), 38.0, workers=2),
}


@dataclass
class Inputs:
    """Everything a pass needs; ``trials`` is empty for the batch workload."""

    workload: Workload
    seed: int
    count: int
    trials: list[tuple[str, object, instance.ParamSet, instance.TspInstance, int]]


@dataclass
class Pass:
    """One run over the inputs: results in trial order, plus what was seen."""

    results: list  # TrialResult, or None where the trial raised
    insts: list
    wall_s: float
    peak_rss_kb: int
    trial_s: list[float]  # wall time of each trial's run_trial call
    errors: dict[int, str] = field(default_factory=dict)
    spans: list = field(default_factory=list)  # (spans, trial) blocks for tracing.merge


def make_inputs(workload: Workload, seed: int, seconds: int) -> Inputs:
    """Generate the seeded maps, calibrated parameters and trial seeds."""
    count = workload.trial_count(seconds)
    trials = []
    if workload.workers == 1:
        seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=(count, 2))
        for i in range(count):
            name = workload.presets[i % len(workload.presets)]
            inst = instance.generate_map(workload.n, int(seeds[i, 0]))
            params = instance.ParamSet.for_instance(inst)
            trials.append((name, harness.preset(name), params, inst, int(seeds[i, 1])))
    return Inputs(workload, seed, count, trials)


def run_pass(inputs: Inputs, rec: tracing.Recorder | None = None) -> Pass:
    """Run every trial once; with ``rec``, trial spans go to the recorder."""
    if inputs.workload.workers == 1:
        return _serial_pass(inputs, rec)
    return _batch_pass(inputs, rec)


def _serial_pass(inputs, rec):
    run = solver.run_trial if rec is None else rec.wrap(solver.run_trial, "solver.run_trial")
    results, trial_s, errors = [], [], {}
    start = perf_counter()
    for i, (_, cfg, params, inst, trial_seed) in enumerate(inputs.trials):
        if rec is not None:
            rec.trial_id = i
        trial_start = perf_counter()
        try:
            results.append(run(inst, params, cfg, trial_seed))
        except Exception as exc:  # a raising trial is counted as failed, not fatal
            results.append(None)
            errors[i] = f"raised {exc!r}"
        trial_s.append(perf_counter() - trial_start)
    wall = perf_counter() - start
    spans = [(rec.drain(), None)] if rec is not None else []
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return Pass(results, [t[3] for t in inputs.trials], wall, peak, trial_s, errors, spans)


def _shipping(run_trial, rec):
    """Wrap the pool's trial call so each result carries its map, the
    worker's peak memory and, when tracing, the worker's spans back to
    the parent."""

    def shipped(inst, *args, **kwargs):
        start = perf_counter()
        result = run_trial(inst, *args, **kwargs)
        result.bench_trial_s = perf_counter() - start
        result.bench_inst = inst
        result.bench_peak = (os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if rec is not None:
            result.bench_spans = rec.drain()
        return result

    return shipped


def _batch_pass(inputs, rec):
    w = inputs.workload
    if rec is not None:
        rec.drain()  # forked workers must not inherit spans of the parent
    errors = {}
    with mock.patch.object(harness, "run_trial", _shipping(harness.run_trial, rec)):
        start = perf_counter()
        try:
            stats = harness.run_batch(w.n, inputs.count, harness.preset(w.presets[0]),
                                      global_seed=inputs.seed, workers=w.workers,
                                      keep_trials=True)
            results = stats.per_trial
        except Exception as exc:  # the whole batch is lost: every trial failed
            results = [None] * inputs.count
            errors = {i: f"batch raised {exc!r}" for i in range(inputs.count)}
        wall = perf_counter() - start
    worker_peaks = {}
    for r in results:
        if r is not None:
            pid, kb = r.bench_peak
            worker_peaks[pid] = max(kb, worker_peaks.get(pid, 0))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + sum(worker_peaks.values())
    spans = [(vars(r).pop("bench_spans"), i) for i, r in enumerate(results)
             if r is not None and rec is not None]
    insts = [None if r is None else r.bench_inst for r in results]
    trial_s = [float("nan") if r is None else r.bench_trial_s for r in results]
    return Pass(results, insts, wall, peak, trial_s, errors, spans)


def check_trial(inst, r) -> str | None:
    """Why trial result ``r`` on map ``inst`` is wrong, or None if it is right."""
    n = inst.n
    if r.final_x is None or np.shape(r.final_x) != (n, n):
        return "final state missing"
    decoded = instance.decode_solution(r.final_x).tour
    if not r.success:
        if r.tour is not None or r.ratio is not None or decoded is not None:
            return "unsolved trial carries a tour"
        if r.iterations != DEFAULT_MAX_ITERS:
            return f"unsolved after {r.iterations} of {DEFAULT_MAX_ITERS} iterations"
        return None
    if r.tour is None or sorted(r.tour) != list(range(n)):
        return f"tour {r.tour} is not a permutation of range({n})"
    if decoded != tuple(r.tour):
        return "decoding the final state does not give the tour"
    if r.r_calc != instance.route_length(r.tour, inst):
        return f"r_calc {r.r_calc} != route length {instance.route_length(r.tour, inst)}"
    if r.ratio != r.r_calc / (100.0 * n):
        return f"ratio {r.ratio} != r_calc / (100 n)"
    if not 1 <= r.iterations <= DEFAULT_MAX_ITERS:
        return f"iterations {r.iterations} out of range"
    return None


def check_pass(p: Pass) -> dict[int, str]:
    """Errors by trial index: raised trials plus failed output checks."""
    errors = dict(p.errors)
    for i, (inst, r) in enumerate(zip(p.insts, p.results)):
        if r is not None:
            problem = check_trial(inst, r)
            if problem:
                errors[i] = problem
    return errors


def digest(results) -> str:
    """Hash of (index, success, iterations, tour) over all trials in order."""
    h = hashlib.sha256()
    for i, r in enumerate(results):
        h.update(repr((i, None) if r is None else (i, r.success, r.iterations, r.tour)).encode())
    return h.hexdigest()


def _standard_error(std, k):
    return None if std is None else std / math.sqrt(k)


def quality(workload_name: str, inputs: Inputs, p: Pass) -> dict:
    """The paper's outputs over the trials that ran, with standard errors."""
    ran = [r for r in p.results if r is not None]
    stats = harness.aggregate(ran, workload_name, inputs.workload.n)
    solved = sum(r.success for r in ran)
    steps = sum(r.iterations for r in ran)
    return {
        "trials": len(ran),
        "solved": solved,
        "steps": steps,
        "solved_steps": sum(r.iterations for r in ran if r.success),
        "solve_rate": stats.success_rate,
        "mean_iterations": stats.avg_iterations,
        "mean_iterations_se": _standard_error(stats.std_iterations, solved),
        "mean_ratio": stats.avg_ratio,
        "mean_ratio_se": _standard_error(stats.std_ratio, solved),
    }


def layer_metrics(inputs: Inputs, t: dict, q: dict, traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced pass, by metric name: (value, unit).

    ``t`` is ``tracing.layer_times`` of the pass's spans.
    """
    steps = t["dynamics.step"][0]

    def per_step(name, which):
        return 1e6 * t[name][which] / steps

    def per_call(name, scale):
        calls, total, _ = t[name]
        return scale * total / calls

    inclusive, own = 1, 2
    return {
        "dynamics.compute_L.self_us_per_step": (per_step("dynamics.compute_L", own), "us"),
        "dynamics.sigmoid.inner_us_per_step": (per_step("dynamics.sigmoid.inner", inclusive), "us"),
        "dynamics.sigmoid.outer_us_per_step": (per_step("dynamics.sigmoid.outer", inclusive), "us"),
        "dynamics.compute_O.us_per_step": (per_step("dynamics.compute_O", inclusive), "us"),
        "dynamics.compute_O.self_us_per_step": (per_step("dynamics.compute_O", own), "us"),
        "dynamics.compute_I_and_S.us_per_step": (per_step("dynamics.compute_I_and_S", inclusive), "us"),
        "dynamics.sample_fluctuations.us_per_step":
            (per_step("dynamics.sample_fluctuations", inclusive), "us"),
        "dynamics.step.self_us_per_step": (per_step("dynamics.step", own), "us"),
        "instance.decode_solution.us_per_call": (per_call("instance.decode_solution", 1e6), "us"),
        "solver.run_trial.self_us_per_step": (per_step("solver.run_trial", own), "us"),
        "instance.generate_map.ms_per_call": (per_call("instance.generate_map", 1e3), "ms"),
        "instance.for_instance.ms_per_call": (per_call("instance.for_instance", 1e3), "ms"),
        "harness.worker_busy_share":
            (t["solver.run_trial"][1] / (inputs.workload.workers * traced_wall), "share"),
        "solver.steps": (steps, "count"),
        "solver.useful_step_share": (q["solved_steps"] / q["steps"], "share"),
        "bench.trace_overhead": (traced_wall / untraced_wall, "ratio"),
    }
