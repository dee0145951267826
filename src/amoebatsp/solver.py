"""Single solution-search trials: iterate steps until a tour appears."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import AmoebaState, StepDiagnostics, VariantConfig, step
from .instance import MAP_MEAN, ParamSet, TspInstance, decode_solution, route_length

DEFAULT_MAX_ITERS = 3000


@dataclass(eq=False)
class TrialResult:
    """Outcome of one trial, equal only to itself; tour and route length only on success."""

    iterations: int
    tour: tuple[int, ...] | None = None
    r_calc: float | None = None
    final_x: np.ndarray | None = None

    @property
    def success(self) -> bool:
        return self.tour is not None

    @property
    def ratio(self) -> float | None:
        """Route length over MAP_MEAN * n, the mean random-tour length."""
        return None if self.tour is None else self.r_calc / (MAP_MEAN * len(self.tour))


def run_trial(inst: TspInstance, params: ParamSet, cfg: VariantConfig, seed: int,
              max_iters: int = DEFAULT_MAX_ITERS,
              trace: list[StepDiagnostics] | None = None) -> TrialResult:
    """Run one seeded search and report the first valid tour, if any.

    Every lane starts at cfg.init_level, by default initial_level(inst.n).
    Refuses to run with an uncalibrated nu (constraint penalties must
    dominate any two-edge path cost). Termination is checked after every
    full step; each step appends its StepDiagnostics row to a trace list.
    Deterministic for fixed inputs.
    """
    if not params.is_calibrated(inst):
        raise ValueError("nu is not calibrated for this map; use ParamSet.for_instance")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    rng = np.random.default_rng(seed)
    state = AmoebaState.initial(inst.n, level=cfg.init_level)
    for _ in range(max_iters):
        state = step(state, inst, params, cfg, rng, trace)
        tour = decode_solution(state.x).tour
        if tour is not None:
            return TrialResult(state.t, tour, route_length(tour, inst), state.x)
    return TrialResult(max_iters, final_x=state.x)
