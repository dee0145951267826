"""Amoeba-inspired TSP dynamics: a configurable stochastic lane model,
single-trial solver, and ablation/benchmark harness."""

from .dynamics import (
    DEFAULT_INIT_LEVEL,
    AmoebaState,
    ElementA,
    ElementB,
    ElementC,
    SigmoidParams,
    StepDiagnostics,
    VariantConfig,
    compute_I_and_S,
    compute_L,
    compute_O,
    initial_level,
    sample_fluctuations,
    sigmoid,
    step,
)
from .harness import (
    AggregateStats,
    ScalingFit,
    aggregate,
    fit_scaling,
    preset,
    run_batch,
)
from .instance import (
    DecodedSolution,
    GenMeta,
    ParamSet,
    TspInstance,
    compute_nu,
    coupling_field,
    decode_solution,
    generate_map,
    load_map,
    route_length,
    save_map,
)
from .solver import DEFAULT_MAX_ITERS, TrialResult, run_trial

__version__ = "0.1.0"

__all__ = [
    "AggregateStats", "AmoebaState", "DecodedSolution", "DEFAULT_INIT_LEVEL",
    "DEFAULT_MAX_ITERS", "ElementA", "ElementB", "ElementC", "GenMeta", "ParamSet",
    "ScalingFit", "SigmoidParams", "StepDiagnostics", "TrialResult", "TspInstance",
    "VariantConfig", "aggregate", "compute_I_and_S", "compute_L", "compute_O", "compute_nu",
    "coupling_field", "decode_solution", "fit_scaling", "generate_map", "initial_level",
    "load_map", "preset", "route_length", "run_batch", "run_trial", "sample_fluctuations",
    "save_map", "sigmoid", "step",
]
