"""One synchronous update of the amoeba branch state.

Each of the n^2 lanes holds a branch length. Per step: an illumination
value per lane is computed from the coupled cost field of the whole state;
illuminated lanes contract, non-illuminated lanes share an equal elongation
fed by the hub leak, the contracted mass, and any released stock; every
lane then receives an independent fluctuation. When every lane is
illuminated the inflow is stocked instead and released whole as soon as a
lane turns off.

All the ablation switches (fluctuation distribution, elongation scaling
and denominator, step-function replacements of the sigmoids) live in
VariantConfig so any reference variant is one configuration away.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .instance import ParamSet, TspInstance, coupling_field

# Uniform start level at n = INIT_LEVEL_N cities; initial_level(n) carries
# it to other sizes. The update rules leave a zero-start state permanently
# dark (the elongation drip is delta_in/n^2 per step and fluctuations alone
# cannot reach the sigmoid active zone within any reasonable budget), so
# runs start part of the way up. At n=20 this level sits 0.052 below the
# uniform-state illumination onset; it was calibrated against the n=20
# ablation rows.
DEFAULT_INIT_LEVEL = 0.435
INIT_LEVEL_N = 20


class ElementA(enum.Enum):
    """Fluctuation distribution."""

    UNIFORM = "uniform"
    ZERO = "zero"
    NORMAL = "normal"


class ElementB(enum.Enum):
    """Elongation bookkeeping rule."""

    ORIGINAL = "original"
    SCALE_I = "scale_i"
    ZERO_DELTA_IN = "zero_delta_in"
    DENOM_N = "denom_n"


class ElementC(enum.Enum):
    """Independent replacements of the three sigmoids."""

    O_CONST = "o_const"
    L_OUTER_STEP = "l_outer_step"
    L_INNER_STEP = "l_inner_step"


@dataclass(frozen=True)
class VariantConfig:
    """Orthogonal switches selecting original or modified behavior."""

    element_a: ElementA = ElementA.UNIFORM
    element_b: ElementB = ElementB.ORIGINAL
    i_scale: float = 1.0
    element_c: frozenset = field(default_factory=frozenset)
    normal_sd: float = 0.003

    def __post_init__(self):
        if self.i_scale <= 0:
            raise ValueError("i_scale must be positive")
        if self.normal_sd <= 0:
            raise ValueError("normal_sd must be positive")
        object.__setattr__(self, "element_c", frozenset(self.element_c))
        for flag in self.element_c:
            if not isinstance(flag, ElementC):
                raise ValueError(f"unknown element_c flag: {flag!r}")


@dataclass
class AmoebaState:
    """Branch lengths, stock, and iteration counter for one run."""

    x: np.ndarray
    stock: float = 0.0
    t: int = 0

    @classmethod
    def initial(cls, n: int, level: float | None = None) -> "AmoebaState":
        """Every lane at one level, by default initial_level(n)."""
        if level is None:
            level = initial_level(n)
        return cls(x=np.full((n, n), float(level)), stock=0.0, t=0)


@dataclass
class StepDiagnostics:
    """Per-step observables, convertible to one trace CSV row."""

    t: int
    l_off: int
    total_o: float
    total_xi: float
    delta_sum_x: float
    sum_x: float
    stock: float


@dataclass(frozen=True)
class SigmoidParams:
    """Gain and threshold of a logistic response."""

    gamma: float
    theta: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


OUTER_SIGMOID = SigmoidParams(gamma=1000.0, theta=-0.5)
INNER_SIGMOID = SigmoidParams(gamma=35.0, theta=0.6)
CONTRACTION_SIGMOID = SigmoidParams(gamma=20.0, theta=0.6)


def initial_level(n: int) -> float:
    """Uniform start level for n cities: the summed inner response of all
    n^2 lanes is the same at every n.

    Below threshold the inner sigmoid is close to exp(gamma * (x - theta))
    (within about 1% for n >= 10), so holding n^2 * sigmoid(x0) fixed moves
    the level by -(2 / gamma) ln(n / 20) from DEFAULT_INIT_LEVEL, which it
    returns exactly at n = 20.
    """
    return DEFAULT_INIT_LEVEL - 2.0 * math.log(n / INIT_LEVEL_N) / INNER_SIGMOID.gamma


def _logistic(z):
    """Numerically stable 1 / (1 + exp(-z))."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def sigmoid(p: SigmoidParams, x):
    """Logistic response with gain p.gamma around threshold p.theta."""
    return _logistic(p.gamma * (np.asarray(x, dtype=float) - p.theta))


def _unit_step(x):
    """Heaviside with the convention step(0) = 1."""
    return (np.asarray(x, dtype=float) >= 0.0).astype(float)


def compute_L(x: np.ndarray, params: ParamSet, inst: TspInstance,
              cfg: VariantConfig) -> np.ndarray:
    """Illumination values for every lane from the current branch lengths.

    The inner response of each branch is summed through the lane-coupling
    weights by coupling_field (row and column conflicts plus cyclically
    adjacent distance costs), and the outer response of that field is
    inverted: a lane is illuminated when its accumulated cost pressure
    exceeds the outer threshold. L_INNER_STEP and L_OUTER_STEP harden the
    respective sigmoids into unit steps.
    """
    if ElementC.L_INNER_STEP in cfg.element_c:
        inner = _unit_step(x - INNER_SIGMOID.theta)
    else:
        inner = sigmoid(INNER_SIGMOID, x)
    pressure = coupling_field(inner, params, inst)
    if ElementC.L_OUTER_STEP in cfg.element_c:
        outer = _unit_step(pressure - OUTER_SIGMOID.theta)
    else:
        outer = sigmoid(OUTER_SIGMOID, pressure)
    return 1.0 - outer


def illuminated_mask(l_values: np.ndarray) -> np.ndarray:
    """Strictly above 0.5 is illuminated; the boundary elongates."""
    return l_values > 0.5


def compute_O(x: np.ndarray, l_values: np.ndarray, cfg: VariantConfig,
              delta_out: float) -> np.ndarray:
    """Per-lane contraction: active only on illuminated lanes.

    Original form scales 2*delta_out by the contraction sigmoid of the
    current length; O_CONST replaces that factor with 1.
    """
    if ElementC.O_CONST in cfg.element_c:
        gate = 1.0
    else:
        gate = sigmoid(CONTRACTION_SIGMOID, x)
    return np.where(illuminated_mask(l_values), 2.0 * delta_out * gate, 0.0)


def compute_I_and_S(o_values: np.ndarray, s_prev: float, l_off: int, n: int,
                    cfg: VariantConfig, delta_in: float) -> tuple[float, float]:
    """Equal per-lane elongation and next stock.

    While any lane is off, the hub leak plus all contracted mass plus the
    previous stock is shared equally (denominator L_off, or n under
    DENOM_N) and the stock empties. With every lane lit, the same inflow
    is stocked instead. ZERO_DELTA_IN removes the hub leak from both.
    """
    delta_in_eff = 0.0 if cfg.element_b is ElementB.ZERO_DELTA_IN else delta_in
    inflow = delta_in_eff + float(o_values.sum()) + s_prev
    if l_off > 0:
        denom = n if cfg.element_b is ElementB.DENOM_N else l_off
        return inflow / denom, 0.0
    return 0.0, inflow


def sample_fluctuations(cfg: VariantConfig, n: int, rng: np.random.Generator,
                        delta: float) -> np.ndarray:
    """One fresh fluctuation per lane: uniform, zero, or normal."""
    if cfg.element_a is ElementA.ZERO:
        return np.zeros((n, n))
    if cfg.element_a is ElementA.NORMAL:
        return rng.normal(0.0, cfg.normal_sd, (n, n))
    return rng.uniform(-delta, delta, (n, n))


def step(state: AmoebaState, inst: TspInstance, params: ParamSet,
         cfg: VariantConfig, rng: np.random.Generator) -> tuple[AmoebaState, StepDiagnostics]:
    """Advance the state one synchronous iteration.

    Everything is computed from the pre-step state: illumination, then
    contraction, then the shared elongation (consuming the previous
    stock), then fluctuations; illuminated lanes lose their contraction
    while the rest gain the elongation, optionally rescaled by i_scale
    under SCALE_I. Branch lengths are not clipped.
    """
    n = inst.n
    l_values = compute_L(state.x, params, inst, cfg)
    illum = illuminated_mask(l_values)
    l_off = int(n * n - illum.sum())
    o_values = compute_O(state.x, l_values, cfg, params.delta_out)
    i_value, s_next = compute_I_and_S(o_values, state.stock, l_off, n, cfg,
                                      params.delta_in)
    applied_i = cfg.i_scale * i_value if cfg.element_b is ElementB.SCALE_I else i_value
    xi = sample_fluctuations(cfg, n, rng, params.delta)
    x_next = np.where(illum, state.x - o_values, state.x + applied_i) + xi
    diag = StepDiagnostics(
        t=state.t + 1,
        l_off=l_off,
        total_o=float(o_values.sum()),
        total_xi=float(xi.sum()),
        delta_sum_x=float(x_next.sum() - state.x.sum()),
        sum_x=float(x_next.sum()),
        stock=s_next,
    )
    return AmoebaState(x=x_next, stock=s_next, t=state.t + 1), diag


def conservation_residual(diag: StepDiagnostics, delta_in: float) -> float:
    """Mass-budget probe: net branch growth minus fluctuations minus the leak.

    Zero (to rounding) whenever the step ran under the original elongation
    rule with some lane off and an empty stock; under modified rules it
    measures how far the step strays from that budget.
    """
    return diag.delta_sum_x - diag.total_xi - delta_in
