"""One synchronous update of the amoeba branch state.

Each of the n^2 lanes holds a branch length. Per step: whether each lane
is illuminated is decided from the coupled cost field of the whole state;
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

# Fixed step scales: the bound of the uniform fluctuations, the contraction
# unit and the constant hub leak per step.
DELTA = 0.003
DELTA_OUT = 0.001
DELTA_IN = 0.001

# Uniform start level at n = INIT_LEVEL_N cities; initial_level(n) carries
# it to other sizes. The update rules leave a zero-start state permanently
# dark (the elongation drip is DELTA_IN/n^2 per step and fluctuations alone
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


# Fluctuation spread of NORMAL when a config sets none.
DEFAULT_NORMAL_SD = 0.003


@dataclass(frozen=True)
class VariantConfig:
    """Orthogonal switches selecting original or modified behavior.

    i_scale acts only under SCALE_I and normal_sd only under NORMAL, so
    either one away from its default needs its element.
    """

    element_a: ElementA = ElementA.UNIFORM
    element_b: ElementB = ElementB.ORIGINAL
    i_scale: float = 1.0
    element_c: frozenset = field(default_factory=frozenset)
    normal_sd: float = DEFAULT_NORMAL_SD

    def __post_init__(self):
        if not (math.isfinite(self.i_scale) and self.i_scale > 0):
            raise ValueError("i_scale must be positive and finite")
        if not (math.isfinite(self.normal_sd) and self.normal_sd > 0):
            raise ValueError("normal_sd must be positive and finite")
        if self.i_scale != 1.0 and self.element_b is not ElementB.SCALE_I:
            raise ValueError("i_scale needs element_b scale_i")
        if self.normal_sd != DEFAULT_NORMAL_SD and self.element_a is not ElementA.NORMAL:
            raise ValueError("normal_sd needs element_a normal")
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
    """Per-step observables; the fields, in order, are one trace CSV row.

    residual is the mass-budget probe: net branch growth minus the summed
    fluctuations minus the hub leak DELTA_IN. It is zero (to rounding)
    whenever the step ran under the original elongation rule with some lane
    off and an empty stock; under modified rules it measures how far the
    step strays from that budget.
    """

    t: int
    l_off: int
    sum_x: float
    stock: float
    total_o: float
    residual: float


@dataclass(frozen=True)
class SigmoidParams:
    """Gain and threshold of a logistic response."""

    gamma: float
    theta: float


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


def sigmoid(p: SigmoidParams, x):
    """Logistic response 1 / (1 + exp(-z)) to z = p.gamma * (x - p.theta),
    evaluated as 0.5 + 0.5 tanh(z / 2).

    tanh saturates at +-1 instead of overflowing, so one expression covers
    every z with no branch, and the response at theta is exactly 0.5.
    """
    return 0.5 + 0.5 * np.tanh(0.5 * p.gamma * (np.asarray(x, dtype=float) - p.theta))


def compute_L(x: np.ndarray, params: ParamSet, inst: TspInstance,
              cfg: VariantConfig) -> np.ndarray:
    """Boolean illumination mask of every lane from the current branch lengths.

    The inner response of each branch is summed through the lane-coupling
    weights by coupling_field (row and column conflicts plus cyclically
    adjacent distance costs). A lane is lit when its illumination, one minus
    the outer logistic of that pressure, is strictly above 0.5. A logistic
    crosses 0.5 exactly at its threshold, so the lit test is
    pressure < OUTER_SIGMOID.theta and the outer sigmoid never needs to be
    evaluated; hardening it into a step (L_OUTER_STEP) gives the same mask.
    L_INNER_STEP hardens the inner sigmoid into a unit step that is 1 from
    its threshold up.
    """
    if ElementC.L_INNER_STEP in cfg.element_c:
        inner = (x >= INNER_SIGMOID.theta).astype(float)
    else:
        inner = sigmoid(INNER_SIGMOID, x)
    return coupling_field(inner, params, inst) < OUTER_SIGMOID.theta


def compute_O(x: np.ndarray, illum: np.ndarray, cfg: VariantConfig) -> np.ndarray:
    """Per-lane contraction: active only on the lanes the boolean mask
    illum marks as illuminated.

    Original form scales 2*DELTA_OUT by the contraction sigmoid of the
    current length; O_CONST replaces that factor with 1.
    """
    gate = 1.0 if ElementC.O_CONST in cfg.element_c else sigmoid(CONTRACTION_SIGMOID, x)
    return np.where(illum, 2.0 * DELTA_OUT * gate, 0.0)


def compute_I_and_S(total_o: float, s_prev: float, l_off: int, n: int,
                    cfg: VariantConfig) -> tuple[float, float]:
    """Elongation of each dark lane and the next stock (element B).

    The inflow is the hub leak plus the total contraction total_o plus the
    previous stock; ZERO_DELTA_IN drops the hub leak. While any lane is
    off, the inflow is shared equally (denominator L_off, or n under
    DENOM_N), each share scaled by i_scale (1 outside SCALE_I, which
    VariantConfig enforces), and the stock empties. With every lane lit,
    the whole unscaled inflow is stocked.
    """
    delta_in = 0.0 if cfg.element_b is ElementB.ZERO_DELTA_IN else DELTA_IN
    inflow = delta_in + total_o + s_prev
    if l_off == 0:
        return 0.0, inflow
    share = inflow / (n if cfg.element_b is ElementB.DENOM_N else l_off)
    return cfg.i_scale * share, 0.0


def sample_fluctuations(cfg: VariantConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """One fresh fluctuation per lane: uniform, zero, or normal."""
    if cfg.element_a is ElementA.ZERO:
        return np.zeros((n, n))
    if cfg.element_a is ElementA.NORMAL:
        return rng.normal(0.0, cfg.normal_sd, (n, n))
    return rng.uniform(-DELTA, DELTA, (n, n))


def step(state: AmoebaState, inst: TspInstance, params: ParamSet,
         cfg: VariantConfig, rng: np.random.Generator,
         trace: list[StepDiagnostics] | None = None) -> AmoebaState:
    """Advance the state one synchronous iteration.

    Everything is computed from the pre-step state: the illumination mask,
    then contraction, then the elongation of each dark lane and the next
    stock from compute_I_and_S (consuming the previous stock), then
    fluctuations; illuminated lanes lose their contraction while the rest
    gain the elongation. Branch lengths are not clipped. When trace is a
    list, the step's StepDiagnostics row is appended to it.
    """
    n = inst.n
    illum = compute_L(state.x, params, inst, cfg)
    l_off = int(n * n - illum.sum())
    o_values = compute_O(state.x, illum, cfg)
    total_o = float(o_values.sum())
    i_value, s_next = compute_I_and_S(total_o, state.stock, l_off, n, cfg)
    xi = sample_fluctuations(cfg, n, rng)
    x_next = np.where(illum, state.x - o_values, state.x + i_value) + xi
    if trace is not None:
        sum_x = float(x_next.sum())
        residual = sum_x - float(state.x.sum()) - float(xi.sum()) - DELTA_IN
        trace.append(StepDiagnostics(state.t + 1, l_off, sum_x, s_next, total_o, residual))
    return AmoebaState(x=x_next, stock=s_next, t=state.t + 1)
