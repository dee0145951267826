"""TSP instances, the lane-coupling cost tensor, and route utilities.

A problem is an n-city map with a symmetric positive distance matrix. Maps
are drawn with normally distributed pair distances (mean 100, sd 17 by
default), which makes 100*n a good estimate of the mean random-tour length.
The distance-cost weight nu is calibrated per map so that constraint
penalties always dominate any two-edge path cost.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Penalty weights of revisiting a city (LAM) and of visiting two cities at
# one step (MU): the fixed Hopfield-Tank constants of the model.
LAM = MU = 0.5


class InvalidInstanceError(ValueError):
    """Raised for maps that violate the instance contract."""


class ConfigurationError(ValueError):
    """Raised when parameters are unusable, e.g. an uncalibrated nu."""


@dataclass(frozen=True)
class GenMeta:
    """Generation record kept with a map so files are self-describing."""

    seed: int
    mean: float
    sd: float


@dataclass(frozen=True)
class TspInstance:
    """City count plus symmetric distance matrix; immutable once built."""

    n: int
    dist: np.ndarray
    gen_meta: GenMeta | None = None

    def __post_init__(self):
        if self.n < 3:
            raise InvalidInstanceError(f"need at least 3 cities, got n={self.n}")
        d = np.array(self.dist, dtype=float)
        if d.shape != (self.n, self.n):
            raise InvalidInstanceError(f"distance matrix shape {d.shape} != ({self.n}, {self.n})")
        if not np.isfinite(d).all():
            raise InvalidInstanceError("distances must be finite")
        if not np.array_equal(d, d.T):
            raise InvalidInstanceError("distance matrix must be symmetric")
        if np.diagonal(d).any():
            raise InvalidInstanceError("diagonal must be zero")
        off = d[~np.eye(self.n, dtype=bool)]
        if not (off > 0).all():
            raise InvalidInstanceError("off-diagonal distances must be positive")
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)


@dataclass(frozen=True)
class ParamSet:
    """The one per-map model weight: nu, which weighs distance cost against
    the fixed penalties LAM and MU."""

    nu: float

    @classmethod
    def for_instance(cls, inst: TspInstance) -> "ParamSet":
        """nu calibrated for the given map."""
        return cls(nu=compute_nu(inst))

    def is_calibrated(self, inst: TspInstance) -> bool:
        """True iff nu * (largest two-edge path) <= min(LAM, MU)."""
        return self.nu > 0 and self.nu * max_two_edge_path(inst) <= min(LAM, MU)


@dataclass(frozen=True)
class DecodedSolution:
    """The tour read from a state, or None when the state holds none."""

    tour: tuple[int, ...] | None


def generate_map(n: int, seed: int, mean: float = 100.0, sd: float = 17.0) -> TspInstance:
    """Draw a symmetric random map; nonpositive draws are resampled.

    Deterministic for a fixed (n, seed, mean, sd). Only the upper triangle
    is drawn, then mirrored.
    """
    if n < 3:
        raise InvalidInstanceError(f"need at least 3 cities, got n={n}")
    if sd < 0:
        raise InvalidInstanceError("sd must be nonnegative")
    if sd == 0 and mean <= 0:
        raise InvalidInstanceError("degenerate map needs a positive mean")
    rng = np.random.default_rng(seed)
    m = n * (n - 1) // 2
    draws = rng.normal(mean, sd, m)
    for _ in range(1000):
        bad = draws <= 0
        if not bad.any():
            break
        draws[bad] = rng.normal(mean, sd, int(bad.sum()))
    else:
        raise InvalidInstanceError("could not draw positive distances; check mean/sd")
    dist = np.zeros((n, n))
    dist[np.triu_indices(n, 1)] = draws
    dist = dist + dist.T
    return TspInstance(n=n, dist=dist, gen_meta=GenMeta(seed=seed, mean=mean, sd=sd))


def max_two_edge_path(inst: TspInstance) -> float:
    """Largest d(a,b) + d(b,c) over ordered triples of distinct cities.

    Equivalent to taking, per middle city b, the two largest entries of its
    row: with n >= 3 and positive off-diagonal distances, the zero diagonal
    never ranks among them. A sum beyond the float range is inf, silently.
    """
    with np.errstate(over="ignore"):
        return float(np.partition(inst.dist, -2, axis=1)[:, -2:].sum(axis=1).max())


def round_down_sigfigs(x: float, figs: int = 3) -> float:
    """Round a positive finite value down to the given significant figures.

    Ratios within 1e-9 of an integer count as that integer, so values that
    are exact up to float representation (0.0025 -> 250e-5) survive intact.
    """
    exp = math.floor(math.log10(x))
    scale = 10.0 ** (exp - figs + 1)
    ratio = x / scale
    q = math.floor(ratio)
    if (q + 1) - ratio < 1e-9:
        q += 1
    return q * scale


def compute_nu(inst: TspInstance) -> float:
    """Distance-cost weight: min(LAM, MU) over the worst two-edge path.

    Rounded down to 3 significant figures. Where that rounding lands above
    the exact quotient (250 * 1e-9 is 2.5000000000000004e-07), nu steps
    down by ulps until the calibration inequality holds. Distances whose
    quotient is zero or infinite cannot be calibrated and are refused.
    """
    limit, path = min(LAM, MU), max_two_edge_path(inst)
    if not 0 < limit / path < math.inf:
        raise InvalidInstanceError(
            f"distances are too small or too large to calibrate nu (longest two-edge path {path})")
    nu = round_down_sigfigs(limit / path, 3)
    while nu * path > limit:
        nu = float(np.nextafter(nu, 0.0))
    return nu


def coupling_field(y: np.ndarray, params: ParamSet, inst: TspInstance) -> np.ndarray:
    """Per lane (v, k), the sum over (u, l) of cost_weight(v, k, u, l) * y[u, l],
    with cost_weight the literal per-pair oracle in tests/oracles.py.

    Row and column conflicts exclude the lane itself; the distance term
    couples cyclically adjacent steps, and the zero diagonal of dist drops
    its same-city pairs, which the row term already counts.
    """
    row_sums = y.sum(axis=1, keepdims=True)
    col_sums = y.sum(axis=0, keepdims=True)
    adjacent = np.roll(y, 1, axis=1) + np.roll(y, -1, axis=1)
    return -(LAM * (row_sums - y)
             + MU * (col_sums - y)
             + params.nu * (inst.dist @ adjacent))


def decode_solution(x: np.ndarray) -> DecodedSolution:
    """Threshold branch lengths at 0.99 and extract the tour if valid.

    The boundary value 0.99 itself counts as occupied. The tour is present
    only when every row and every column holds exactly one occupied lane;
    a state without exactly n occupied lanes is rejected before the row
    and column sums.
    """
    x_bin = (np.asarray(x) >= 0.99).astype(np.int8)
    if (x_bin.sum() == x_bin.shape[0] and (x_bin.sum(axis=0) == 1).all()
            and (x_bin.sum(axis=1) == 1).all()):
        return DecodedSolution(tour=tuple(x_bin.argmax(axis=0).tolist()))
    return DecodedSolution(tour=None)


def route_length(tour, inst: TspInstance) -> float:
    """Tour length including the closing edge back to the start."""
    tour = tuple(int(c) for c in tour)
    if sorted(tour) != list(range(inst.n)):
        raise ValueError("tour must be a permutation of all cities")
    return float(sum(inst.dist[tour[k], tour[(k + 1) % inst.n]] for k in range(inst.n)))


def save_map(inst: TspInstance, path) -> None:
    """Write a map as JSON: n, row-major flat distances, generation record."""
    gen = None
    if inst.gen_meta is not None:
        gen = {"seed": inst.gen_meta.seed, "mean": inst.gen_meta.mean, "sd": inst.gen_meta.sd}
    payload = {"n": inst.n, "dist": [float(x) for x in inst.dist.ravel()], "gen": gen}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _json_int(value, key: str) -> int:
    """value when it is a JSON integer; a float, string or bool raises TypeError
    instead of being truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _json_number(value, key: str) -> float:
    """value as a float when it is a JSON number; a string or bool raises
    TypeError instead of being coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def load_map(path) -> TspInstance:
    """Read a map written by save_map."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        n = _json_int(data["n"], "n")
        dist = data["dist"]
        flat = [_json_number(d, "each dist entry") for d in dist] if isinstance(dist, list) else []
        gen = data.get("gen")
        meta = (GenMeta(seed=_json_int(gen["seed"], "gen.seed"),
                        mean=_json_number(gen["mean"], "gen.mean"),
                        sd=_json_number(gen["sd"], "gen.sd")) if gen else None)
    except KeyError as exc:
        raise InvalidInstanceError(f"malformed map file {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed map file {path}: {exc}") from exc
    if n < 3:
        raise InvalidInstanceError(f"need at least 3 cities, got n={n}")
    if len(flat) != n * n:
        raise InvalidInstanceError(f"dist must be a flat list of {n * n} entries")
    return TspInstance(n=n, dist=np.reshape(flat, (n, n)), gen_meta=meta)
