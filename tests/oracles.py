"""Reference implementations the tests compare the program against.

cost_weight is the literal Hopfield-Tank weight of one pair of lanes, the
definition that instance.coupling_field vectorises; coupling_field_roll is
that field in its first vectorised form, which the program's must match bit
for bit; cost_function is the quadratic assignment cost built on the field;
brute_force_optimum is the exhaustive shortest tour of a small map.
"""

import itertools
import math

import numpy as np

from amoebatsp import instance
from amoebatsp.instance import ParamSet, TspInstance, coupling_field, route_length

BRUTE_FORCE_MAX_N = 10


def cost_weight(v: int, k: int, u: int, l: int, params: ParamSet, inst: TspInstance) -> float:
    """Coupling weight between lanes (v, k) and (u, l); all indices 0-based.

    Same city at two steps costs LAM; two cities at one step costs MU;
    consecutive steps (cyclically, including the closing edge) cost
    nu * distance; everything else is free. LAM and MU are read from the
    instance module at call time, so patching them there reaches both this
    oracle and coupling_field.
    """
    n = inst.n
    for idx in (v, k, u, l):
        if not 0 <= idx < n:
            raise IndexError(f"lane index {idx} out of range for n={n}")
    if v == u and k != l:
        return -instance.LAM
    if v != u and k == l:
        return -instance.MU
    if v != u and (abs(k - l) == 1 or (k == n - 1 and l == 0) or (k == 0 and l == n - 1)):
        return -params.nu * float(inst.dist[v, u])
    return 0.0


def coupling_field_roll(y: np.ndarray, params: ParamSet, inst: TspInstance) -> np.ndarray:
    """coupling_field with the cyclically adjacent steps summed by two
    np.rolls, the form that the column gather in the package replaced."""
    row_sums = y.sum(axis=1, keepdims=True)
    col_sums = y.sum(axis=0, keepdims=True)
    adjacent = np.roll(y, 1, axis=1) + np.roll(y, -1, axis=1)
    return -(instance.LAM * (row_sums - y)
             + instance.MU * (col_sums - y)
             + params.nu * (inst.dist @ adjacent))


def cost_function(x_bin: np.ndarray, params: ParamSet, inst: TspInstance) -> float:
    """Quadratic assignment cost -(1/2) y . coupling_field(y): for a binary
    state, minus half the summed weights over pairs of active lanes."""
    y = np.asarray(x_bin, dtype=float)
    return -0.5 * float((y * coupling_field(y, params, inst)).sum())


def brute_force_optimum(inst: TspInstance) -> tuple[tuple[int, ...], float]:
    """Exhaustively shortest tour; refused above n=10.

    City 0 is fixed as the start and reversed duplicates are skipped, so
    (n-1)!/2 candidates are scanned. Ties resolve to the lexicographically
    first tour.
    """
    if inst.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refused for n={inst.n} > {BRUTE_FORCE_MAX_N}")
    best_tour = None
    best_len = math.inf
    for rest in itertools.permutations(range(1, inst.n)):
        if rest[0] > rest[-1]:
            continue
        tour = (0,) + rest
        length = route_length(tour, inst)
        if length < best_len:
            best_len = length
            best_tour = tour
    return best_tour, best_len
