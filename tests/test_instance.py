"""Instance generation, cost tensor, calibration, and route utilities."""

import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from amoebatsp import instance
from amoebatsp.instance import (
    GenMeta,
    ParamSet,
    TspInstance,
    coupling_field,
    decode_solution,
    generate_map,
    load_map,
    max_two_edge_path,
    round_down_sigfigs,
    route_length,
    save_map,
)
from oracles import brute_force_optimum, cost_function, cost_weight, coupling_field_roll


def uniform_instance(n, d=100.0):
    dist = np.full((n, n), d)
    np.fill_diagonal(dist, 0.0)
    return TspInstance(dist)


class TestGenerateMap:
    def test_deterministic_per_seed(self):
        a = generate_map(10, seed=42)
        b = generate_map(10, seed=42)
        assert np.array_equal(a.dist, b.dist)

    def test_different_seeds_differ(self):
        assert not np.array_equal(generate_map(10, 1).dist, generate_map(10, 2).dist)

    def test_symmetric_positive(self):
        inst = generate_map(20, seed=7)
        assert np.array_equal(inst.dist, inst.dist.T)
        assert not np.diagonal(inst.dist).any()
        off = inst.dist[~np.eye(20, dtype=bool)]
        assert (off > 0).all()

    def test_n20_sample_mean_near_100(self):
        inst = generate_map(20, seed=3, mean=100.0, sd=17.0)
        pairs = inst.dist[np.triu_indices(20, 1)]
        assert pairs.size == 190
        assert abs(pairs.mean() - 100.0) < 5.0

    def test_zero_sd_degenerate(self):
        inst = generate_map(3, seed=9, mean=100.0, sd=0.0)
        off = inst.dist[~np.eye(3, dtype=bool)]
        assert np.array_equal(off, np.full(6, 100.0))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 3 cities"):
            generate_map(2, seed=0)

    @pytest.mark.parametrize("mean, sd, message", [
        (float("nan"), 17.0, "mean must be finite, got nan"),
        (float("inf"), 17.0, "mean must be finite, got inf"),
        (100.0, float("nan"), "sd must be finite and nonnegative, got nan"),
        (100.0, float("inf"), "sd must be finite and nonnegative, got inf"),
        (100.0, -1.0, "sd must be finite and nonnegative, got -1.0"),
    ], ids=["mean-nan", "mean-inf", "sd-nan", "sd-inf", "sd-negative"])
    def test_nonfinite_parameters_named(self, mean, sd, message):
        # refused before any draw, naming the parameter, not later by
        # TspInstance as a non-finite distance
        with mock.patch("numpy.random.default_rng", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError) as exc:
                generate_map(4, seed=1, mean=mean, sd=sd)
        assert str(exc.value) == message

    def test_many_random_maps_valid(self):
        for seed in range(30):
            inst = generate_map(5, seed=seed, mean=5.0, sd=10.0)  # resampling exercised
            off = inst.dist[~np.eye(5, dtype=bool)]
            assert (off > 0).all()


class TestComputeNu:
    # what TspInstance and ParamSet.for_instance say when a map's scale is out of reach
    REFUSALS = ("distances must be finite", "off-diagonal distances must be positive",
                "distances are too small or too large to calibrate nu")

    def test_uniform_three_city(self):
        assert ParamSet.for_instance(uniform_instance(3)).nu == pytest.approx(0.0025)

    def test_matches_triple_enumeration(self):
        maps = [generate_map(n, seed=5) for n in range(3, 9)] + [generate_map(6, seed=0, sd=0.0)]
        for inst in maps:
            worst = max(
                inst.dist[v1, v2] + inst.dist[v2, v3]
                for v1, v2, v3 in itertools.permutations(range(inst.n), 3)
            )
            assert max_two_edge_path(inst) == worst
            assert ParamSet.for_instance(inst).nu == round_down_sigfigs(0.5 / worst)

    def test_default_map_magnitude(self):
        nu = ParamSet.for_instance(generate_map(20, seed=1)).nu
        assert 1e-3 <= nu <= 2e-3

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 6), k=st.integers(-323, 308), data=st.data())
    def test_calibration_inequality_holds(self, n, k, data):
        # maps at every decimal scale a float reaches, from subnormal to
        # overflowing: each is calibrated or refused by TspInstance or
        # ParamSet.for_instance, never by a stray error such as a math domain error
        upper = data.draw(arrays(float, n * (n - 1) // 2,
                                 elements=st.floats(1.0, 10.0, exclude_max=True)))
        dist = np.zeros((n, n))
        dist[np.triu_indices(n, 1)] = upper * 10.0 ** k
        try:
            inst = TspInstance(dist + dist.T)
            p = ParamSet.for_instance(inst)
        except ValueError as exc:
            assert str(exc).startswith(self.REFUSALS), exc
            return
        # checked directly as well as through is_calibrated, which the
        # calibration loop itself asks
        assert p.nu * max_two_edge_path(inst) <= 0.5
        assert p.is_calibrated(inst)

    def test_rounding_close_to_exact(self):
        for seed in range(10):
            inst = generate_map(7, seed=seed)
            exact = 0.5 / max_two_edge_path(inst)
            nu = ParamSet.for_instance(inst).nu
            assert nu <= exact
            assert nu >= 0.99 * exact  # 3 significant figures


class TestCostWeight:
    @pytest.fixture()
    def setup(self):
        inst = generate_map(8, seed=2)
        return inst, ParamSet.for_instance(inst)

    def test_same_city_conflict(self, setup):
        inst, p = setup
        assert cost_weight(3, 1, 3, 5, p, inst) == -0.5

    def test_distant_steps_free(self, setup):
        inst, p = setup
        assert cost_weight(0, 2, 4, 4, p, inst) == 0.0

    def test_wraparound_edge(self, setup):
        inst, p = setup
        n = inst.n
        assert cost_weight(1, n - 1, 4, 0, p, inst) == pytest.approx(-p.nu * inst.dist[1, 4])
        assert cost_weight(1, 0, 4, n - 1, p, inst) == pytest.approx(-p.nu * inst.dist[1, 4])

    def test_same_step_conflict(self, setup):
        inst, p = setup
        assert cost_weight(0, 4, 5, 4, p, inst) == -0.5

    def test_self_pair_free(self, setup):
        inst, p = setup
        assert cost_weight(2, 2, 2, 2, p, inst) == 0.0

    def test_out_of_range_rejected(self, setup):
        inst, p = setup
        with pytest.raises(IndexError):
            cost_weight(0, 0, inst.n, 0, p, inst)


class TestCouplingField:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 7), seed=st.integers(0, 2**32 - 1),
           lam=st.floats(0.1, 2.0), mu=st.floats(0.1, 2.0), data=st.data())
    def test_matches_cost_weight_sum(self, n, seed, lam, mu, data):
        # n = 3 and 4 are the sizes where every other step is adjacent; lam
        # and mu are drawn apart so swapped row and column terms would show
        assume(lam != mu)
        inst = generate_map(n, seed)
        y = data.draw(arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
        with mock.patch.object(instance, "LAM", lam), mock.patch.object(instance, "MU", mu):
            p = ParamSet.for_instance(inst)
            field = coupling_field(y, p, inst)
            for v, k in np.ndindex(n, n):
                expected = sum(cost_weight(v, k, u, l, p, inst) * y[u, l]
                               for u, l in np.ndindex(n, n))
                assert field[v, k] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_bit_identical_to_roll_form(self, n, seed, data):
        # the gather must add the same operands in the same order as the two
        # rolls, so every bit agrees, signed zeros and overflow included
        inst = generate_map(n, seed)
        p = ParamSet.for_instance(inst)
        y = data.draw(arrays(float, (n, n),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
        with np.errstate(over="ignore", invalid="ignore"):
            field, reference = coupling_field(y, p, inst), coupling_field_roll(y, p, inst)
        assert field.tobytes() == reference.tobytes()


class TestCostFunction:
    def test_empty_support_is_zero(self):
        inst = generate_map(5, seed=1)
        p = ParamSet.for_instance(inst)
        assert cost_function(np.zeros((5, 5)), p, inst) == 0.0

    def test_tour_cost_is_nu_times_route_length(self):
        # exhaustive over all permutations at n=5 and n=6
        for n, seed in ((5, 11), (6, 12)):
            inst = generate_map(n, seed=seed)
            p = ParamSet.for_instance(inst)
            for tour in itertools.permutations(range(n)):
                x = np.zeros((n, n))
                for k, city in enumerate(tour):
                    x[city, k] = 1
                expected = p.nu * route_length(tour, inst)
                assert cost_function(x, p, inst) == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           tour=st.integers(3, 8).flatmap(lambda n: st.permutations(range(n))))
    def test_tour_cost_property(self, seed, tour):
        n = len(tour)
        inst = generate_map(n, seed)
        p = ParamSet.for_instance(inst)
        x = np.zeros((n, n))
        x[list(tour), np.arange(n)] = 1.0
        expected = p.nu * route_length(tour, inst)
        assert cost_function(x, p, inst) == pytest.approx(expected, rel=1e-12)

    def test_double_row_entry_costs_lambda(self):
        inst = generate_map(6, seed=3)
        p = ParamSet.for_instance(inst)
        x = np.zeros((6, 6))
        x[2, 1] = x[2, 4] = 1
        assert cost_function(x, p, inst) == pytest.approx(0.5)

    def test_full_assignments_violating_rows_cost_more_than_best_tour(self):
        # among states with exactly n occupied lanes, any row violation is
        # costlier than the best valid tour
        inst = generate_map(4, seed=11)
        p = ParamSet.for_instance(inst)
        _, best_len = brute_force_optimum(inst)
        best_cost = p.nu * best_len
        for cells in itertools.combinations(range(16), 4):
            x = np.zeros(16)
            x[list(cells)] = 1
            x = x.reshape(4, 4)
            if (x.sum(axis=1) == 1).all():
                continue
            assert cost_function(x, p, inst) > best_cost


class TestDecodeSolution:
    def test_identity_matrix(self):
        sol = decode_solution(np.eye(6))
        assert sol.tour == tuple(range(6))

    def test_below_threshold_everywhere(self):
        for x in (np.full((5, 5), 0.98), np.zeros((5, 5))):
            assert decode_solution(x).tour is None

    def test_boundary_value_counts(self):
        x = np.zeros((4, 4))
        perm = (2, 0, 3, 1)
        for k, city in enumerate(perm):
            x[city, k] = 0.99
        assert decode_solution(x).tour == perm

    def test_roundtrip_tour_to_matrix_and_back(self):
        for tour in itertools.permutations(range(5)):
            x = np.zeros((5, 5))
            for k, city in enumerate(tour):
                x[city, k] = 1.0
            assert decode_solution(x).tour == tour

    def test_extra_entry_blocks_tour(self):
        x = np.eye(5)
        x[0, 3] = 1.0
        assert decode_solution(x).tour is None

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 7), data=st.data())
    def test_tour_iff_permutation_matrix(self, n, data):
        # a permutation or any step-to-city map, maybe transposed, with a few
        # lanes toggled: states that fail only the row or only the column
        # check are drawn as well as tours
        cities = (st.permutations(range(n))
                  | st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        occupied = np.zeros((n, n), dtype=bool)
        occupied[data.draw(cities), range(n)] = True
        if data.draw(st.booleans()):
            occupied = occupied.T.copy()
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for v, k in data.draw(st.lists(cells, max_size=2)):
            occupied[v, k] ^= True
        high = data.draw(arrays(float, (n, n), elements=st.floats(0.99, 2.0)))
        low = data.draw(arrays(float, (n, n), elements=st.floats(-1.0, 0.99, exclude_max=True)))
        sol = decode_solution(np.where(occupied, high, low))
        rows, cols = np.nonzero(occupied)
        is_permutation = len(set(rows)) == len(set(cols)) == len(rows) == n
        assert (sol.tour is not None) == is_permutation
        if is_permutation:
            assert all(occupied[city, k] for k, city in enumerate(sol.tour))


class TestRouteLength:
    def test_uniform_three_city(self):
        assert route_length((0, 1, 2), uniform_instance(3)) == pytest.approx(300.0)

    def test_uniform_any_n(self):
        inst = uniform_instance(7, d=42.0)
        assert route_length(tuple(range(7)), inst) == pytest.approx(7 * 42.0)

    def test_matches_naive_resummation(self):
        inst = generate_map(6, seed=8)
        rng = np.random.default_rng(0)
        for _ in range(20):
            tour = tuple(rng.permutation(6))
            naive = 0.0
            for k in range(6):
                naive += inst.dist[tour[k], tour[(k + 1) % 6]]
            assert route_length(tour, inst) == pytest.approx(naive, rel=1e-12)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            route_length((0, 1, 1), uniform_instance(3))


class TestBruteForce:
    def test_three_city_single_candidate(self):
        inst = generate_map(3, seed=4)
        tour, length = brute_force_optimum(inst)
        assert length == pytest.approx(inst.dist[0, 1] + inst.dist[1, 2] + inst.dist[2, 0])

    def test_planted_short_cycle(self):
        dist = np.full((4, 4), 100.0)
        np.fill_diagonal(dist, 0.0)
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
            dist[a, b] = dist[b, a] = 1.0
        inst = TspInstance(dist)
        tour, length = brute_force_optimum(inst)
        assert length == pytest.approx(4.0)
        assert tour in ((0, 1, 2, 3), (0, 3, 2, 1))

    def test_never_beaten_by_random_tours(self):
        inst = generate_map(7, seed=6)
        _, best = brute_force_optimum(inst)
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert best <= route_length(tuple(rng.permutation(7)), inst) + 1e-9

    def test_large_n_refused(self):
        with pytest.raises(ValueError):
            brute_force_optimum(uniform_instance(11))


class TestMapIO:
    def test_roundtrip_identical(self, tmp_path):
        inst = generate_map(9, seed=13)
        path = tmp_path / "m.json"
        save_map(inst, path)
        loaded = load_map(path)
        assert loaded.n == inst.n
        assert np.array_equal(loaded.dist, inst.dist)
        assert loaded.gen_meta == inst.gen_meta

    def test_rewrite_byte_identical(self, tmp_path):
        inst = generate_map(5, seed=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_map(inst, p1)
        save_map(inst, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_handbuilt_map_without_meta(self, tmp_path):
        inst = uniform_instance(4)
        path = tmp_path / "m.json"
        save_map(inst, path)
        assert load_map(path).gen_meta is None

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        # n = -3 squares to the length of dist, so only the city count can reject it
        for text, message in (
                ('{"n": 4, "dist": [1, 2, 3]}', "flat list"),
                ('{"n": 3, "dist": 5}', "flat list"),
                ('{"n": 3, "dist": [0, 1, 1, 1, 0, 1, 1, 1, 0], "gen": {"seed": 1, "sd": 17}}',
                 "missing key 'mean'"),
                ('{"n": -3, "dist": [0, 1, 1, 1, 0, 1, 1, 1, 0]}', "need at least 3 cities"),
                # a count or seed that is not a JSON integer is not truncated
                ('{"n": 3.5, "dist": [0, 1, 1, 1, 0, 1, 1, 1, 0]}', "n must be an integer"),
                ('{"n": "3", "dist": [0, 1, 1, 1, 0, 1, 1, 1, 0]}', "n must be an integer"),
                ('{"n": 3, "dist": [0, 1, 1, 1, 0, 1, 1, 1, 0], '
                 '"gen": {"seed": 2.9, "mean": 100, "sd": 17}}', "gen.seed must be an integer"),
                # distances and generation parameters must be JSON numbers, not strings or bools
                ('{"n": 3, "dist": ["0", "1", "2", "1", "0", "3", "2", "3", "0"]}',
                 "each dist entry must be a number"),
                ('{"n": 3, "dist": [0, true, 2, true, 0, 3, 2, 3, 0]}',
                 "each dist entry must be a number"),
                ('{"n": 3, "dist": [0, 1, 1, 1, 0, 1, 1, 1, 0], '
                 '"gen": {"seed": 2, "mean": "100", "sd": 17}}', "gen.mean must be a number"),
                ('{"n": 3, "dist": [0, 1, 1, 1, 0, 1, 1, 1, 0], '
                 '"gen": {"seed": 2, "mean": 100, "sd": true}}', "gen.sd must be a number")):
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                load_map(path)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 9), data=st.data(),
           meta=st.none() | st.builds(GenMeta, seed=st.integers(0, 2**63 - 1),
                                      mean=st.floats(-1e3, 1e3), sd=st.floats(0.0, 1e3)))
    def test_save_load_roundtrip_property(self, n, data, meta):
        upper = data.draw(arrays(float, n * (n - 1) // 2, elements=st.floats(1e-6, 1e9)))
        dist = np.zeros((n, n))
        dist[np.triu_indices(n, 1)] = upper
        inst = TspInstance(dist + dist.T, meta)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            save_map(inst, path)
            loaded = load_map(path)
        assert loaded.n == n
        assert np.array_equal(loaded.dist, inst.dist)
        assert loaded.gen_meta == meta


class TestInstanceValidation:
    def test_asymmetric_rejected(self):
        dist = np.full((4, 4), 10.0)
        np.fill_diagonal(dist, 0.0)
        dist[0, 1] = 99.0
        with pytest.raises(ValueError, match="symmetric"):
            TspInstance(dist)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_distance_rejected(self, bad):
        dist = np.full((4, 4), 10.0)
        np.fill_diagonal(dist, 0.0)
        dist[0, 1] = dist[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            TspInstance(dist)

    def test_nonpositive_offdiagonal_rejected(self):
        dist = np.full((4, 4), 10.0)
        np.fill_diagonal(dist, 0.0)
        dist[0, 1] = dist[1, 0] = 0.0
        with pytest.raises(ValueError, match="off-diagonal distances must be positive"):
            TspInstance(dist)

    @pytest.mark.parametrize("dist", [np.zeros((3, 4)), np.zeros(9), np.zeros((2, 2, 2))],
                             ids=["3x4", "1-d", "3-d"])
    def test_non_square_matrix_rejected(self, dist):
        with pytest.raises(ValueError) as exc:
            TspInstance(dist)
        assert str(exc.value) == f"distance matrix must be square, got shape {dist.shape}"

    def test_city_count_is_the_side_of_the_matrix(self):
        assert uniform_instance(5).n == 5
        with pytest.raises(TypeError):
            TspInstance(n=5, dist=uniform_instance(5).dist)

    def test_instance_immutable(self):
        inst = generate_map(5, seed=1)
        with pytest.raises(ValueError):
            inst.dist[0, 1] = 5.0

    def test_compared_and_hashed_by_identity(self):
        # two draws of one map are distinct objects; neither == nor hash
        # looks inside the distance matrix, so a map can key a dict
        a, b = generate_map(4, 1), generate_map(4, 1)
        assert (a == b) is False and a != b
        assert a == a and hash(a) == hash(a)
        assert {a} == {a} and len({a, b}) == 2
