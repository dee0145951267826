"""Update-step mechanics: illumination, contraction, elongation, stock,
fluctuations, and the conservation probe."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amoebatsp.dynamics import (
    CONTRACTION_SIGMOID,
    DEFAULT_INIT_LEVEL,
    DELTA_IN,
    INNER_SIGMOID,
    OUTER_SIGMOID,
    AmoebaState,
    ElementA,
    ElementB,
    ElementC,
    SigmoidParams,
    VariantConfig,
    compute_I_and_S,
    compute_L,
    compute_O,
    initial_level,
    sample_fluctuations,
    sigmoid,
    step,
)
from amoebatsp.harness import preset
from amoebatsp.instance import ParamSet, TspInstance, generate_map
from amoebatsp.solver import run_trial
from oracles import cost_weight

ORIGINAL = VariantConfig()
NOISELESS = VariantConfig(element_a=ElementA.ZERO)


def traced_step(state, inst, params, cfg, rng):
    """One step and the diagnostics row it records."""
    rows = []
    new = step(state, inst, params, cfg, rng, rows)
    (diag,) = rows
    return new, diag


def literal_illumination(x, params, inst, inner_step=False, outer_step=False):
    """Quadruple-loop oracle for the illumination field."""
    n = inst.n
    if inner_step:
        inner = (x >= 0.6).astype(float)
    else:
        inner = 1.0 / (1.0 + np.exp(-35.0 * (x - 0.6)))
    out = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for v in range(n):
            for k in range(n):
                acc = 0.0
                for u in range(n):
                    for l in range(n):
                        acc += cost_weight(v, k, u, l, params, inst) * inner[u, l]
                if outer_step:
                    out[v, k] = 1.0 - (1.0 if acc >= -0.5 else 0.0)
                else:
                    out[v, k] = 1.0 - 1.0 / (1.0 + np.exp(-1000.0 * (acc + 0.5)))
    return out


def literal_logistic(p, x):
    """Reference logistic from exp(-|z|), one branch per sign of z."""
    z = p.gamma * (np.asarray(x, dtype=float) - p.theta)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def floats_near(theta, ulps):
    """Every float within `ulps` representable steps of theta."""
    base = np.array(theta).view(np.int64)
    return st.integers(-ulps, ulps).map(lambda k: float((base + k).view(np.float64)))


class TestSigmoid:
    def test_half_at_threshold(self):
        assert sigmoid(SigmoidParams(35, 0.6), 0.6) == pytest.approx(0.5)

    def test_deep_saturation(self):
        assert sigmoid(SigmoidParams(1000, -0.5), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_inversion(self):
        # gain 20: an offset of ln(3)/20 above threshold gives exactly 3/4
        x = 0.6 + np.log(3.0) / 20.0
        assert sigmoid(SigmoidParams(20, 0.6), x) == pytest.approx(0.75, rel=1e-12)

    def test_monotone(self):
        p = SigmoidParams(35, 0.6)
        xs = np.linspace(-2, 2, 101)
        ys = sigmoid(p, xs)
        assert (np.diff(ys) >= 0).all()
        active = np.linspace(0.3, 0.9, 61)
        assert (np.diff(sigmoid(p, active)) > 0).all()

    def test_extreme_arguments_stable(self):
        p = SigmoidParams(1000, -0.5)
        assert sigmoid(p, 1e6) == 1.0
        assert sigmoid(p, -1e6) == 0.0

    @pytest.mark.parametrize("p", [INNER_SIGMOID, OUTER_SIGMOID, CONTRACTION_SIGMOID])
    @settings(max_examples=300)
    @given(data=st.data())
    def test_tanh_form_matches_reference(self, p, data):
        # within two ulps of 1.0 of the exp(-|z|) form, exactly 0.5 at theta,
        # and monotone, over wide floats, +-inf and floats near theta
        arguments = st.one_of(floats_near(p.theta, 4000), st.floats(p.theta - 2.0, p.theta + 2.0),
                              st.floats(allow_nan=False))
        xs = np.sort(data.draw(st.lists(arguments, min_size=1, max_size=50)))
        with np.errstate(over="ignore"):
            got = sigmoid(p, xs)
            want = literal_logistic(p, xs)
        assert np.abs(got - want).max() <= 4.5e-16
        assert sigmoid(p, p.theta) == 0.5
        assert (np.diff(got) >= 0).all()


class TestVariantConfig:
    @pytest.mark.parametrize("kwargs,message", [
        ({"element_b": ElementB.SCALE_I, "i_scale": 0.0}, "i_scale must be positive"),
        ({"element_b": ElementB.SCALE_I, "i_scale": -0.9}, "i_scale must be positive"),
        ({"element_a": ElementA.NORMAL, "normal_sd": 0.0}, "normal_sd must be positive"),
        ({"element_a": ElementA.NORMAL, "normal_sd": -0.003}, "normal_sd must be positive"),
        ({"element_c": {"o_const"}}, "unknown element_c flag"),
        ({"element_c": {ElementC.O_CONST, ElementA.ZERO}}, "unknown element_c flag"),
        # a knob its element does not read would run the base model unchanged
        ({"i_scale": 0.5}, "i_scale needs element_b scale_i"),
        ({"element_b": ElementB.DENOM_N, "i_scale": 1.1}, "i_scale needs element_b scale_i"),
        ({"normal_sd": 0.5}, "normal_sd needs element_a normal"),
        ({"element_a": ElementA.ZERO, "normal_sd": 0.004}, "normal_sd needs element_a normal"),
        # a non-finite knob would run the whole budget without a tour
        ({"element_b": ElementB.SCALE_I, "i_scale": float("nan")}, "i_scale must be positive"),
        ({"element_b": ElementB.SCALE_I, "i_scale": float("inf")}, "i_scale must be positive"),
        ({"element_a": ElementA.NORMAL, "normal_sd": float("nan")},
         "normal_sd must be positive"),
        ({"element_a": ElementA.NORMAL, "normal_sd": float("inf")},
         "normal_sd must be positive"),
        # a name in place of its member would run the base model unchanged
        ({"element_a": "normal", "normal_sd": 0.005}, "unknown element_a: 'normal'"),
        ({"element_b": "scale_i", "i_scale": 0.9}, "unknown element_b: 'scale_i'"),
        # a non-finite start level can never reach a tour either
        ({"init_level": float("nan")}, "init_level must be finite"),
        ({"init_level": float("inf")}, "init_level must be finite"),
    ])
    def test_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            VariantConfig(**kwargs)

    def test_knobs_with_their_elements(self):
        cfg = VariantConfig(element_a=ElementA.NORMAL, element_b=ElementB.SCALE_I,
                            i_scale=0.5, normal_sd=0.5)
        assert (cfg.i_scale, cfg.normal_sd) == (0.5, 0.5)
        assert VariantConfig(element_c=[ElementC.O_CONST]).element_c == {ElementC.O_CONST}


class TestComputeL:
    @pytest.fixture()
    def setup(self):
        inst = generate_map(5, seed=21)
        return inst, ParamSet.for_instance(inst)

    def test_matches_literal_contraction(self, setup):
        inst, p = setup
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.3, 1.2, (5, 5))
        for inner_step in (False, True):
            for outer_step in (False, True):
                flags = set()
                if inner_step:
                    flags.add(ElementC.L_INNER_STEP)
                if outer_step:
                    flags.add(ElementC.L_OUTER_STEP)
                cfg = VariantConfig(element_c=frozenset(flags))
                want = literal_illumination(x, p, inst, inner_step, outer_step) > 0.5
                assert np.array_equal(compute_L(x, p, inst, cfg), want)

    def test_dark_at_zero_state(self, setup):
        inst, p = setup
        illum = compute_L(np.zeros((5, 5)), p, inst, ORIGINAL)
        assert illum.dtype == bool
        assert not illum.any()

    def test_inner_step_is_one_at_threshold(self, setup):
        # c3's unit step counts a lane exactly at theta as occupied; with
        # step(0) = 0 this state would have no pressure and stay all dark
        inst, p = setup
        cfg = VariantConfig(element_c=frozenset({ElementC.L_INNER_STEP}))
        assert compute_L(np.full((5, 5), INNER_SIGMOID.theta), p, inst, cfg).all()

    def test_tour_lanes_stay_dark_at_full_occupancy(self, setup):
        inst, p = setup
        x = np.zeros((5, 5))
        tour = (1, 3, 0, 4, 2)
        for k, city in enumerate(tour):
            x[city, k] = 1.0
        illum = compute_L(x, p, inst, ORIGINAL)
        for k, city in enumerate(tour):
            assert not illum[city, k]
        # every row conflict of an occupied lane is lit
        for k, city in enumerate(tour):
            for other_k in range(5):
                if other_k != k:
                    assert illum[city, other_k]

    def test_outer_step_gives_the_same_mask(self, setup):
        # the outer sigmoid's 0.5 cut is its threshold, so hardening it
        # into a step changes no lane
        inst, p = setup
        rng = np.random.default_rng(5)
        cfg_step = VariantConfig(element_c=frozenset({ElementC.L_OUTER_STEP}))
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, (5, 5))
            a = compute_L(x, p, inst, ORIGINAL)
            b = compute_L(x, p, inst, cfg_step)
            assert np.array_equal(a, b)

    @settings(max_examples=300)
    @given(st.one_of(
        # every float within 4000 ulps of the threshold, on both sides
        floats_near(OUTER_SIGMOID.theta, 4000),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([np.inf, -np.inf]),
    ))
    def test_outer_half_cut_is_its_threshold(self, pressure):
        with np.errstate(over="ignore"):
            lit = (1.0 - sigmoid(OUTER_SIGMOID, pressure)) > 0.5
        assert bool(lit) == (pressure < OUTER_SIGMOID.theta)

    def test_monotone_in_every_branch(self, setup):
        # growing any lane only lowers the coupling field of every lane, so a
        # lit lane stays lit
        inst, p = setup
        rng = np.random.default_rng(7)
        x = rng.uniform(0.3, 0.6, (5, 5))
        base = compute_L(x, p, inst, ORIGINAL)
        assert base.any() and not base.all()
        for _ in range(10):
            u, l = rng.integers(0, 5, 2)
            bumped = x.copy()
            bumped[u, l] += 0.1
            assert compute_L(bumped, p, inst, ORIGINAL)[base].all()


class TestComputeO:
    def test_sigmoid_gate_at_threshold(self):
        x = np.full((2, 2), 0.6)
        lit = np.ones((2, 2), dtype=bool)  # all illuminated
        o = compute_O(x, lit, ORIGINAL)
        assert np.allclose(o, 0.001)

    def test_constant_contraction_variant(self):
        x = np.full((2, 2), -3.7)
        lit = np.ones((2, 2), dtype=bool)
        cfg = VariantConfig(element_c=frozenset({ElementC.O_CONST}))
        assert np.allclose(compute_O(x, lit, cfg), 0.002)

    def test_dark_lanes_do_not_contract(self):
        x = np.full((3, 3), 5.0)
        dark = np.zeros((3, 3), dtype=bool)
        assert not compute_O(x, dark, ORIGINAL).any()


class TestComputeIAndS:
    def test_all_dark_field(self):
        i_value, s_next = compute_I_and_S(0.0, 0.0, 400, 20, ORIGINAL)
        assert i_value == pytest.approx(0.001 / 400)
        assert s_next == 0.0

    def test_denominator_n_variant(self):
        cfg = VariantConfig(element_b=ElementB.DENOM_N)
        i_value, _ = compute_I_and_S(0.0, 0.0, 400, 20, cfg)
        assert i_value == pytest.approx(0.001 / 20)

    def test_everything_lit_stocks_inflow(self):
        i_value, s_next = compute_I_and_S(0.004, 0.0, 0, 2, ORIGINAL)
        assert i_value == 0.0
        assert s_next == pytest.approx(0.005)

    def test_stock_released_whole(self):
        i_value, s_next = compute_I_and_S(0.0, 0.12, 3, 2, ORIGINAL)
        assert i_value == pytest.approx(0.121 / 3)
        assert s_next == 0.0

    def test_zero_hub_leak_variant(self):
        cfg = VariantConfig(element_b=ElementB.ZERO_DELTA_IN)
        i_value, s_next = compute_I_and_S(0.0, 0.0, 0, 2, cfg)
        assert s_next == 0.0  # nothing stocked without the leak

    def test_scaled_share_variant(self):
        # b1 scales each dark lane's share; the stock of an all-lit step is not
        cfg = preset("b1")
        i_value, s_next = compute_I_and_S(0.004, 0.0, 3, 2, cfg)
        assert i_value == pytest.approx(0.9 * 0.005 / 3, rel=1e-15)
        assert s_next == 0.0
        i_value, s_next = compute_I_and_S(0.004, 0.0, 0, 2, cfg)
        assert i_value == 0.0
        assert s_next == pytest.approx(0.005, rel=1e-15)


class TestFluctuations:
    def test_zero_variant(self):
        rng = np.random.default_rng(0)
        xi = sample_fluctuations(VariantConfig(element_a=ElementA.ZERO), 6, rng)
        assert not xi.any()

    def test_uniform_bounds_and_mean(self):
        rng = np.random.default_rng(1)
        draws = np.concatenate([
            sample_fluctuations(ORIGINAL, 100, rng).ravel() for _ in range(100)
        ])
        assert draws.size == 10**6
        assert (np.abs(draws) <= 0.003).all()
        assert abs(draws.mean()) < 3e-5

    def test_normal_sd(self):
        rng = np.random.default_rng(2)
        cfg = VariantConfig(element_a=ElementA.NORMAL)
        draws = np.concatenate([
            sample_fluctuations(cfg, 100, rng).ravel() for _ in range(100)
        ])
        assert abs(draws.std() - 0.003) < 0.003 * 0.02
        assert np.abs(draws).max() > 0.003  # untruncated tails


class TestStep:
    @pytest.fixture()
    def setup(self):
        inst = generate_map(10, seed=31)
        return inst, ParamSet.for_instance(inst)

    def test_dark_lane_gains_exactly_i(self, setup):
        inst, p = setup
        state = AmoebaState.initial(10, level=0.0)  # everything dark
        rng = np.random.default_rng(0)
        new, diag = traced_step(state, inst, p, NOISELESS, rng)
        assert diag.l_off == 100
        expected = DELTA_IN / 100
        assert np.allclose(new.x - state.x, expected, atol=1e-15)

    def test_noiseless_step_conserves_hub_leak(self, setup):
        # with no fluctuations, some lane dark, and empty stock, total branch
        # mass grows by exactly the hub leak
        inst, p = setup
        state = AmoebaState.initial(10, level=0.435)
        rng = np.random.default_rng(0)
        for _ in range(50):
            prev_stock = state.stock
            state, diag = traced_step(state, inst, p, NOISELESS, rng)
            if diag.l_off > 0 and prev_stock == 0.0:
                assert diag.residual == pytest.approx(0.0, abs=1e-12)

    def test_all_lit_stocks_and_contracts(self, setup):
        inst, p = setup
        state = AmoebaState.initial(10, level=0.7)  # saturated field: all lit
        rng = np.random.default_rng(0)
        new, diag = traced_step(state, inst, p, NOISELESS, rng)
        assert diag.l_off == 0
        assert diag.residual == pytest.approx(-diag.total_o - DELTA_IN, abs=1e-12)
        assert new.stock == pytest.approx(DELTA_IN + diag.total_o, abs=1e-15)

    def test_stock_window_mass_ledger(self, setup):
        # m all-lit steps followed by a release: the window's branch growth
        # equals (m+1) hub leaks
        inst, p = setup
        state = AmoebaState.initial(10, level=0.7)
        rng = np.random.default_rng(0)
        start_mass = state.x.sum()
        m = 0
        for _ in range(5000):
            state, diag = traced_step(state, inst, p, NOISELESS, rng)
            if diag.l_off > 0:
                break
            m += 1
        else:
            pytest.fail("field never released the stock")
        assert m >= 1
        assert state.x.sum() - start_mass == pytest.approx((m + 1) * DELTA_IN, abs=1e-9)
        assert state.stock == 0.0

    def test_zero_leak_variant_residual(self, setup):
        inst, p = setup
        cfg = VariantConfig(element_a=ElementA.ZERO, element_b=ElementB.ZERO_DELTA_IN)
        state = AmoebaState.initial(10, level=0.435)
        rng = np.random.default_rng(0)
        state, diag = traced_step(state, inst, p, cfg, rng)
        assert diag.l_off > 0
        assert diag.residual == pytest.approx(-0.001, abs=1e-12)

    def test_scaled_elongation_residual(self, setup):
        # two saturated lanes in one row force a mixed illumination pattern
        inst, p = setup
        cfg = VariantConfig(element_a=ElementA.ZERO, element_b=ElementB.SCALE_I, i_scale=1.1)
        x = np.full((10, 10), 0.2)
        x[0, 0] = x[0, 5] = 1.0
        state = AmoebaState(x=x, stock=0.0, t=0)
        new, diag = traced_step(state, inst, p, cfg, np.random.default_rng(0))
        assert 0 < diag.l_off < 100
        assert diag.total_o > 0
        expected = 0.1 * (DELTA_IN + diag.total_o)
        assert diag.residual == pytest.approx(expected, abs=1e-12)
        assert expected > 0

    def test_same_inputs_same_outputs(self, setup):
        inst, p = setup
        state = AmoebaState.initial(10, level=0.435)
        a = step(state, inst, p, ORIGINAL, np.random.default_rng(99))
        b = step(state, inst, p, ORIGINAL, np.random.default_rng(99))
        assert np.array_equal(a.x, b.x)
        assert a.stock == b.stock and a.t == b.t

    def test_noiseless_replay_identical(self, setup):
        inst, p = setup

        def run_100():
            state = AmoebaState.initial(10, level=0.435)
            rng = np.random.default_rng(0)
            for _ in range(100):
                state = step(state, inst, p, NOISELESS, rng)
            return state

        a, b = run_100(), run_100()
        assert np.array_equal(a.x, b.x)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(3, 12), map_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**32 - 1), element_a=st.sampled_from(ElementA),
           element_c=st.frozensets(st.sampled_from(ElementC)), low=st.floats(0.1, 0.4))
    def test_residual_zero_on_eligible_steps(self, n, map_seed, seed, element_a, element_c,
                                              low):
        # under the original elongation rule a step with some lane off and
        # an empty stock grows total branch mass by exactly leak + noise;
        # start states straddle the response zone, so most steps mix lit
        # and dark lanes
        inst = generate_map(n, map_seed)
        p = ParamSet.for_instance(inst)
        cfg = VariantConfig(element_a=element_a, element_c=element_c)
        rng = np.random.default_rng(seed)
        state = AmoebaState(x=rng.uniform(low, low + 0.5, (n, n)), stock=0.0, t=0)
        eligible = 0
        for _ in range(10):
            prev_stock = state.stock
            state, diag = traced_step(state, inst, p, cfg, rng)
            if diag.l_off > 0 and prev_stock == 0.0:
                eligible += 1
                assert abs(diag.residual) <= 1e-12
        assume(eligible > 0)

    def test_counter_and_diagnostics(self, setup):
        inst, p = setup
        before = AmoebaState.initial(10)
        rng = np.random.default_rng(4)
        state, diag = traced_step(before, inst, p, ORIGINAL, rng)
        assert state.t == 1 and diag.t == 1
        assert diag.sum_x == pytest.approx(state.x.sum())
        assert diag.l_off == int((~compute_L(before.x, p, inst, ORIGINAL)).sum())


class TestEquivariance:
    """The update commutes with the problem's symmetries."""

    def test_city_relabeling(self):
        inst = generate_map(7, seed=61)
        p = ParamSet.for_instance(inst)
        rng = np.random.default_rng(2)
        x = rng.uniform(0.3, 0.8, (7, 7))
        perm = np.array([3, 0, 6, 1, 5, 2, 4])
        inst_p = TspInstance(np.asarray(inst.dist)[np.ix_(perm, perm)])
        assert ParamSet.for_instance(inst_p).nu == p.nu  # calibration is label-free

        a = step(AmoebaState(x=x[perm], stock=0.0, t=0), inst_p, p, NOISELESS,
                 np.random.default_rng(0))
        b = step(AmoebaState(x=x, stock=0.0, t=0), inst, p, NOISELESS,
                 np.random.default_rng(0))
        assert np.allclose(a.x, b.x[perm], atol=1e-14)

    def test_cyclic_visit_order_shift(self):
        # visit order is cyclic (the tour closes), so rotating the step axis
        # rotates the update with it
        inst = generate_map(7, seed=62)
        p = ParamSet.for_instance(inst)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.3, 0.8, (7, 7))
        for shift in (1, 3):
            a = step(AmoebaState(x=np.roll(x, shift, axis=1), stock=0.0, t=0),
                     inst, p, NOISELESS, np.random.default_rng(0))
            b = step(AmoebaState(x=x, stock=0.0, t=0), inst, p, NOISELESS,
                     np.random.default_rng(0))
            assert np.allclose(a.x, np.roll(b.x, shift, axis=1), atol=1e-14)


class TestInitialState:
    def test_default_level(self):
        state = AmoebaState.initial(6)
        assert (state.x == initial_level(6)).all()
        assert state.stock == 0.0 and state.t == 0
        # == is identity and never raises on the arrays
        assert (state == AmoebaState.initial(6)) is False and state == state

    def test_size_rule_holds_summed_inner_response(self):
        # the n=20 start is the calibrated default level, and every size
        # starts with the same summed inner response over its n^2 lanes
        inner = SigmoidParams(35, 0.6)
        assert initial_level(20) == DEFAULT_INIT_LEVEL
        total_20 = 400 * sigmoid(inner, DEFAULT_INIT_LEVEL)
        for n in (10, 50, 100):
            assert n * n * sigmoid(inner, initial_level(n)) == pytest.approx(total_20, rel=0.02)
        levels = [initial_level(n) for n in (5, 10, 20, 50, 100)]
        assert (np.diff(levels) < 0).all()

    def test_empty_lane_mode_stays_dark(self):
        # level 0 keeps the field far below the response zone: no lane is
        # ever illuminated and branch mass only accrues the hub drip
        inst = generate_map(5, seed=63)
        p = ParamSet.for_instance(inst)
        rows = []
        r = run_trial(inst, p, replace(preset("original"), init_level=0.0), seed=1,
                      max_iters=50, trace=rows)
        assert not r.success
        assert all(d.l_off == 25 for d in rows)
        assert np.abs(r.final_x).max() < 0.1
