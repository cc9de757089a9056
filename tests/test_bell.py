import dataclasses
import functools
import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellfield.angles import PI, PolAngle
import bellfield.bell as bell
from bellfield.bell import (
    BETA,
    MAX_BETA,
    CHANNELS,
    CoincidenceResult,
    Mrf3Params,
    ProbabilityOutOfRange,
    SubnormalPartition,
    UnexpectedLeadingOrder,
    ABSORBER_COST,
    CHANNEL_BITS,
    CHANNEL_FACTORS,
    MIN_KERNEL_CELLS,
    SIZED_KERNEL_CELLS,
    KernelUnresolved,
    ParameterError,
    brute_force_oracle,
    build_bell_graph,
    build_triphoton_graph,
    channel_features,
    channel_sums,
    coincidence_probability,
    factor_tables,
    grid_backend,
    partition_ratio,
    primitive_product,
    require_resolved,
    sized_grid_n,
    split_backend,
    sum_out_channel,
    var,
)
from bellfield.dist import (
    MAX_GRID,
    MAX_SIGMA,
    MIN_GRID,
    DeltaCollision,
    DistFn,
    RegularizedDistFn,
    SigmaTooCoarse,
    dist_integrate,
    dist_mul,
    grid_points,
    regularize,
    wrapped_gaussian,
)
from bellfield.graded import GradedCoeff, coeff_ratio_limit
from bellfield.mrf import forward_fold, relative_probability, tally_events
from bellfield.quantum import triphoton_compare
from test_triphoton import model_value

PI_FRAC = Fraction(math.pi)


def params_for(delta_deg: float, **kw) -> Mrf3Params:
    return Mrf3Params(
        theta_a=PolAngle.from_degrees(delta_deg),
        theta_b=PolAngle.from_degrees(0.0),
        **kw,
    )


def half_law(delta_deg: float) -> float:
    return 0.5 * math.cos(math.radians(delta_deg)) ** 2


def feature(channel: str, name: str, theta_p: PolAngle = PolAngle.from_degrees(20.0)):
    return {f.name: f for f in channel_features(channel, theta_p)}[f"{channel}.{name}"]


#: An alternative exit rule: circular output without a crystal photon, at
#: weight beta.  The oracle does not run it; the scalar walk shows that it
#: does not move the result at leading order.
WITHOUT_CRYSTAL_FACTORS = {
    **CHANNEL_FACTORS,
    "exit": (
        CHANNEL_FACTORS["exit"][0],
        {**CHANNEL_FACTORS["exit"][1], (0, 1, 0): ("beta",), (0, 0, 1): ("beta",)},
    ),
}


def scalar_by_scalar_oracle(params: Mrf3Params, factors=CHANNEL_FACTORS) -> CoincidenceResult:
    """The oracle's scenario walk one scenario at a time: each factor's value
    is looked up by the scenario's bits and its scalars multiplied one by one,
    stopping at the first zero; the surviving scenarios build their
    ``RegularizedDistFn`` product and add to num and den in lexicographic order."""
    grid = grid_points(params.grid_n)
    slot = {var(ch, g): k for k, (ch, g) in enumerate(itertools.product(CHANNELS, CHANNEL_BITS))}
    backends = {
        ch: grid_backend(grid, params.setting(ch).value, params.beta, params.sigma) for ch in CHANNELS
    }
    tables = [
        (
            tuple(slot[var(ch, r)] for r in reads),
            {bits: primitive_product(prims, backends[ch]) for bits, prims in values.items()},
        )
        for ch in CHANNELS
        for reads, values in factors.values()
    ]
    counters = [(slot[var(ch, "gamma_C")], slot[var(ch, "gamma_W")]) for ch in CHANNELS]
    num = den = 0.0
    for bits in itertools.product((0, 1), repeat=len(slot)):
        scalar = 1.0
        arrays = []
        for positions, table in tables:
            val = table.get(tuple(bits[k] for k in positions), 0.0)
            if isinstance(val, np.ndarray):
                arrays.append(val)
            else:
                scalar *= val
                if scalar == 0.0:
                    break
        if scalar == 0.0:
            continue
        product = RegularizedDistFn(np.full_like(grid, scalar))
        for arr in arrays:
            product = product * RegularizedDistFn(arr)
        weight = product.integral()
        den += weight
        if all(bits[c] or bits[w] for c, w in counters):
            num += weight
    return CoincidenceResult(
        partition_ratio(num, den), GradedCoeff.constant(num), GradedCoeff.constant(den), "regularized"
    )


# -- the knobs check themselves ------------------------------------------------------


#: NaN, the infinities, zero and negatives: never a knob's value.
not_positive_finite = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]) | st.floats(max_value=0.0)


def beyond(upper: float):
    """Values outside (0, upper]."""
    return not_positive_finite | st.floats(min_value=upper, exclude_min=True)


class TestMrf3Params:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just("beta"), beyond(MAX_BETA)),
            # a finite sigma above pi/16 is the numerical SigmaTooCoarse, below
            st.tuples(st.just("sigma"), not_positive_finite),
            st.tuples(st.just("grid_n"), st.integers(max_value=0) | st.integers(min_value=MAX_GRID + 1)),
        )
    )
    def test_a_knob_out_of_range_is_refused_by_name(self, knob_and_value):
        knob, value = knob_and_value
        with pytest.raises(ParameterError) as exc:
            params_for(30.0, **{knob: value})
        assert exc.value.key == knob

    @settings(max_examples=50, deadline=None)
    @given(st.floats(MAX_SIGMA, exclude_min=True, allow_infinity=False))
    def test_a_finite_sigma_above_pi_over_16_is_too_coarse(self, sigma):
        with pytest.raises(SigmaTooCoarse):
            params_for(30.0, sigma=sigma)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(5e-324, MAX_SIGMA), st.integers(1, MAX_GRID))
    def test_the_grid_is_sized_from_sigma_unless_given(self, sigma, grid_n):
        assert params_for(30.0, sigma=sigma).grid_n == sized_grid_n(sigma)
        assert params_for(30.0, sigma=sigma, grid_n=grid_n).grid_n == grid_n

    def test_a_replace_of_sigma_sizes_the_grid_anew(self):
        wide = Mrf3Params(PolAngle.from_degrees(30), PolAngle.from_degrees(0), sigma=0.04)
        narrow = dataclasses.replace(wide, sigma=0.005)
        assert (wide.grid_n, narrow.grid_n) == (sized_grid_n(0.04), sized_grid_n(0.005)) == (256, 1885)
        assert brute_force_oracle(narrow).probability == brute_force_oracle(params_for(30.0, sigma=0.005)).probability
        assert type(build_triphoton_graph((PolAngle(0.0),) * 3, narrow).grid_n ** 2) is int

    @settings(max_examples=50, deadline=None)
    @given(st.floats(5e-324, MAX_SIGMA), st.floats(5e-324, MAX_SIGMA), st.integers(1, MAX_GRID))
    def test_a_replace_keeps_a_given_grid(self, sigma, other, grid_n):
        given_grid = params_for(30.0, sigma=sigma, grid_n=grid_n)
        assert dataclasses.replace(given_grid, sigma=other).grid_n == grid_n
        assert dataclasses.replace(given_grid, sigma=other, grid_n=None).grid_n == sized_grid_n(other)

    def test_the_bounds_themselves_are_in_range(self):
        params_for(30.0, beta=MAX_BETA, sigma=MAX_SIGMA, grid_n=MAX_GRID)
        params_for(30.0, beta=5e-324, sigma=5e-324, grid_n=1)


# -- the oracle comes first: it is what pinned the 1/2 constant -----------------


#: Kernel widths the oracle's grid resolves, each with its grid size.
resolved_sigma_and_grid = st.sampled_from([256, 257, 1000, 8192]).flatmap(
    lambda n: st.tuples(st.floats(MIN_KERNEL_CELLS * PI / n, MAX_SIGMA), st.just(n))
)


#: Oracle settings checked against references that take the same products.
ORACLE_SETTINGS = [
    params_for(0.0),
    params_for(30.0),
    params_for(90.0),
    params_for(11.6, sigma=0.04),
    params_for(45.0, sigma=0.005, beta=1e-2),
]
ORACLE_SETTING_IDS = ["0deg", "30deg", "90deg", "11.6deg-sigma0.04", "45deg-sigma0.005-beta1e-2"]


def two_transcendental_grid_backend(theta, theta_p, beta, sigma):
    """The grid backend's tails as their definition reads, one cosine or sine each."""
    return {
        "pass": wrapped_gaussian(theta, theta_p, sigma) + beta * np.cos(theta - theta_p) ** 2,
        "block": wrapped_gaussian(theta, theta_p + PI / 2, sigma) + beta * np.sin(theta - theta_p) ** 2,
        "alpha": 1.0,
        "beta": beta,
    }


class TestGridBackend:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, PI, exclude_max=True), st.floats(1e-300, MAX_BETA), st.sampled_from(["1d", "2d"]))
    def test_tails_from_one_cosine_match_the_definition(self, theta_p, beta, shape):
        axis = grid_points(8192 if shape == "1d" else 96)
        theta = axis if shape == "1d" else axis[:, None] + axis[None, :]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bell, "wrapped_gaussian", lambda grid, center, sigma: np.zeros_like(grid))
            tails = grid_backend(theta, theta_p, beta, 0.01)
        bound = 4 * np.finfo(float).eps * beta
        assert np.max(np.abs(tails["pass"] - beta * np.cos(theta - theta_p) ** 2)) <= bound
        assert np.max(np.abs(tails["block"] - beta * np.sin(theta - theta_p) ** 2)) <= bound

    @pytest.mark.parametrize("params", ORACLE_SETTINGS, ids=ORACLE_SETTING_IDS)
    def test_oracle_barely_moves_from_the_two_transcendental_tails(self, monkeypatch, params):
        got = brute_force_oracle(params).probability
        monkeypatch.setattr(bell, "grid_backend", two_transcendental_grid_backend)
        want = brute_force_oracle(params).probability
        assert abs(got - want) <= 1e-15


class TestBruteForceOracle:
    def test_thirty_degrees(self):
        r = brute_force_oracle(params_for(30.0))
        assert r.probability == pytest.approx(0.375, abs=1e-3)

    def test_equal_settings(self):
        r = brute_force_oracle(params_for(0.0, sigma=0.01))
        assert r.probability == pytest.approx(0.5, abs=1e-3)

    def test_orthogonal_settings(self):
        r = brute_force_oracle(params_for(90.0, sigma=0.01))
        assert r.probability < 1e-6

    def test_excludes_the_unhalved_law(self):
        # the competing closed form would be cos^2(30deg) = 0.75
        r = brute_force_oracle(params_for(30.0))
        assert abs(r.probability - 0.75) > 0.37

    def test_agreement_with_exact_over_ten_points(self):
        for d in range(8, 88, 8):
            oracle = brute_force_oracle(params_for(float(d))).probability
            exact = coincidence_probability(params_for(float(d)), "exact").probability
            assert oracle == pytest.approx(exact, abs=1e-3), f"delta={d}"

    def test_monotone_sigma_convergence(self):
        exact = coincidence_probability(params_for(30.0), "exact").probability
        errors = [
            abs(brute_force_oracle(params_for(30.0, sigma=s)).probability - exact)
            for s in (0.04, 0.02, 0.01, 0.005)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:])), errors

    def test_sigma_error_against_the_beta_closed_form_is_below_half_sigma_squared(self):
        # Away from the overlap window of the equal and orthogonal settings,
        # where the kernels at a distance d weigh g = exp(-d^2/4 sigma^2) /
        # (2 sigma sqrt(pi)) against the tails' beta, the oracle differs from
        # the zero-width value at the configured beta by its sigma part only.
        checked = 0
        for sigma, beta in itertools.product((0.04, 0.02, 0.01, 0.005), (1e-2, 1e-3)):
            for delta in range(181):
                d = abs(math.remainder(math.radians(delta), PI / 2))
                if math.exp(-(d**2) / (4 * sigma**2)) / (2 * sigma * math.sqrt(PI)) > 1e-6 * beta:
                    continue
                got = brute_force_oracle(params_for(float(delta), sigma=sigma, beta=beta)).probability
                want = model_value(math.radians(delta), beta, 2)
                assert abs(got - want) <= sigma**2 / 2, (delta, sigma, beta, got, want)
                checked += 1
        assert checked == 1120

    def test_alternative_exit_rule_is_immaterial(self):
        base = brute_force_oracle(params_for(30.0)).probability
        toggled = scalar_by_scalar_oracle(params_for(30.0), WITHOUT_CRYSTAL_FACTORS).probability
        assert abs(base - toggled) < 1e-3

    def test_oracle_bounds_enforced(self):
        with pytest.raises(ValueError):
            brute_force_oracle(params_for(30.0, beta=0.5))
        with pytest.raises(ValueError):
            brute_force_oracle(params_for(30.0, grid_n=128))

    def test_four_kernel_evaluations_per_call(self, monkeypatch):
        calls = []

        def counting(grid, center, sigma):
            calls.append(center)
            return wrapped_gaussian(grid, center, sigma)

        monkeypatch.setattr(bell, "wrapped_gaussian", counting)
        brute_force_oracle(params_for(30.0))
        assert len(calls) == 4

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(st.sampled_from([0.0, 90.0]), st.floats(0.0, 180.0)),
        resolved_sigma_and_grid,
        st.floats(1e-9, MAX_BETA),
    )
    def test_weight_vector_equals_scalar_by_scalar_walk(self, delta, sigma_and_grid, beta):
        sigma, grid_n = sigma_and_grid
        params = params_for(delta, sigma=sigma, beta=beta, grid_n=grid_n)
        reference = scalar_by_scalar_oracle(params)
        oracle = brute_force_oracle(params)
        assert oracle.probability == reference.probability
        assert oracle.numerator == reference.numerator
        assert oracle.denominator == reference.denominator

    @pytest.mark.parametrize("grid_n", [256, 8192])
    @pytest.mark.parametrize("sigma", [0.04, 0.1, MAX_SIGMA])
    def test_wide_kernels_equal_scalar_by_scalar_walk(self, sigma, grid_n):
        # a kernel's window spans the whole grid here
        params = params_for(33.3, sigma=sigma, grid_n=grid_n)
        reference = scalar_by_scalar_oracle(params)
        oracle = brute_force_oracle(params)
        assert oracle.probability == reference.probability
        assert oracle.numerator == reference.numerator
        assert oracle.denominator == reference.denominator

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([256, 257, 1000, 8192]).flatmap(
            lambda n: st.tuples(st.floats(1e-300, MIN_KERNEL_CELLS * PI / n, exclude_max=True), st.just(n))
        )
    )
    def test_refuses_a_kernel_the_grid_cannot_resolve(self, sigma_and_grid):
        sigma, grid_n = sigma_and_grid
        with pytest.raises(KernelUnresolved, match="sigma"):
            brute_force_oracle(params_for(30.0, sigma=sigma, grid_n=grid_n))

    def test_resolution_bound_keeps_the_mass_error_near_1e_12(self):
        # the product of two width-sigma kernels at one location has width
        # sigma / sqrt(2); its trapezoid mass misses one by ~2 exp(-(sigma n)^2)
        n = 8192
        sigma = MIN_KERNEL_CELLS * PI / n
        grid = grid_points(n)
        for center in (0.0, 0.3, PI / (2 * n)):
            product = wrapped_gaussian(grid, center, sigma) ** 2 * (2 * sigma * math.sqrt(PI))
            assert abs(float(product.sum()) * PI / n - 1) < 1e-12, center
        brute_force_oracle(params_for(30.0, sigma=sigma, grid_n=n))

    @pytest.mark.parametrize("delta", [30.0, 0.0, 90.0])
    def test_matches_scenario_by_scenario_reference(self, delta):
        # Every factor is re-evaluated from its primitives in every scenario,
        # the way the oracle's definition reads.
        params = params_for(delta)
        grid = grid_points(params.grid_n)
        backends = {
            ch: grid_backend(grid, params.setting(ch).value, params.beta, params.sigma)
            for ch in CHANNELS
        }
        num = den = 0.0
        for bits in itertools.product((0, 1), repeat=8):
            product = np.ones_like(grid)
            for i, ch in enumerate(CHANNELS):
                local = dict(zip(CHANNEL_BITS, bits[4 * i : 4 * i + 4]))
                for reads, values in CHANNEL_FACTORS.values():
                    prims = values.get(tuple(local[r] for r in reads))
                    if prims is None:
                        product = product * 0.0
                        continue
                    for p in prims:
                        product = product * backends[ch].get(p, p)
            weight = float(product.sum()) * PI / params.grid_n
            den += weight
            if (bits[2] or bits[3]) and (bits[6] or bits[7]):
                num += weight
        oracle = brute_force_oracle(params)
        assert oracle.probability == pytest.approx(num / den, abs=1e-14)

    def test_plan_lists_every_live_scenario_in_lexicographic_order(self):
        # a walk over all 2^8 scenarios keeps those every factor lists, each
        # with its both-counters-fire flag and, per side, the primitives of
        # its factors in factor order; the oracle pairs the channel plan's
        # entries, each its split and then its scalars, to the same list
        want = []
        for bits in itertools.product((0, 1), repeat=8):
            local = {ch: dict(zip(CHANNEL_BITS, bits[4 * i : 4 * i + 4])) for i, ch in enumerate(CHANNELS)}
            sides = [
                [values.get(tuple(local[ch][r] for r in reads)) for reads, values in CHANNEL_FACTORS.values()]
                for ch in CHANNELS
            ]
            if all(prims is not None for side in sides for prims in side):
                fires = all(local[ch]["gamma_C"] or local[ch]["gamma_W"] for ch in CHANNELS)
                want.append((fires, tuple(tuple(itertools.chain(*side)) for side in sides)))
        got = [
            (left_fires and right_fires, ((left_split, *left_scalars), (right_split, *right_scalars)))
            for (left_fires, left_split, left_scalars), (right_fires, right_split, right_scalars) in itertools.product(
                bell.CHANNEL_PLAN, repeat=2
            )
        ]
        assert got == want
        assert len(want) == 9

    def test_weights_that_underflow_match_the_scalar_walk(self):
        # at beta = 1e-98 (and alpha 1, as on every grid) the scenarios of the
        # alternative exit rule in which both channels convert without a
        # crystal photon weigh 4 beta^4 = 0.0; the others weigh beta^2 or so
        params = params_for(30.0, beta=1e-98)
        assert 4 * params.beta**4 == 0.0
        variant = scalar_by_scalar_oracle(params, WITHOUT_CRYSTAL_FACTORS)
        assert variant.probability == brute_force_oracle(params).probability

    @pytest.mark.parametrize("beta", [1e-150, 1e-154, 1e-160, 2.5e-308, 5e-324])
    @pytest.mark.parametrize("delta", [0.0, 90.0])
    def test_tiny_beta_equals_scalar_by_scalar_walk(self, delta, beta):
        # each channel's scalars are multiplied before the two channels' are;
        # down to subnormal weights that gives the walk's sums, or the same
        # refusal of a partition too small to divide by.  Equal and orthogonal
        # settings overlap two kernels, so their partition leads at beta^2.
        params = params_for(delta, beta=beta)
        outcomes = []
        for route in (brute_force_oracle, scalar_by_scalar_oracle):
            try:
                result = route(params)
            except ArithmeticError as exc:
                outcomes.append(type(exc))
            else:
                outcomes.append((result.probability, result.numerator, result.denominator))
        assert outcomes[0] == outcomes[1]

    def test_a_partition_that_underflows_is_refused(self):
        # at beta 1e-162, 8 of the 9 live scalar weights are below half the
        # smallest subnormal, and the last one's products underflow
        params = params_for(30.0, beta=1e-162)
        for route in (brute_force_oracle, scalar_by_scalar_oracle):
            with pytest.raises(ZeroDivisionError, match="partition vanished"):
                route(params)

    @pytest.mark.parametrize("params", ORACLE_SETTINGS, ids=ORACLE_SETTING_IDS)
    def test_equals_name_keyed_scenario_loop(self, params):
        # The same loop keyed by variable names instead of bit positions: the
        # same factor values, multiplied and summed in the same order.
        grid = grid_points(params.grid_n)
        tables = {
            ch: factor_tables(
                grid_backend(grid, params.setting(ch).value, params.beta, params.sigma)
            ).values()
            for ch in CHANNELS
        }
        num = den = 0.0
        for bits in itertools.product((0, 1), repeat=8):
            assign = {
                var(ch, g): bits[4 * i + j]
                for i, ch in enumerate(CHANNELS)
                for j, g in enumerate(CHANNEL_BITS)
            }
            scalar = 1.0
            arrays = []
            for ch in CHANNELS:
                for reads, table in tables[ch]:
                    val = table.get(tuple(assign[var(ch, r)] for r in reads), 0.0)
                    if isinstance(val, np.ndarray):
                        arrays.append(val)
                    else:
                        scalar *= val
                        if scalar == 0.0:
                            break
                if scalar == 0.0:
                    break
            if scalar == 0.0:
                continue
            product = RegularizedDistFn(np.full_like(grid, scalar))
            for arr in arrays:
                product = product * RegularizedDistFn(arr)
            weight = product.integral()
            den += weight
            if all(assign[var(ch, "gamma_C")] or assign[var(ch, "gamma_W")] for ch in CHANNELS):
                num += weight
        oracle = brute_force_oracle(params)
        assert oracle.numerator.constant_value() == num
        assert oracle.denominator.constant_value() == den


class TestSizedGrid:
    """The oracle's default grid: ceil(3 pi / sigma) points, clamped."""

    def test_grids_of_the_grid_study_widths(self):
        assert [sized_grid_n(s) for s in (0.04, 0.02, 0.01, 0.005)] == [256, 472, 943, 1885]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(5e-324, MAX_SIGMA))
    def test_fewest_points_with_three_cells_per_width(self, sigma):
        n = sized_grid_n(sigma)
        assert MIN_GRID <= n <= MAX_GRID
        if MIN_GRID < n < MAX_GRID:
            assert sigma * n / PI >= SIZED_KERNEL_CELLS > sigma * (n - 1) / PI

    @settings(max_examples=100, deadline=None)
    @given(st.floats(MIN_KERNEL_CELLS * PI / MAX_GRID, MAX_SIGMA))
    def test_every_width_down_to_the_largest_grids_bound_is_resolved(self, sigma):
        require_resolved(sigma, sized_grid_n(sigma))

    @pytest.mark.parametrize("sigma", [math.nan, 0.0, -0.0, -1.0, -math.inf, 5e-324])
    def test_no_positive_width_or_a_tiny_one_gets_the_largest_grid(self, sigma):
        # no ZeroDivisionError or OverflowError: Mrf3Params refuses sigma by name
        assert sized_grid_n(sigma) == MAX_GRID

    def test_an_infinite_width_gets_the_smallest_grid(self):
        assert sized_grid_n(math.inf) == MIN_GRID


# -- feature tables ----------------------------------------------------------------


class TestFeatures:
    def test_external_detector(self):
        # the counter's cost alpha cancels from every ratio and is valued 1
        f = feature("R", "detector")
        assert f.eval({"R_gamma_C": 0, "R_gamma_W": 0}) == DistFn.one()
        assert f.eval({"R_gamma_C": 1, "R_gamma_W": 0}) == DistFn.one()
        # unreachable double occupation: any finite value, exit zeroes it
        assert f.eval({"R_gamma_C": 1, "R_gamma_W": 1}) == DistFn.one()

    def test_hidden_detector(self):
        # the absorber's cost 2*alpha*beta, alpha valued 1
        f = feature("R", "hidden_minus")
        assert f.eval({"R_gamma_b_minus": 0}) == DistFn.one()
        assert f.eval({"R_gamma_b_minus": 1}) == DistFn.constant(2 * BETA)

    def test_entry_surface_branches(self):
        tb = PolAngle.from_degrees(20.0)
        f = feature("R", "entry", tb)
        passing = f.eval({"R_gamma_b": 1, "R_gamma_b_minus": 0})
        assert passing.atom_weight_at(tb) == GradedCoeff.one()
        assert passing.smooth_at(tb.value).eval(0.5) == pytest.approx(0.5)
        blocked = f.eval({"R_gamma_b": 0, "R_gamma_b_minus": 1})
        assert blocked.atom_weight_at(tb.perpendicular()) == GradedCoeff.one()
        assert f.eval({"R_gamma_b": 1, "R_gamma_b_minus": 1}).is_zero
        assert f.eval({"R_gamma_b": 0, "R_gamma_b_minus": 0}).is_zero

    def test_exit_surface_branches(self):
        f = feature("R", "exit")

        def v(b, c, w):
            return f.eval({"R_gamma_b": b, "R_gamma_C": c, "R_gamma_W": w})

        assert v(1, 1, 0) == DistFn.constant(BETA)
        assert v(1, 0, 1) == DistFn.constant(BETA)
        assert v(0, 0, 0) == DistFn.one()
        assert v(1, 1, 1).is_zero
        assert v(0, 1, 1).is_zero
        assert v(1, 0, 0).is_zero  # crystal photon must exit somewhere
        assert v(0, 1, 0).is_zero  # nothing there to convert

    def test_hidden_blocked_product_structure(self):
        # blocked-path entry times the internal absorber
        tb = PolAngle.from_degrees(20.0)
        entry = feature("R", "entry", tb).eval({"R_gamma_b": 0, "R_gamma_b_minus": 1})
        hidden = feature("R", "hidden_minus").eval({"R_gamma_b_minus": 1})
        prod = dist_mul(entry, hidden)
        two_b = 2 * BETA
        assert prod.atom_weight_at(tb.perpendicular()) == two_b
        assert prod.c0 == two_b * BETA * Fraction(1, 2)

    def test_detection_scenario_product_structure(self):
        # pass-path entry times exit conversion times counter absorption
        tb = PolAngle.from_degrees(20.0)
        a = {"R_gamma_b": 1, "R_gamma_b_minus": 0, "R_gamma_C": 1, "R_gamma_W": 0}
        prod = DistFn.one()
        for f in channel_features("R", tb):
            prod = dist_mul(prod, f.eval(a))
        assert prod.atom_weight_at(tb) == BETA
        assert prod.c0 == BETA * BETA * Fraction(1, 2)  # beta cos^2 tail, DC part

    @pytest.mark.parametrize("channel", ["L", "R"])
    def test_features_are_nonnegative_relative_probabilities(self, channel):
        theta_p = PolAngle.from_degrees(37.0)
        grid = grid_points(512)
        for feat in channel_features(channel, theta_p):
            n_deps = len(feat.depends_on)
            for bits in itertools.product((0, 1), repeat=n_deps):
                out = feat.eval(dict(zip(feat.depends_on, bits)))
                numeric = out.substitute(0.001)
                for _, w in numeric.atoms:
                    assert w >= 0.0
                smooth = np.array([numeric.smooth_at(float(t)) for t in grid[::8]], dtype=float)
                assert smooth.min() >= -1e-15


class TestGraphStructure:
    def test_variable_and_feature_counts(self):
        g = build_bell_graph(params_for(30.0))
        assert len(g.binary_names) == 8
        assert len(g.features) == 10

    def test_channel_scenario_counts(self):
        # per channel: two detection scenarios, one non-detection
        feats = channel_features("R", PolAngle.from_degrees(20.0))
        detected, undetected = 0, 0
        for bits in itertools.product((0, 1), repeat=4):
            a = dict(zip((var("R", g) for g in ("gamma_b", "gamma_b_minus", "gamma_C", "gamma_W")), bits))
            out = DistFn.one()
            for f in feats:
                out = dist_mul(out, f.eval(a))
            if out.is_zero:
                continue
            if a[var("R", "gamma_C")] or a[var("R", "gamma_W")]:
                detected += 1
            else:
                undetected += 1
        assert detected == 2
        assert undetected == 1


class TestChannelSums:
    @staticmethod
    def sixteen_assignment_walk(backend):
        """Every assignment of the channel's four bits, its factor values looked
        up one by one; an assignment some factor leaves out is skipped."""
        tables = factor_tables(backend).values()
        sums = ([], [])
        for bits in itertools.product((0, 1), repeat=len(CHANNEL_BITS)):
            local = dict(zip(CHANNEL_BITS, bits))
            values = [table.get(tuple(local[r] for r in reads)) for reads, table in tables]
            if all(v is not None for v in values):
                product = functools.reduce(operator.mul, values)
                sums[0 if local["gamma_C"] or local["gamma_W"] else 1].append(product)
        return [functools.reduce(operator.add, terms) for terms in sums]

    @given(st.floats(0.0, PI, exclude_max=True))
    @settings(max_examples=40, deadline=None)
    def test_plan_equals_sixteen_assignment_walk(self, theta):
        # the split scaled once by its scalars' product, against the walk's
        # split times each scalar in turn: graded values exactly, floats and
        # arrays to the bit, -0.0 apart from 0.0
        theta_p = PolAngle(theta)
        assert len(bell.CHANNEL_PLAN) == 3
        grid = grid_points(1000)
        for beta in (BETA, 0.1, 1e-3, 1e-160, 5e-324):
            backend = split_backend(theta_p, beta)
            got = [exact_parts(f) for f in sum_out_channel(backend)]
            assert got == [exact_parts(f) for f in self.sixteen_assignment_walk(backend)]
            if beta is not BETA:
                backend = grid_backend(grid, theta_p.value, beta, 0.01)
                got = sum_out_channel(backend)
                assert [g.tobytes() for g in got] == [w.tobytes() for w in self.sixteen_assignment_walk(backend)]

    @pytest.mark.parametrize("beta", [1e-160, 5e-324])
    def test_kernel_tails_with_subnormals_equal_the_walk_bit_for_bit(self, beta):
        grid = grid_points(1000)
        backend = grid_backend(grid, 0.3, beta, 0.01)
        got = sum_out_channel(backend)
        want = self.sixteen_assignment_walk(backend)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

        def subnormals(a):
            return np.count_nonzero((a != 0) & (np.abs(a) < sys.float_info.min))

        # the kernels' tails are subnormal, and so are some of the scaled sums
        assert subnormals(wrapped_gaussian(grid, 0.3, 0.01)) > 0
        assert all(subnormals(g) > 0 for g in got)

    def test_every_live_assignment_pays_alpha_once(self):
        # at the counter or at the internal absorber: alpha^N factors out of
        # every N-channel sum, so no ratio reads it
        for _, _, scalars in bell.CHANNEL_PLAN:
            assert scalars.count("alpha") == 1

    def test_closed_form_structure(self):
        ta = PolAngle.from_degrees(20.0)
        plus, minus = sum_out_channel(split_backend(PolAngle.from_degrees(20.0), BETA))
        two_b = 2 * BETA
        assert plus.atom_weight_at(ta) == two_b
        assert plus.c0 == two_b * BETA * Fraction(1, 2)
        assert minus.atom_weight_at(ta.perpendicular()) == two_b

    def test_sum_integrates_to_eighteen_form(self):
        plus, minus = sum_out_channel(split_backend(PolAngle.from_degrees(20.0), BETA))
        expected = GradedCoeff({1: 4, 2: 2 * PI_FRAC})
        assert dist_integrate(plus + minus) == expected

    def test_closed_form_equals_enumeration_exactly(self):
        ta = PolAngle.from_degrees(20.0)
        feats = channel_features("L", ta)
        plus_e, minus_e = DistFn.zero(), DistFn.zero()
        for bits in itertools.product((0, 1), repeat=4):
            a = dict(zip((var("L", g) for g in ("gamma_b", "gamma_b_minus", "gamma_C", "gamma_W")), bits))
            out = DistFn.one()
            for f in feats:
                out = dist_mul(out, f.eval(a))
            if out.is_zero:
                continue
            if a[var("L", "gamma_C")] or a[var("L", "gamma_W")]:
                plus_e = plus_e + out
            else:
                minus_e = minus_e + out
        plus_c, minus_c = sum_out_channel(split_backend(PolAngle.from_degrees(20.0), BETA))
        assert plus_e == plus_c
        assert minus_e == minus_c


class TestChannelPlan:
    def test_each_live_assignment_is_one_split_times_its_scalars(self):
        assert bell.CHANNEL_PLAN == (
            (False, "block", ABSORBER_COST),
            (True, "pass", ("beta", "alpha")),
            (True, "pass", ("beta", "alpha")),
        )

    @pytest.mark.parametrize(
        "name, table, match",
        [
            ("entry", {(1, 0): ("beta",), (0, 1): ("block",)}, "splits, not one"),
            ("entry", {(1, 0): ("pass", "block"), (0, 1): ("block",)}, "splits, not one"),
            ("entry", {(1, 0): ("pass", "pass"), (0, 1): ("block",)}, "splits, not one"),
            ("hidden_minus", {(0,): (), (1,): (2, "alpha", "alpha", "beta")}, "alpha 2 times, not once"),
            ("detector", {(0, 0): (), (1, 0): (), (0, 1): ("alpha",), (1, 1): ("alpha",)}, "alpha 0 times, not once"),
        ],
        ids=["no-split", "pass-and-block", "pass-twice", "alpha-twice", "no-alpha"],
    )
    def test_refuses_an_assignment_without_exactly_one_split(self, name, table, match):
        # one factor's table gives a live assignment the wrong splits, or
        # makes it pay alpha other than once, so that alpha would not cancel
        factors = {**CHANNEL_FACTORS, name: (CHANNEL_FACTORS[name][0], table)}
        with pytest.raises(bell.ChannelPlanError, match=match):
            bell.channel_plan(factors)


def exact_parts(f: DistFn) -> list:
    """Every atom location and coefficient of ``f``, in order: floats by
    their bits (``float.hex``, so -0.0 differs from 0.0), graded ones as
    they are, with each coefficient's type."""
    values = [loc.value for loc, _ in f.atoms] + [w for _, w in f.atoms] + [f.c0, *f.cos_coeffs, *f.sin_coeffs]
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


class TestChannelSumsMemo:
    """The memoized channel sums are a fresh elimination's, bit for bit, and
    the memo stays within its bound."""

    @given(
        st.floats(-PI / 2, PI / 2, exclude_max=True),
        st.one_of(st.just(BETA), st.floats(1e-9, MAX_BETA)),
        st.booleans(),
    )
    @example(0.0, BETA, True)
    @example(-0.0, BETA, True)
    @example(0.0, 1e-3, True)
    @example(-0.0, 1e-3, True)
    @example(-PI / 2, BETA, False)
    @example(-PI / 2, 1e-3, True)
    @settings(max_examples=60, deadline=None)
    def test_equals_a_fresh_elimination(self, theta, beta, reflected):
        theta_p = PolAngle(theta)
        assert theta_p.value.hex() == theta.hex()
        fresh = sum_out_channel(split_backend(theta_p, beta))
        if reflected:
            fresh = tuple(f.reflected() for f in fresh)
        for _ in range(2):  # the call that fills the memo, then one it serves
            got = channel_sums(theta_p, beta, reflected=reflected)
            assert [exact_parts(f) for f in got] == [exact_parts(f) for f in fresh]

    def test_plus_and_minus_zero_are_kept_apart(self):
        channel_sums.cache_clear()
        plus, minus = (channel_sums(PolAngle(v), 1e-3)[0] for v in (0.0, -0.0))
        assert plus.sin_coeffs[0].hex() == "0x0.0p+0"
        assert minus.sin_coeffs[0].hex() == "-0x0.0p+0"
        assert channel_sums.cache_info().currsize == 2

    def test_holds_no_more_than_its_bound(self):
        channel_sums.cache_clear()
        for k in range(bell.CHANNEL_SUMS_MEMO + 10):
            channel_sums(PolAngle.from_degrees(k * 0.7), 1e-3, reflected=k % 2 == 1)
        assert channel_sums.cache_info().currsize == bell.CHANNEL_SUMS_MEMO

    def test_serves_a_repeated_setting(self):
        channel_sums.cache_clear()
        first = channel_sums(PolAngle.from_degrees(0.0), BETA, reflected=True)
        assert channel_sums(PolAngle.from_degrees(0.0), BETA, reflected=True) is first
        # the float and the graded split of one setting are separate entries
        assert channel_sums(PolAngle.from_degrees(0.0), 1e-3) is not channel_sums(PolAngle.from_degrees(0.0), BETA)

    def test_a_constant_graded_beta_is_not_its_float(self):
        # equal, and hashed alike, but typed apart: the graded split of a
        # constant beta and the float split are separate entries
        channel_sums.cache_clear()
        graded, number = GradedCoeff.constant(1e-3), 1e-3
        assert graded == number and hash(graded) == hash(number)
        theta = PolAngle.from_degrees(30.0)
        assert channel_sums(theta, graded) is not channel_sums(theta, number)
        assert channel_sums.cache_info().currsize == 2
        assert channel_sums(theta, graded) is channel_sums(theta, GradedCoeff.constant(1e-3))

    def test_caches_no_failure(self):
        channel_sums.cache_clear()
        with pytest.raises(TypeError):
            channel_sums(PolAngle(0.3), "1e-3")
        assert channel_sums.cache_info().currsize == 0


class TestSplitBackend:
    """One split function for both coefficient types: at a numeric beta it
    gives the graded split evaluated there, and so do its channel sums."""

    @staticmethod
    def coefficients(f: DistFn) -> list:
        return [w for _, w in f.atoms] + [f.c0, *f.cos_coeffs, *f.sin_coeffs]

    @given(st.floats(0.0, PI, exclude_max=True), st.floats(1e-9, MAX_BETA))
    @settings(max_examples=60, deadline=None)
    def test_float_split_is_the_graded_split_evaluated(self, theta, beta):
        theta_p = PolAngle(theta)
        graded = split_backend(theta_p, BETA)
        numeric = split_backend(theta_p, beta)
        pairs = [(graded[p], numeric[p]) for p in ("pass", "block")]
        pairs += zip(sum_out_channel(graded), sum_out_channel(numeric), strict=True)
        for exact, got in pairs:
            assert [loc for loc, _ in got.atoms] == [loc for loc, _ in exact.atoms]
            for want, value in zip(self.coefficients(exact), self.coefficients(got), strict=True):
                assert type(value) is float
                # below the smallest normal float only steps of 5e-324 remain
                assert value == pytest.approx(want.eval(beta), rel=1e-15, abs=1e-321)


class TestPrimitiveProduct:
    #: Every product a factor lists, and every live assignment's whole product.
    PRODUCTS = sorted(
        {prims for _, values in WITHOUT_CRYSTAL_FACTORS.values() for prims in values.values()}
        | {(split, *scalars) for _, split, scalars in bell.CHANNEL_PLAN},
        key=repr,
    )

    @staticmethod
    def backend(kind: str) -> dict:
        """The split backend with graded or float ("kernel": its atoms become
        the contraction's kernels) coefficients, or the grid backend."""
        theta_p = PolAngle.from_degrees(20.0)
        if kind == "graded":
            return split_backend(theta_p, BETA)
        if kind == "kernel":
            return split_backend(theta_p, 1e-3)
        return grid_backend(grid_points(1000), theta_p.value, 1e-3, 0.01)

    @pytest.mark.parametrize("kind", ["graded", "kernel", "grid"])
    def test_a_single_primitive_is_its_own_value(self, kind):
        values = self.backend(kind)
        for name, value in values.items():
            assert primitive_product((name,), values) is value

    @pytest.mark.parametrize("kind", ["graded", "kernel", "grid"])
    def test_equals_the_product_from_one(self, kind):
        values = self.backend(kind)
        assert primitive_product((), values) == 1
        for prims in self.PRODUCTS:
            got = primitive_product(prims, values)
            want = functools.reduce(operator.mul, (values.get(p, p) for p in prims), 1)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), prims
            else:
                assert got == want, prims


class TestCoincidenceExact:
    def test_sixty_degrees(self):
        r = coincidence_probability(params_for(60.0), "exact")
        assert r.probability == pytest.approx(0.125, abs=1e-12)
        assert r.mode == "exact"

    def test_partition_closed_form(self):
        r = coincidence_probability(params_for(60.0), "exact")
        assert r.denominator == GradedCoeff({3: 16, 4: 4 * PI_FRAC})

    def test_numerator_leading_coefficient(self):
        for d in (20.0, 60.0, 75.0):
            r = coincidence_probability(params_for(d), "exact")
            lead = r.numerator.leading_terms()[3]
            assert float(lead) == pytest.approx(8 * math.cos(math.radians(d)) ** 2, abs=1e-12)

    def test_alpha_and_beta_order_structure(self):
        # alpha lives in the channel plan alone: every Bell scenario, a pair
        # of live assignments, pays it twice, so alpha^2 cancels from the
        # ratio; both exact sums lead at beta^3
        for left, right in itertools.product(bell.CHANNEL_PLAN, repeat=2):
            assert (left[2] + right[2]).count("alpha") == 2
        r = coincidence_probability(params_for(40.0), "exact")
        assert (r.numerator.min_beta_order(), r.denominator.min_beta_order()) == (3, 3)

    def test_degenerate_settings_collide(self):
        with pytest.raises(DeltaCollision):
            coincidence_probability(params_for(0.0), "exact")
        with pytest.raises(DeltaCollision):
            coincidence_probability(params_for(90.0), "exact")

    def test_fold_equals_enumeration_exactly(self):
        rng = random.Random(17)
        checked = 0
        while checked < 10:
            params = Mrf3Params(PolAngle(rng.uniform(0, PI)), PolAngle(rng.uniform(0, PI)))
            delta = abs(math.remainder(params.theta_a.value - params.theta_b.value, PI / 2))
            if delta < 0.02:
                continue
            r = coincidence_probability(params, "exact")
            graph = build_bell_graph(params)
            totals, partition = tally_events(graph, (graph.predicate("D"),))
            assert r.numerator == totals["D"]  # exact GradedCoeff equality
            assert r.denominator == partition
            checked += 1

    @staticmethod
    def closed_form(params: Mrf3Params) -> tuple[dict, dict]:
        """The exact route's (numerator, denominator) terms derived by hand:
        with c2 = cos 2(theta_a - theta_b) in the settings' own Fractions,
        16 b^3 + 4 pi b^4 over the partition, and
        4 (1 + c2) b^3 + pi (1 + c2 / 2) b^4 over the coincidences."""
        a, b = 2 * params.theta_a.value, 2 * params.theta_b.value
        c2 = Fraction(math.cos(a)) * Fraction(math.cos(b)) + Fraction(math.sin(a)) * Fraction(math.sin(b))
        numerator = {3: 4 * (1 + c2), 4: PI_FRAC * (1 + c2 / 2)}
        return numerator, {3: 16, 4: 4 * PI_FRAC}

    def test_closed_form_on_the_tenth_degree_lattice(self):
        for tenths in range(1, 1800):
            if tenths == 900:
                continue
            params = params_for(tenths / 10)
            r = coincidence_probability(params, "exact")
            assert (r.numerator.terms, r.denominator.terms) == self.closed_form(params), tenths

    def test_closed_form_on_random_settings(self):
        rng = random.Random(23)
        checked = 0
        while checked < 300:
            params = Mrf3Params(PolAngle(rng.uniform(-10, 10)), PolAngle(rng.uniform(-10, 10)))
            if abs(math.remainder(params.theta_a.value - params.theta_b.value, PI / 2)) < 1e-3:
                continue  # the exact route refuses equal and orthogonal settings
            r = coincidence_probability(params, "exact")
            assert (r.numerator.terms, r.denominator.terms) == self.closed_form(params)
            checked += 1

    def test_cancelled_leading_order_is_typed(self):
        # cos^2 of a near-right angle rounds the beta^3 coefficient to zero
        with pytest.raises(UnexpectedLeadingOrder, match="beta orders"):
            coincidence_probability(params_for(89.9999999), "exact")

    def test_depends_only_on_difference(self):
        rng = random.Random(5)
        base = coincidence_probability(params_for(35.0), "exact").probability
        for _ in range(5):
            off = rng.uniform(0, PI)
            p = Mrf3Params(
                theta_a=PolAngle(math.radians(35.0) + off),
                theta_b=PolAngle(off),
            )
            assert coincidence_probability(p, "exact").probability == pytest.approx(
                base, abs=1e-12
            )

    def test_symmetry_in_the_difference(self):
        d = 35.0
        p_plus = coincidence_probability(params_for(d), "exact").probability
        p_minus = coincidence_probability(params_for(-d), "exact").probability
        p_supp = coincidence_probability(params_for(180.0 - d), "exact").probability
        assert p_plus == pytest.approx(p_minus, abs=1e-12)
        assert p_plus == pytest.approx(p_supp, abs=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            coincidence_probability(params_for(30.0), "fancy")

    def test_degenerate_flag(self):
        assert params_for(0.0).degenerate
        assert params_for(90.0).degenerate
        assert not params_for(30.0).degenerate

    def test_generic_event_probability_on_graph(self):
        g = build_bell_graph(params_for(60.0))
        totals, partition = tally_events(g, (g.predicate("D"), g.predicate("D_R")))
        assert coeff_ratio_limit(totals["D"], partition) == pytest.approx(0.125, abs=1e-12)
        # one-sided detection: the channel fires in 2 of its 3 scenarios at
        # matched leading order, but the joint limit weighs them 1/2 each
        assert coeff_ratio_limit(totals["D_R"], partition) == pytest.approx(0.5, abs=1e-12)


class TestCoincidenceRegularized:
    def test_equal_settings_give_half(self):
        r = coincidence_probability(params_for(0.0, sigma=0.005), "regularized")
        assert r.probability == pytest.approx(0.5, abs=1e-3)
        assert r.mode == "regularized"

    def test_orthogonal_settings_give_zero(self):
        r = coincidence_probability(params_for(90.0, sigma=0.005), "regularized")
        assert r.probability < 1e-6

    def test_rotation_invariance(self):
        rng = random.Random(11)
        base = coincidence_probability(params_for(35.0), "regularized").probability
        for _ in range(3):
            off = rng.uniform(0, PI)
            p = Mrf3Params(
                theta_a=PolAngle(math.radians(35.0) + off),
                theta_b=PolAngle(off),
            )
            assert coincidence_probability(p, "regularized").probability == pytest.approx(
                base, abs=1e-6
            )

    def test_matches_independent_oracle(self):
        for d in (15.0, 40.0, 70.0):
            reg = coincidence_probability(params_for(d), "regularized").probability
            oracle = brute_force_oracle(params_for(d)).probability
            assert reg == pytest.approx(oracle, abs=1e-9)


class TestFactorization:
    def test_full_enumeration_equals_factorized_exactly(self):
        params = params_for(25.0)
        graph = build_bell_graph(params)
        num_full = GradedCoeff.zero()
        z_full = GradedCoeff.zero()
        pred = graph.predicate("D")
        for scenario in graph.scenarios():
            w = dist_integrate(relative_probability(graph, scenario))
            z_full = z_full + w
            if pred.holds(scenario.assignment):
                num_full = num_full + w
        (pl, ml), (pr, mr) = (sum_out_channel(split_backend(params.setting(ch), BETA)) for ch in ("L", "R"))
        num_fact = dist_integrate(dist_mul(pl, pr))
        z_fact = dist_integrate(dist_mul(pl + ml, pr + mr))
        assert num_full == num_fact  # exact GradedCoeff equality
        assert z_full == z_fact


class TestCoincidenceResult:
    def test_probability_validated(self):
        with pytest.raises(ProbabilityOutOfRange):
            CoincidenceResult(1.5, GradedCoeff.one(), GradedCoeff.one(), "exact")

    def test_tiny_negative_clamped(self):
        r = CoincidenceResult(-1e-12, GradedCoeff.one(), GradedCoeff.one(), "exact")
        assert r.probability == 0.0
        assert CoincidenceResult(1 + 1e-9, GradedCoeff.one(), GradedCoeff.one(), "exact").probability == 1.0

    @pytest.mark.parametrize("value", [-2e-9, 1 + 2e-9, math.nan])
    def test_just_past_the_slack_is_refused(self, value):
        with pytest.raises(ProbabilityOutOfRange):
            CoincidenceResult(value, GradedCoeff.one(), GradedCoeff.one(), "exact")


class TestPartitionRatio:
    def test_the_smallest_normal_partition_is_divided(self):
        tiny = sys.float_info.min
        assert partition_ratio(tiny / 4, tiny) == 0.25
        assert partition_ratio(-tiny / 4, -tiny) == 0.25

    @pytest.mark.parametrize("den", [math.nextafter(sys.float_info.min, 0.0), 1e-310, 5e-324, -5e-324])
    def test_a_subnormal_partition_is_refused(self, den):
        with pytest.raises(SubnormalPartition, match="subnormal"):
            partition_ratio(den / 4, den)

    def test_both_numeric_routes_refuse_a_subnormal_partition(self):
        # 30 degrees apart the pass kernels barely overlap, so both routes'
        # partitions are about beta^3: subnormal at 1e-106, normal at 1e-100
        routes = (brute_force_oracle, functools.partial(coincidence_probability, mode="regularized"))
        for route in routes:
            with pytest.raises(SubnormalPartition):
                route(params_for(30.0, beta=1e-106))
            near = route(params_for(30.0, beta=1e-100)).probability
            assert near == pytest.approx(route(params_for(30.0, beta=1e-20)).probability, abs=1e-12)


class TestTriphoton:
    def tri_params(self, **kw):
        kw.setdefault("sigma", 0.05)
        kw.setdefault("grid_n", 96)
        return params_for(0.0, **kw)

    def settings(self, a=10.0, b=25.0, c=40.0):
        return tuple(PolAngle.from_degrees(d) for d in (a, b, c))

    def test_structure(self):
        g = build_triphoton_graph(self.settings(), self.tri_params())
        assert len(g.settings) * len(CHANNEL_FACTORS) == 15

    def test_grid_budget(self):
        with pytest.raises(ValueError, match="grid_n"):
            build_triphoton_graph(self.settings(), self.tri_params(grid_n=MAX_GRID + 1))
        # the contraction allocates O(n), so a fine grid computes
        g = build_triphoton_graph(self.settings(), self.tri_params(grid_n=8192))
        assert 0.0 <= g.triple_coincidence() <= 1.0

    def test_channel_relabeling_invariance(self):
        base = build_triphoton_graph(self.settings(), self.tri_params()).triple_coincidence()
        for perm in itertools.permutations((0, 1, 2)):
            s = self.settings()
            g = build_triphoton_graph(tuple(s[i] for i in perm), self.tri_params())
            assert g.triple_coincidence() == pytest.approx(base, abs=1e-12)

    def test_channel_sums_have_two_plus_one_structure(self):
        # with all settings equal, each channel's sums on the grid must match
        # the closed per-channel form 2*beta*(kernel + perp kernel + beta), alpha 1 on the grid
        p = self.tri_params()
        phi = PolAngle.from_degrees(30.0)
        g = build_triphoton_graph((phi, phi, phi), p)
        theta = grid_points(p.grid_n)[:, None] * np.ones((1, p.grid_n))
        plus, minus = sum_out_channel(grid_backend(theta, phi.value, g.beta, g.sigma))
        two_ab = 2 * p.beta
        expected_plus = two_ab * (
            wrapped_gaussian(theta, phi.value, p.sigma) + p.beta * np.cos(theta - phi.value) ** 2
        )
        expected_minus = two_ab * (
            wrapped_gaussian(theta, phi.value + PI / 2, p.sigma)
            + p.beta * np.sin(theta - phi.value) ** 2
        )
        assert np.abs(plus - expected_plus).max() < 1e-9
        assert np.abs(minus - expected_minus).max() < 1e-9

    def test_requires_three_settings(self):
        with pytest.raises(ValueError):
            build_triphoton_graph(self.settings()[:2], self.tri_params())


# -- cross-route properties on random settings -----------------------------------------

angles = st.floats(0.0, PI, exclude_max=True)


def separated(theta_a: float, theta_b: float) -> Mrf3Params:
    """Settings far enough from equal or orthogonal for the exact route."""
    assume(abs(math.remainder(theta_a - theta_b, PI / 2)) > 0.02)
    return Mrf3Params(PolAngle(theta_a), PolAngle(theta_b))


class TestCrossRoute:
    @settings(max_examples=15, deadline=None)
    @given(angles, angles, st.randoms(use_true_random=False))
    def test_exact_route_equals_fold_and_enumeration(self, theta_a, theta_b, rng):
        params = separated(theta_a, theta_b)
        r = coincidence_probability(params, "exact")
        graph = build_bell_graph(params)
        order = list(graph.features)
        rng.shuffle(order)
        fold = forward_fold(graph, order, (graph.predicate("D"),))
        totals, partition = tally_events(graph, (graph.predicate("D"),))
        # exact GradedCoeff equality
        assert r.numerator == fold.unnormalized["D"] == totals["D"]
        assert r.denominator == fold.partition == partition

    @settings(max_examples=25, deadline=None)
    @given(
        angles,
        st.floats(1e-4, 0.1),
        st.floats(0.005, PI / 16),
    )
    def test_grid_sums_equal_regularized_graded_sums(self, theta, beta, sigma):
        params = Mrf3Params(PolAngle(theta), PolAngle(0.0), beta, sigma, grid_n=512)
        grid = grid_points(params.grid_n)
        on_grid = sum_out_channel(grid_backend(grid, theta, beta, sigma))
        for got, exact in zip(on_grid, sum_out_channel(split_backend(params.setting("L"), BETA))):
            want = regularize(exact.substitute(beta), sigma, params.grid_n).samples
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(st.sampled_from([0.0, PI / 2]), angles),
        angles,
        st.floats(MIN_KERNEL_CELLS * PI / 8192, MAX_SIGMA),
        st.floats(1e-9, MAX_BETA),
    )
    def test_regularized_closed_form_equals_oracle(self, delta, theta_b, sigma, beta):
        # the settings differ by delta; 0 and 90 degrees are the degenerate cases
        params = Mrf3Params(PolAngle(theta_b + delta), PolAngle(theta_b), beta=beta, sigma=sigma)
        closed = coincidence_probability(params, "regularized").probability
        assert closed == pytest.approx(brute_force_oracle(params).probability, abs=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(
        st.tuples(angles, angles, angles),
        st.floats(1e-3, 0.1),
        st.floats(0.02, 0.1),
        st.permutations((0, 1, 2)),
    )
    def test_triphoton_mrf_equals_mstar(self, thetas, beta, sigma, order):
        settings3 = tuple(PolAngle(thetas[i]) for i in order)
        params = Mrf3Params(PolAngle(0.0), PolAngle(0.0), beta=beta, sigma=sigma, grid_n=64)
        mrf = triphoton_compare(settings3, "MRF", params)
        mstar = triphoton_compare(settings3, "Mstar", params)
        assert mrf == pytest.approx(mstar, rel=1e-12, abs=0)
