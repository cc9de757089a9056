import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellfield.angles import PI, PolAngle
from bellfield.bell import (
    BETA,
    Mrf3Params,
    ParameterError,
    coincidence_probability,
    contract_channels,
    split_backend,
    sum_out_channel,
)
from bellfield.dist import MAX_GRID, DeltaCollision, DistFn, dist_mul
from bellfield.graded import GradedCoeff
from bellfield.quantum import (
    AbsorbedTag,
    Branch,
    BranchEnsemble,
    CircularTag,
    DensityMatrix,
    LinearTag,
    NotAState,
    PolarizerSetting,
    ZeroEnsemble,
    apply_M,
    apply_Mstar,
    bell_coincidence_qm,
    bell_source_ensemble,
    circular_ghz_state,
    ghz_state,
    linear_state,
    malus_chain,
    mstar_bell_coincidence,
    normalize_ensemble,
    qm_coincidence,
    triphoton_compare,
)

RNG = np.random.default_rng(20240817)


def random_density(n_photons: int) -> DensityMatrix:
    d = 2**n_photons
    g = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def deg(x) -> PolAngle:
    return PolAngle.from_degrees(x)


class TestStates:
    def test_pure_state_norm_checked(self):
        with pytest.raises(NotAState):
            DensityMatrix.from_pure(np.array([1.0, 1.0]))

    def test_density_invariants_checked(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.array([[0.5, 0.5], [0.2, 0.5]]))  # not Hermitian
        with pytest.raises(NotAState):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(NotAState):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue

    def test_bell_pair_is_two_photons(self):
        assert DensityMatrix.from_pure(ghz_state(2)).n_photons == 2

    def test_ghz_dimension(self):
        assert DensityMatrix.from_pure(ghz_state(3)).n_photons == 3

    @pytest.mark.parametrize("photons", [2, 3, 4])
    def test_source_states_are_pure_states(self, photons):
        # qm_coincidence reads ghz_state's amplitudes unchecked
        for state in (ghz_state(photons), circular_ghz_state(photons)):
            assert DensityMatrix.from_pure(state).n_photons == photons


class TestApplyM:
    def test_eigenstate_fixed_point(self):
        t = deg(33.0)
        rho = DensityMatrix.from_pure(linear_state(t))
        out = apply_M(rho, 0, t)
        assert np.abs(out.entries - rho.entries).max() < 1e-12

    def test_maximally_mixed_fixed_point(self):
        rho = DensityMatrix(np.eye(2) / 2)
        out = apply_M(rho, 0, deg(33.0))
        assert np.abs(out.entries - rho.entries).max() < 1e-12

    def test_forty_five_degree_split(self):
        t = deg(10.0)
        rho = DensityMatrix.from_pure(linear_state(deg(55.0)))
        out = apply_M(rho, 0, t)
        va, vp = linear_state(t), linear_state(t.perpendicular())
        expected = 0.5 * np.outer(va, va.conj()) + 0.5 * np.outer(vp, vp.conj())
        assert np.abs(out.entries - expected).max() < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_channel_properties_random_states(self, seed):
        rho = random_density(1)
        t = PolAngle(RNG.uniform(0, PI))
        out = apply_M(rho, 0, t)
        again = apply_M(out, 0, t)
        assert abs(np.trace(out.entries) - 1.0) < 1e-12
        assert np.abs(out.entries - out.entries.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(out.entries).min() > -1e-10
        assert np.abs(again.entries - out.entries).max() < 1e-12  # idempotent

    @pytest.mark.parametrize("seed", range(10))
    def test_distinct_subsystems_commute(self, seed):
        rho = random_density(2)
        ta, tb = PolAngle(RNG.uniform(0, PI)), PolAngle(RNG.uniform(0, PI))
        ab = apply_M(apply_M(rho, 0, ta), 1, tb)
        ba = apply_M(apply_M(rho, 1, tb), 0, ta)
        assert np.abs(ab.entries - ba.entries).max() < 1e-12

    def test_subsystem_out_of_range(self):
        with pytest.raises(IndexError):
            apply_M(random_density(1), 1, deg(0.0))


class TestBellCoincidenceQm:
    @pytest.mark.parametrize("d,expected", [(0.0, 0.5), (90.0, 0.0), (30.0, 0.375)])
    def test_closed_form(self, d, expected):
        assert bell_coincidence_qm(deg(d), deg(0.0)) == pytest.approx(expected, abs=1e-12)

    def test_sweep_against_half_law(self):
        for d in range(10, 90, 10):
            got = bell_coincidence_qm(deg(d), deg(0.0))
            assert got == pytest.approx(0.5 * math.cos(math.radians(d)) ** 2, abs=1e-12)


class TestQmCoincidence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.lists(st.floats(-360.0, 360.0), min_size=n, max_size=n)))
    def test_ghz_overlap_in_every_order(self, degrees):
        # dephasing each arm in its own basis, in any order, before the pass
        # projectors leaves the Born rule |<phi_1 ... phi_N|GHZ>|^2
        phis = [deg(d) for d in degrees]
        cos = math.prod(math.cos(t.value) for t in phis)
        sin = math.prod(math.sin(t.value) for t in phis)
        expected = 0.5 * (cos + sin) ** 2
        got = qm_coincidence(phis)
        assert got == pytest.approx(expected, rel=0, abs=1e-12)
        ghz = DensityMatrix.from_pure(ghz_state(len(phis)))
        proj = reduce(np.kron, [np.outer(linear_state(t), linear_state(t).conj()) for t in phis])
        for order in itertools.permutations(range(len(phis))):
            rho = ghz
            for k in order:
                rho = apply_M(rho, k, phis[k])
            dephased = float(np.trace(proj @ rho.entries).real)
            assert dephased == pytest.approx(got, rel=0, abs=1e-15)
            assert dephased == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("photons", [2, 3, 4])
    def test_python_amplitudes_match_the_numpy_born_rule(self, photons):
        # the row multiplies Python complex amplitudes; numpy's product with
        # the dense ghz_state may round the pair's sum differently, by an ulp
        rng = np.random.default_rng(40 + photons)
        for _ in range(500):
            phis = [PolAngle(t) for t in rng.uniform(-PI, PI, photons)]
            assert abs(qm_coincidence(phis) - born_all_pass(phis, ghz_state(photons))) <= 2.2e-16


def born_all_pass(settings_n, state) -> float:
    """Probability that every photon of ``state`` passes: the Born rule on
    the product of the pass modes, written out for the test."""
    v = reduce(np.multiply.outer, [linear_state(t) for t in settings_n]).ravel()
    return abs(v.conj() @ state) ** 2


class TestCircularGhz:
    """The circular GHZ state (|R...R> + |L...L>)/sqrt(2) gives the random-field
    model's N-photon limit cos^2(sum theta)/2^(N-1)."""

    @pytest.mark.parametrize("photons", [2, 3, 4])
    def test_coincidence_is_the_cosine_of_the_angle_sum(self, photons):
        rng = np.random.default_rng(30 + photons)
        state = circular_ghz_state(photons)
        assert DensityMatrix.from_pure(state).n_photons == photons
        for _ in range(50):
            settings_n = [PolAngle(t) for t in rng.uniform(-PI, PI, photons)]
            want = math.cos(sum(t.value for t in settings_n)) ** 2 / 2 ** (photons - 1)
            assert born_all_pass(settings_n, state) == pytest.approx(want, rel=0, abs=1e-12)

    def test_three_photon_closed_form_route_matches(self):
        # the graph route in closed form, near its limit: sigma 1e-6, beta 1e-9;
        # its distance from the limit is first order in beta, at most about
        # 0.0987 beta (3000 random settings), so 9.9e-11 here
        rng = np.random.default_rng(33)
        state = circular_ghz_state(3)
        for _ in range(50):
            settings3 = [PolAngle(t) for t in rng.uniform(-PI, PI, 3)]
            sums = [sum_out_channel(split_backend(t, 1e-9)) for t in settings3]
            num, den = contract_channels(sums, 1e-6)
            assert num / den == pytest.approx(born_all_pass(settings3, state), rel=0, abs=1e-10)

    def test_the_linear_state_differs_from_three_photons_up(self):
        settings3 = [deg(10), deg(25), deg(40)]
        assert born_all_pass(settings3, circular_ghz_state(3)) == pytest.approx(0.016747, abs=1e-6)
        assert born_all_pass(settings3, ghz_state(3)) == pytest.approx(0.267105, abs=1e-6)
        assert qm_coincidence(settings3) == pytest.approx(0.267105, abs=1e-6)


class TestMalusChain:
    def test_aligned_passes(self):
        assert malus_chain(deg(0.0), [deg(0.0)]) == pytest.approx(1.0, abs=1e-15)

    def test_order_sensitivity(self):
        assert malus_chain(deg(0.0), [deg(45.0), deg(90.0)]) == pytest.approx(0.25, abs=1e-15)
        assert malus_chain(deg(0.0), [deg(90.0), deg(45.0)]) == pytest.approx(0.0, abs=1e-15)

    def test_unpolarized_input(self):
        assert malus_chain("unpolarized", [deg(0.0), deg(45.0)]) == pytest.approx(0.25, abs=1e-12)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            malus_chain(deg(0.0), [])


def one_branch(tag, weight=None):
    return BranchEnsemble((Branch(weight or GradedCoeff.one(), (tag,)),))


class TestApplyMstar:
    def setting(self, d=0.0, **kw):
        return PolarizerSetting(deg(d), **kw)

    def test_aligned_branch_passes_at_order_zero(self):
        out = apply_Mstar(one_branch(LinearTag(deg(0.0))), 0, self.setting())
        assert len(out.branches) == 1
        b = out.branches[0]
        assert b.tags[0] == LinearTag(deg(0.0))
        assert b.weight == GradedCoeff.one()

    def test_orthogonal_branch_continues_blocked(self):
        out = apply_Mstar(one_branch(LinearTag(deg(90.0))), 0, self.setting())
        assert len(out.branches) == 1
        assert out.branches[0].tags[0] == LinearTag(deg(90.0))
        assert out.branches[0].weight == GradedCoeff.one()

    def test_oblique_branch_splits_at_cost_beta(self):
        out = apply_Mstar(one_branch(LinearTag(deg(45.0))), 0, self.setting())
        assert len(out.branches) == 2
        for b in out.branches:
            assert b.weight.min_beta_order() == 1
            # cos^2(45deg) carries float rounding; compare numerically
            assert b.weight.eval(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_circular_branch_splits_evenly(self):
        out = apply_Mstar(one_branch(CircularTag("C")), 0, self.setting())
        assert len(out.branches) == 2
        for b in out.branches:
            assert b.weight == GradedCoeff.beta() * 0.5

    def test_absorbed_branch_untouched(self):
        ens = one_branch(AbsorbedTag())
        out = apply_Mstar(ens, 0, self.setting())
        assert out.branches == ens.branches

    def test_source_branch_acquires_split_factors(self):
        ens = bell_source_ensemble()
        out = apply_Mstar(ens, 0, self.setting(30.0))
        assert len(out.branches) == 2
        passed = next(b for b in out.branches if b.tags[0] == LinearTag(deg(30.0)))
        assert passed.angle_weight.atom_weight_at(deg(30.0)) == GradedCoeff.one()


class TestApplyMstarReadsTheSplit:
    """Every weight ``apply_Mstar`` gives comes from the arm's pass and block
    split (``split_backend``), at a formal or a numeric beta."""

    angles = st.floats(-PI, PI)
    betas = st.one_of(st.none(), st.floats(1e-6, 0.1))
    weights = st.one_of(
        st.floats(1e-3, 10.0).map(GradedCoeff.constant),
        st.floats(1e-3, 10.0).map(lambda c: GradedCoeff({1: c, 2: -c})),
    )

    @settings(max_examples=60, deadline=None)
    @given(angles, betas, weights)
    def test_on_axis_photon_keeps_its_weight(self, theta0, beta, w):
        setting = PolarizerSetting(PolAngle(theta0), beta)
        for axis in (setting.theta0, setting.theta0.perpendicular()):
            out = apply_Mstar(one_branch(LinearTag(axis), w), 0, setting)
            assert [(b.tags, b.weight) for b in out.branches] == [((LinearTag(axis),), w)]

    @settings(max_examples=200, deadline=None)
    @given(angles, angles, betas, weights)
    # the far tail is exactly negative, and its float is -0.0; once a ValueError
    @example(1e-09, 2.2250738585e-313, 0.00390625, GradedCoeff.constant(1.0))
    def test_oblique_photon_takes_both_tails(self, theta0, theta, beta, w):
        setting = PolarizerSetting(PolAngle(theta0), beta)
        perp = setting.theta0.perpendicular()
        tag = LinearTag(PolAngle(theta))
        assume(tag.angle != setting.theta0 and tag.angle != perp)
        passed, blocked = apply_Mstar(one_branch(tag), 0, setting).branches
        assert (passed.tags, blocked.tags) == ((LinearTag(setting.theta0),), (LinearTag(perp),))
        d = tag.angle.value - setting.theta0.value
        scale = 1.0 if beta is None else beta
        assert abs(passed.weight.eval(1.0) - scale * math.cos(d) ** 2) <= 1e-15
        assert abs(blocked.weight.eval(1.0) - scale * math.sin(d) ** 2) <= 1e-15
        # the two tails add up to beta exactly, no weight lost to rounding,
        # unless the far one rounded below zero and was taken as zero
        passed, blocked = apply_Mstar(one_branch(tag, w), 0, setting).branches
        if not (passed.weight.is_zero or blocked.weight.is_zero):
            assert passed.weight + blocked.weight == w * setting.beta_coeff

    @pytest.mark.parametrize("beta", [None, 1e-3])
    @pytest.mark.parametrize("offset", [1e-9, -1e-9, 5e-9])
    def test_far_tail_below_rounding_is_zero(self, beta, offset):
        # beta sin^2(1e-9) is 1e-18 beta, below the split's rounding of
        # beta/2 (cos 2theta_p cos 2theta + sin 2theta_p sin 2theta); it may
        # round to a negative weight, which no ensemble may hold
        rng = np.random.default_rng(int(offset * 1e9) + 10)
        for theta0 in rng.uniform(-PI, PI, 50):
            setting = PolarizerSetting(PolAngle(theta0), beta)
            for axis in (setting.theta0, setting.theta0.perpendicular()):
                out = apply_Mstar(one_branch(LinearTag(PolAngle(axis.value + offset))), 0, setting)
                near, far = sorted(out.branches, key=lambda b: b.tags[0] != LinearTag(axis))
                assert near.tags == (LinearTag(axis),)
                assert abs(near.weight.eval(1.0) - (beta or 1.0)) <= 1e-15
                assert 0 <= far.weight.eval(1.0) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(angles, betas, weights)
    def test_circular_photon_takes_half_beta_on_each_side(self, theta0, beta, w):
        setting = PolarizerSetting(PolAngle(theta0), beta)
        half = (BETA if beta is None else GradedCoeff.constant(beta)) * 0.5
        for weight in (GradedCoeff.one(), w):
            out = apply_Mstar(one_branch(CircularTag(), weight), 0, setting)
            assert [b.weight for b in out.branches] == [weight * half] * 2

    @settings(max_examples=30, deadline=None)
    @given(angles, betas)
    def test_source_branch_takes_each_split(self, theta0, beta):
        setting = PolarizerSetting(PolAngle(theta0), beta)
        split = split_backend(setting.theta0, setting.beta_coeff)
        out = apply_Mstar(bell_source_ensemble(), 0, setting)
        assert [b.angle_weight for b in out.branches] == [
            dist_mul(DistFn.one(), split[side]) for side in ("pass", "block")
        ]


class TestNormalizeEnsemble:
    def test_equal_branches(self):
        ens = BranchEnsemble(
            (
                Branch(GradedCoeff.constant(3), (LinearTag(deg(0.0)),)),
                Branch(GradedCoeff.constant(3), (LinearTag(deg(90.0)),)),
            )
        )
        out, trace = normalize_ensemble(ens)
        assert [float(b.weight.constant_value()) for b in out.branches] == [0.5, 0.5]
        assert trace == GradedCoeff.constant(6)

    def test_graded_limit_drops_higher_order(self):
        ens = BranchEnsemble(
            (
                Branch(GradedCoeff.one(), (LinearTag(deg(0.0)),)),
                Branch(GradedCoeff.beta(), (LinearTag(deg(90.0)),)),
            )
        )
        out, _ = normalize_ensemble(ens)
        weights = [float(b.weight.constant_value()) for b in out.branches]
        assert weights == [1.0, 0.0]

    def test_finite_beta_keeps_both(self):
        b = 0.25
        ens = BranchEnsemble(
            (
                Branch(GradedCoeff.constant(1), (LinearTag(deg(0.0)),)),
                Branch(GradedCoeff.constant(b), (LinearTag(deg(90.0)),)),
            )
        )
        out, _ = normalize_ensemble(ens)
        weights = [float(b.weight.constant_value()) for b in out.branches]
        assert weights[0] == pytest.approx(1 / (1 + b))
        assert weights[1] == pytest.approx(b / (1 + b))

    def test_weights_sum_to_one(self):
        ens = apply_Mstar(one_branch(LinearTag(deg(30.0))), 0, PolarizerSetting(deg(0.0)))
        out, _ = normalize_ensemble(ens)
        assert sum(float(b.weight.constant_value()) for b in out.branches) == pytest.approx(1.0)

    def test_zero_ensemble(self):
        with pytest.raises(ZeroEnsemble):
            BranchEnsemble((Branch(GradedCoeff.zero(), (LinearTag(deg(0.0)),)),))

    def test_negative_leading_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BranchEnsemble((Branch(GradedCoeff.constant(-1), (LinearTag(deg(0.0)),)),))


class TestMstarBell:
    def test_matches_graph_model_across_sweep(self):
        for d in range(10, 90, 10):
            mstar = mstar_bell_coincidence(deg(d), deg(0.0))
            mrf = coincidence_probability(
                Mrf3Params(deg(d), deg(0.0)), "exact"
            ).probability
            assert mstar == pytest.approx(mrf, abs=1e-9), f"delta={d}"

    @given(st.floats(0.0, 180.0, exclude_max=True), st.floats(0.0, 180.0, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_matches_graph_model_at_random_pairs(self, a, b):
        # non-degenerate: the settings are neither equal nor orthogonal
        apart = abs(a - b) % 90.0
        assume(b != 0.0 and min(apart, 90.0 - apart) >= 0.05)
        mstar = mstar_bell_coincidence(deg(a), deg(b))
        mrf = coincidence_probability(Mrf3Params(deg(a), deg(b)), "exact").probability
        assert mstar == pytest.approx(mrf, rel=0, abs=1e-9)

    def test_orthogonal_regularized(self):
        # one polarizer's pass axis is the other's blocked axis, so the
        # exact point masses collide; the regularized route gives zero
        got = mstar_bell_coincidence(deg(90.0), deg(0.0), beta=1e-3, sigma=0.005)
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_degenerate_settings_exact_collide(self):
        with pytest.raises(DeltaCollision):
            mstar_bell_coincidence(deg(0.0), deg(0.0))
        with pytest.raises(DeltaCollision):
            mstar_bell_coincidence(deg(90.0), deg(0.0))

    def test_equal_settings_regularized(self):
        got = mstar_bell_coincidence(deg(0.0), deg(0.0), beta=1e-3, sigma=0.005)
        assert got == pytest.approx(0.5, abs=1e-3)

    def test_finite_beta_numeric_mode(self):
        got = mstar_bell_coincidence(deg(30.0), deg(0.0), beta=1e-3, sigma=0.01)
        assert got == pytest.approx(0.375, abs=1e-3)

    @pytest.mark.parametrize("d", [0.0, 11.6, 30.0, 90.0])
    @pytest.mark.parametrize("sigma", [0.005, 0.04])
    def test_regularized_equals_graph_closed_form(self, d, sigma):
        params = Mrf3Params(deg(d), deg(0.0), beta=1e-3, sigma=sigma)
        mrf = coincidence_probability(params, "regularized").probability
        got = mstar_bell_coincidence(deg(d), deg(0.0), beta=1e-3, sigma=sigma)
        assert got == pytest.approx(mrf, rel=0, abs=1e-12)

    @pytest.mark.parametrize("theta_a", [1e-12, -1e-12, 5e-324])
    def test_regularized_near_equal_at_the_narrowest_sigma(self, theta_a):
        # the reflected location sum misses 0 mod pi by about 1e-12, some
        # 1e288 widths: those images weigh 0.0 and must not overflow
        got = mstar_bell_coincidence(PolAngle(theta_a), deg(0.0), beta=1e-3, sigma=1e-300)
        assert 0.0 <= got <= 1.0

    @pytest.mark.parametrize(
        "knobs, key",
        [
            ({"beta": math.nan}, "beta"),
            ({"beta": 0.5}, "beta"),
            ({"beta": 0.0}, "beta"),
        ],
    )
    def test_exact_path_checks_numeric_knobs(self, knobs, key):
        with pytest.raises(ParameterError) as err:
            mstar_bell_coincidence(deg(60.0), deg(0.0), **knobs)
        assert err.value.key == key

    def test_finite_beta_with_exact_atoms(self):
        # numeric beta, point masses kept exact: value sits a beta-sized
        # step below the limit
        got = mstar_bell_coincidence(deg(30.0), deg(0.0), beta=1e-3)
        assert got == pytest.approx(0.375, abs=1e-3)
        assert got != 0.375


class TestPolarizerSetting:
    def test_regularized_needs_sigma_and_beta(self):
        # the regularized knobs now belong to mstar_bell_coincidence alone
        with pytest.raises(ValueError, match="numeric beta"):
            mstar_bell_coincidence(deg(0.0), deg(0.0), sigma=0.01)
        for knobs in ({"sigma": 0.0}, {"sigma": math.nan}, {"sigma": 0.5}):
            with pytest.raises(ValueError):
                mstar_bell_coincidence(deg(0.0), deg(0.0), 1e-3, **{"sigma": 0.01, **knobs})
        with pytest.raises(ValueError, match="beta"):
            mstar_bell_coincidence(deg(0.0), deg(0.0), 0.5, sigma=0.01)

    def test_beta_positive(self):
        with pytest.raises(ValueError):
            PolarizerSetting(deg(0.0), beta=0.0)


class TestTriphoton:
    def params(self):
        return Mrf3Params(deg(0.0), deg(0.0), sigma=0.05, grid_n=96)

    def settings(self):
        return (deg(10.0), deg(25.0), deg(40.0))

    def test_m_model_closed_form(self):
        # the Born rule on the GHZ state, in closed form:
        # |<phi1 phi2 phi3|ghz>|^2 = (prod cos + prod sin)^2 / 2
        s = self.settings()
        cos = math.prod(math.cos(t.value) for t in s)
        sin = math.prod(math.sin(t.value) for t in s)
        expected = 0.5 * (cos + sin) ** 2
        assert triphoton_compare(s, "M") == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("model", ["Mstar", "MRF"])
    def test_near_zero_sum_at_the_narrowest_sigma(self, model):
        # the settings sum to 1e-10 degrees, off 0 mod pi by 1e286 widths
        s = (deg(1e-10), deg(0.0), deg(0.0))
        params = Mrf3Params(deg(0.0), deg(0.0), sigma=1e-300)
        assert 0.0 <= triphoton_compare(s, model, params) <= 1.0

    def test_m_model_all_zero_settings(self):
        s = (deg(0.0),) * 3
        assert triphoton_compare(s, "M") == pytest.approx(0.5, abs=1e-12)

    def test_mstar_matches_mrf(self):
        got_mstar = triphoton_compare(self.settings(), "Mstar", self.params())
        got_mrf = triphoton_compare(self.settings(), "MRF", self.params())
        assert got_mstar == pytest.approx(got_mrf, rel=1e-12, abs=0)

    def test_mstar_order_invariant(self):
        probs = [
            triphoton_compare(settings, "Mstar", self.params())
            for settings in itertools.permutations(self.settings())
        ]
        assert max(probs) - min(probs) < 1e-12

    def test_models_need_params(self):
        with pytest.raises(ValueError):
            triphoton_compare(self.settings(), "Mstar")

    @pytest.mark.parametrize("model", ["Mstar", "MRF", "regularized"])
    @pytest.mark.parametrize(
        "knobs, error",
        [
            # over the grid bound: refused, though no route here has a grid
            ({"grid_n": MAX_GRID + 1}, ValueError),
            ({"beta": 0.5}, ValueError),
            # a kernel this narrow peaks above the largest float, so the partition is not finite
            ({"sigma": 5e-324, "grid_n": 1}, OverflowError),
            # refused by the check, not reported later as a non-finite partition
            ({"sigma": math.nan}, ValueError),
        ],
    )
    def test_numeric_knobs_checked_on_both_routes(self, model, knobs, error):
        with pytest.raises(error):
            # built inside: the params refuse a bad knob on construction
            params = Mrf3Params(deg(0.0), deg(0.0), **{"sigma": 0.05, "grid_n": 96, **knobs})
            if model == "regularized":  # the two-photon closed form, at equal settings
                coincidence_probability(params, "regularized")
            else:
                triphoton_compare((deg(0.0),) * 3, model, params)

    @pytest.mark.parametrize("model", ["M", "Mstar", "MRF"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_needs_three_settings(self, model, n):
        angles = (deg(10.0), deg(20.0), deg(30.0), deg(40.0))[:n]
        with pytest.raises(ValueError, match="three"):
            triphoton_compare(angles, model, self.params())

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            triphoton_compare(self.settings(), "XYZ", self.params())
