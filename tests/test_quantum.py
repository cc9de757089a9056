import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellfield.angles import PI, PolAngle
from bellfield.bell import Mrf3Params, ParameterError, coincidence_probability
from bellfield.dist import MAX_GRID, DeltaCollision
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
    PureState,
    ZeroEnsemble,
    apply_M,
    apply_Mstar,
    bell_coincidence_qm,
    bell_source_ensemble,
    ghz_state,
    linear_state,
    malus_chain,
    mstar_bell_coincidence,
    normalize_ensemble,
    qm_coincidence,
    triphoton_compare,
    _kron,
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
            PureState(np.array([1.0, 1.0]))

    def test_density_invariants_checked(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.array([[0.5, 0.5], [0.2, 0.5]]))  # not Hermitian
        with pytest.raises(NotAState):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(NotAState):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue

    def test_bell_pair_is_two_photons(self):
        assert PureState(ghz_state(2)).n_photons == 2

    def test_ghz_dimension(self):
        assert PureState(ghz_state(3)).n_photons == 3


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


class TestKron:
    @staticmethod
    def matrix(rng, n, dtype):
        m = rng.normal(size=(n, n))
        return m + 1j * rng.normal(size=(n, n)) if dtype is complex else m

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equals_np_kron(self, n, dtype):
        rng = np.random.default_rng(n)
        a, b, small = self.matrix(rng, n, dtype), self.matrix(rng, n, dtype), self.matrix(rng, 2, dtype)
        for x, y in ((a, b), (small, a), (a, small)):
            assert np.array_equal(_kron(x, y), np.kron(x, y))


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
        # dephasing before the pass projectors leaves |<phi_1 ... phi_N|GHZ>|^2
        phis = [deg(d) for d in degrees]
        cos = math.prod(math.cos(t.value) for t in phis)
        sin = math.prod(math.sin(t.value) for t in phis)
        expected = 0.5 * (cos + sin) ** 2
        for order in itertools.permutations(range(len(phis))):
            assert qm_coincidence(phis, order) == pytest.approx(expected, rel=0, abs=1e-12)


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
            assert b.weight.eval(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

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
            ({"beta": 1e-3, "alpha": -1.0}, "alpha"),
            ({"beta": 0.5}, "beta"),
            ({"beta": 0.0}, "beta"),
            ({"beta": math.nan}, "beta"),
            ({"alpha": 5.0}, "alpha"),
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
        for knobs in ({"sigma": 0.0}, {"sigma": math.nan}, {"sigma": 0.5}, {"alpha": 5.0}):
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

    def test_m_model_order_invariant(self):
        probs = [
            triphoton_compare(self.settings(), order, "M")
            for order in itertools.permutations((0, 1, 2))
        ]
        assert max(probs) - min(probs) < 1e-12

    def test_m_model_closed_form(self):
        # the dephase-then-project pipeline must match the direct overlap
        # |<phi1 phi2 phi3|ghz>|^2 = (prod cos + prod sin)^2 / 2
        s = self.settings()
        cos = math.prod(math.cos(t.value) for t in s)
        sin = math.prod(math.sin(t.value) for t in s)
        expected = 0.5 * (cos + sin) ** 2
        assert triphoton_compare(s, (0, 1, 2), "M") == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("model", ["Mstar", "MRF"])
    def test_near_zero_sum_at_the_narrowest_sigma(self, model):
        # the settings sum to 1e-10 degrees, off 0 mod pi by 1e286 widths
        s = (deg(1e-10), deg(0.0), deg(0.0))
        params = Mrf3Params(deg(0.0), deg(0.0), sigma=1e-300)
        assert 0.0 <= triphoton_compare(s, (0, 1, 2), model, params) <= 1.0

    def test_m_model_all_zero_settings(self):
        s = (deg(0.0),) * 3
        assert triphoton_compare(s, (0, 1, 2), "M") == pytest.approx(0.5, abs=1e-12)

    def test_mstar_matches_mrf(self):
        got_mstar = triphoton_compare(self.settings(), (0, 1, 2), "Mstar", self.params())
        got_mrf = triphoton_compare(self.settings(), (0, 1, 2), "MRF", self.params())
        assert got_mstar == pytest.approx(got_mrf, rel=1e-12, abs=0)

    def test_mstar_order_invariant(self):
        probs = [
            triphoton_compare(self.settings(), order, "Mstar", self.params())
            for order in itertools.permutations((0, 1, 2))
        ]
        assert max(probs) - min(probs) < 1e-12

    def test_models_need_params(self):
        with pytest.raises(ValueError):
            triphoton_compare(self.settings(), (0, 1, 2), "Mstar")

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
                triphoton_compare((deg(0.0),) * 3, (0, 1, 2), model, params)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            triphoton_compare(self.settings(), (0, 0, 2), "M")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            triphoton_compare(self.settings(), (0, 1, 2), "XYZ", self.params())
