import itertools
import math

import numpy as np
import pytest

from bellfield.angles import PI, PolAngle
from bellfield.bell import Mrf3Params, coincidence_probability
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
    bell_pair,
    bell_source_ensemble,
    circular_state,
    decompose_linear,
    ghz_state,
    linear_state,
    malus_chain,
    mstar_bell_coincidence,
    normalize_ensemble,
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
            PureState(np.array([1.0, 1.0]))

    def test_density_invariants_checked(self):
        with pytest.raises(NotAState):
            DensityMatrix(np.array([[0.5, 0.5], [0.2, 0.5]]))  # not Hermitian
        with pytest.raises(NotAState):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(NotAState):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue

    def test_bell_pair_is_two_photons(self):
        assert PureState(bell_pair()).n_photons == 2

    def test_ghz_dimension(self):
        assert PureState(ghz_state(3)).n_photons == 3


class TestApplyM:
    def test_eigenstate_fixed_point(self):
        t = deg(33.0)
        rho = DensityMatrix.from_pure(linear_state(t))
        out = apply_M(rho, 0, t)
        assert np.abs(out.entries - rho.entries).max() < 1e-12

    def test_maximally_mixed_fixed_point(self):
        rho = DensityMatrix.maximally_mixed(1)
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


class TestDecomposeLinear:
    def test_pure_linear_single_atom(self):
        t = deg(25.0)
        rho0, atoms = decompose_linear(DensityMatrix.from_pure(linear_state(t)))
        assert len(atoms) == 1
        assert atoms[0][0] == t
        assert atoms[0][1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho0).max() < 1e-12

    def test_circular_splits_to_axes_plus_residue(self):
        rho = DensityMatrix.from_pure(circular_state("C"))
        rho0, atoms = decompose_linear(rho)
        angles = sorted(round(a.degrees, 6) for a, _ in atoms)
        assert angles == [0.0, 90.0]
        assert all(w == pytest.approx(0.5, abs=1e-12) for _, w in atoms)
        recon = rho0.copy()
        for a, w in atoms:
            v = linear_state(a)
            recon = recon + w * np.outer(v, v.conj())
        assert np.abs(recon - rho.entries).max() < 1e-12

    def test_two_angle_mixture(self):
        v1, v2 = linear_state(deg(0.0)), linear_state(deg(40.0))
        rho = DensityMatrix(0.5 * np.outer(v1, v1.conj()) + 0.5 * np.outer(v2, v2.conj()))
        rho0, atoms = decompose_linear(rho)
        assert np.abs(rho0).max() < 1e-12
        assert len(atoms) == 2
        recon = sum(w * np.outer(linear_state(a), linear_state(a).conj()) for a, w in atoms)
        assert np.abs(recon - rho.entries).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_random_reconstruction(self, seed):
        rho = random_density(1)
        rho0, atoms = decompose_linear(rho)
        recon = rho0.copy()
        for a, w in atoms:
            assert w > -1e-10
            v = linear_state(a)
            recon = recon + w * np.outer(v, v.conj())
        assert np.abs(recon - rho.entries).max() < 1e-12

    def test_multi_photon_rejected(self):
        with pytest.raises(NotAState):
            decompose_linear(DensityMatrix.from_pure(bell_pair()))


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

    def test_mode_mismatch_rejected(self):
        ens = bell_source_ensemble()  # exact-mode correlation
        reg = PolarizerSetting(deg(30.0), beta=1e-3, sigma=0.01)
        with pytest.raises(ValueError):
            apply_Mstar(ens, 0, reg)


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

    def test_finite_beta_with_exact_atoms(self):
        # numeric beta, point masses kept exact: value sits a beta-sized
        # step below the limit
        got = mstar_bell_coincidence(deg(30.0), deg(0.0), beta=1e-3)
        assert got == pytest.approx(0.375, abs=1e-3)
        assert got != 0.375


class TestPolarizerSetting:
    def test_regularized_needs_sigma_and_beta(self):
        with pytest.raises(ValueError):
            PolarizerSetting(deg(0.0), sigma=0.01)
        with pytest.raises(ValueError):
            PolarizerSetting(deg(0.0), beta=1e-3, sigma=0.0)

    def test_beta_positive(self):
        with pytest.raises(ValueError):
            PolarizerSetting(deg(0.0), beta=0.0)

    @pytest.mark.parametrize("grid_n", [0, MAX_GRID + 1])
    def test_grid_n_bounded(self, grid_n):
        with pytest.raises(ValueError, match="grid_n"):
            PolarizerSetting(deg(0.0), beta=1e-3, sigma=0.01, grid_n=grid_n)
        with pytest.raises(ValueError, match="grid_n"):
            bell_source_ensemble(sigma=0.01, grid_n=grid_n)
        with pytest.raises(ValueError, match="grid_n"):
            mstar_bell_coincidence(deg(30.0), deg(0.0), 1e-3, sigma=0.01, grid_n=grid_n)

    def test_grid_n_checked_before_allocating(self, monkeypatch):
        # a grid of 10**9 points would need 7.45 GiB; the bound refuses it first
        monkeypatch.setattr(np, "ones", lambda *a, **kw: pytest.fail("allocated"))
        with pytest.raises(ValueError, match="grid_n"):
            mstar_bell_coincidence(deg(30.0), deg(0.0), 1e-3, sigma=0.01, grid_n=10**9)


class TestTriphoton:
    def params(self):
        return Mrf3Params(deg(0.0), deg(0.0), sigma=0.05, grid_n=96)

    def settings(self):
        return (deg(10.0), deg(25.0), deg(40.0))

    def test_m_model_order_invariant(self):
        probs = [
            triphoton_compare(self.settings(), order, "M").probability
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
        assert triphoton_compare(s, (0, 1, 2), "M").probability == pytest.approx(
            expected, abs=1e-12
        )

    def test_m_model_all_zero_settings(self):
        s = (deg(0.0),) * 3
        assert triphoton_compare(s, (0, 1, 2), "M").probability == pytest.approx(0.5, abs=1e-12)

    def test_mstar_matches_mrf(self):
        got_mstar = triphoton_compare(self.settings(), (0, 1, 2), "Mstar", self.params())
        got_mrf = triphoton_compare(self.settings(), (0, 1, 2), "MRF", self.params())
        assert got_mstar.probability == pytest.approx(got_mrf.probability, abs=1e-9)

    def test_mstar_order_invariant(self):
        probs = [
            triphoton_compare(self.settings(), order, "Mstar", self.params()).probability
            for order in itertools.permutations((0, 1, 2))
        ]
        assert max(probs) - min(probs) < 1e-12

    def test_models_need_params(self):
        with pytest.raises(ValueError):
            triphoton_compare(self.settings(), (0, 1, 2), "Mstar")

    @pytest.mark.parametrize("model", ["Mstar", "MRF"])
    @pytest.mark.parametrize(
        "knobs, error",
        [
            # over the grid bound: refused before the axis is allocated
            ({"grid_n": MAX_GRID + 1}, ValueError),
            ({"beta": 0.5}, ValueError),
            # a kernel this narrow peaks so high that the partition is not finite
            ({"sigma": 1e-300, "grid_n": 1}, OverflowError),
        ],
    )
    def test_numeric_knobs_checked_on_both_routes(self, model, knobs, error):
        params = Mrf3Params(deg(0.0), deg(0.0), **{"sigma": 0.05, "grid_n": 96, **knobs})
        with pytest.raises(error):
            triphoton_compare((deg(0.0),) * 3, (0, 1, 2), model, params)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            triphoton_compare(self.settings(), (0, 0, 2), "M")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            triphoton_compare(self.settings(), (0, 1, 2), "XYZ", self.params())
