import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellfield.angles import PI, PolAngle
from bellfield.dist import (
    MAX_HARMONIC,
    DeltaCollision,
    DistFn,
    HarmonicOverflow,
    RegularizedDistFn,
    SigmaTooCoarse,
    dist_integrate,
    dist_mul,
    grid_points,
    regularize,
    wrapped_gaussian,
)
from bellfield.graded import GradedCoeff

PI_FRAC = Fraction(math.pi)


class TestPolAngle:
    def test_reduced_into_half_turn(self):
        assert 0 <= PolAngle(7.0).value < PI
        assert PolAngle(-0.1) == PolAngle(PI - 0.1)

    @given(st.floats(-50, 50), st.integers(-5, 5))
    def test_half_turn_periodicity(self, x, k):
        assert PolAngle(x + k * PI) == PolAngle(x)

    def test_equality_tolerance(self):
        assert PolAngle(0.5) == PolAngle(0.5 + 1e-13)
        assert PolAngle(0.5) != PolAngle(0.5 + 1e-9)
        assert PolAngle(1e-13) == PolAngle(PI - 1e-13)  # wraps across zero

    def test_perpendicular_is_involutive(self):
        t = PolAngle(0.3)
        assert t.perpendicular().perpendicular() == t
        assert t.separation(t.perpendicular()) == pytest.approx(PI / 2)

    def test_degrees_round_trip(self):
        assert PolAngle.from_degrees(60.0).degrees == pytest.approx(60.0)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(PolAngle(0.1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PolAngle(float("inf"))


class TestDistMul:
    def test_atom_sifts_smooth(self):
        ta, tb = PolAngle(0.7), PolAngle(0.2)
        out = dist_mul(DistFn.atom(ta), DistFn.cos_squared(tb))
        assert len(out.atoms) == 1
        loc, w = out.atoms[0]
        assert loc == ta
        assert w.eval(1, 1) == pytest.approx(math.cos(ta.value - tb.value) ** 2, abs=1e-12)
        assert out.smooth_is_zero

    def test_distinct_atoms_annihilate(self):
        out = dist_mul(DistFn.atom(PolAngle(0.1)), DistFn.atom(PolAngle(0.9)))
        assert out.is_zero

    def test_colliding_atoms_raise(self):
        with pytest.raises(DeltaCollision):
            dist_mul(DistFn.atom(PolAngle(0.4)), DistFn.atom(PolAngle(0.4)))

    def test_constant_multiplication(self):
        out = dist_mul(DistFn.constant(3), DistFn.constant(4))
        assert dist_integrate(out) == GradedCoeff.constant(12) * PI_FRAC

    def test_cos_squared_product_matches_quadrature(self):
        x, y = 0.35, 1.1
        out = dist_mul(DistFn.cos_squared(PolAngle(x)), DistFn.cos_squared(PolAngle(y)))
        grid = grid_points(4096)
        direct = (np.cos(grid - x) ** 2 * np.cos(grid - y) ** 2).sum() * PI / 4096
        assert float(dist_integrate(out).constant_value()) == pytest.approx(direct, abs=1e-12)

    def test_harmonic_overflow_raises(self):
        top = [GradedCoeff.zero()] * (MAX_HARMONIC - 1) + [GradedCoeff.one()]  # cos(16 theta)
        f = DistFn(cos_coeffs=top)
        with pytest.raises(HarmonicOverflow):
            dist_mul(f, DistFn.cos_squared(PolAngle(0.9)))
        # a product within the harmonic range does not raise
        assert not dist_mul(DistFn.cos_squared(PolAngle(0.3)), DistFn.cos_squared(PolAngle(0.9))).is_zero


class TestConstruction:
    def test_duplicate_atoms_merge(self):
        t = PolAngle(0.3)
        f = DistFn(atoms=[(t, GradedCoeff.constant(2)), (PolAngle(0.3 + PI), GradedCoeff.constant(3))])
        assert len(f.atoms) == 1
        assert f.atom_weight_at(t) == GradedCoeff.constant(5)

    @pytest.mark.parametrize("length", [MAX_HARMONIC - 1, MAX_HARMONIC + 1])
    def test_coefficient_lists_need_max_harmonic_entries(self, length):
        coeffs = [GradedCoeff.zero()] * length
        with pytest.raises(ValueError):
            DistFn(cos_coeffs=coeffs)
        with pytest.raises(ValueError):
            DistFn(sin_coeffs=coeffs)

    def test_zero_weight_atoms_dropped(self):
        f = DistFn(atoms=[(PolAngle(0.3), GradedCoeff.zero())])
        assert f.is_zero

    def test_addition_merges_atoms(self):
        t = PolAngle(0.3)
        f = DistFn.atom(t, 2) + DistFn.atom(t, 3)
        assert f.atom_weight_at(t) == GradedCoeff.constant(5)

    def test_coefficient_times_distribution_scales(self):
        f = DistFn.atom(PolAngle(0.3)) + DistFn.cos_squared(PolAngle(0.3))
        alpha = GradedCoeff.alpha()
        assert f * alpha == alpha * f == f.scale(alpha)
        assert 1 * f is f


class TestIntegrate:
    def test_atom_mass(self):
        w = GradedCoeff({(1, 2): 3})
        assert dist_integrate(DistFn.atom(PolAngle(0.3), w)) == w

    def test_constant_times_domain_length(self):
        assert dist_integrate(DistFn.constant(2)) == GradedCoeff.constant(2) * PI_FRAC

    def test_two_atoms_plus_constant(self):
        ta = PolAngle(0.8)
        f = DistFn.atom(ta) + DistFn.atom(ta.perpendicular()) + DistFn.constant(GradedCoeff.beta())
        expected = GradedCoeff.constant(2) + GradedCoeff.beta() * PI_FRAC
        assert dist_integrate(f) == expected

    def test_two_atoms_plus_constant_vs_regularized_quadrature(self):
        beta0 = 0.37
        ta = PolAngle(0.8)
        f = DistFn.atom(ta) + DistFn.atom(ta.perpendicular()) + DistFn.constant(GradedCoeff.beta())
        exact = dist_integrate(f).eval(1.0, beta0)
        reg = regularize(f.substitute(1.0, beta0), sigma=1e-3, n=8192)
        assert reg.integral() == pytest.approx(exact, abs=1e-4)


class TestRegularize:
    def test_unit_atom_has_unit_mass(self):
        reg = regularize(DistFn.atom(PolAngle(0.4)), sigma=0.01, n=8192)
        assert reg.integral() == pytest.approx(1.0, abs=1e-6)

    def test_zero_distribution(self):
        reg = regularize(DistFn.zero(), sigma=0.01, n=512)
        assert np.all(reg.samples == 0.0)

    def test_orthogonal_atoms_do_not_overlap(self):
        ta = PolAngle(0.4)
        ga = regularize(DistFn.atom(ta), sigma=0.01, n=8192)
        gp = regularize(DistFn.atom(ta.perpendicular()), sigma=0.01, n=8192)
        # closed-form overlap bound: exp(-(pi/2)^2 / (4 sigma^2))
        assert (ga * gp).integral() < 1e-12

    def test_sigma_too_coarse(self):
        with pytest.raises(SigmaTooCoarse):
            regularize(DistFn.atom(PolAngle(0.4)), sigma=0.3, n=512)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            regularize(DistFn.atom(PolAngle(0.4)), sigma=0.01, n=100)

    def test_formal_weights_rejected(self):
        with pytest.raises(ValueError, match="substitute"):
            regularize(DistFn.constant(GradedCoeff.beta()), sigma=0.01, n=512)

    def test_wrapped_gaussian_wraps(self):
        grid = grid_points(4096)
        g = wrapped_gaussian(grid, 0.0, 0.02)  # centered at the seam
        assert g[0] == pytest.approx(g[1] + (g[0] - g[1]))  # finite
        assert g.sum() * PI / 4096 == pytest.approx(1.0, abs=1e-9)
        assert g[-1] == pytest.approx(g[1], rel=1e-6)  # symmetric across the wrap


def seven_image_kernel(grid, center, sigma):
    """The kernel's definition: all seven periodic images over the whole grid."""
    norm = 1.0 / (sigma * math.sqrt(2.0 * PI))
    out = np.zeros_like(grid)
    for m in range(-3, 4):
        d = grid - center + m * PI
        out += np.exp(-0.5 * (d / sigma) ** 2)
    return norm * out


class TestWrappedGaussianImages:
    """Leaving out the images that cannot reach the grid changes no bit."""

    SIGMAS = (1e-300, 1e-30, 1e-18, 1e-10, 1e-3, 0.005, 0.05, PI / 16)

    @staticmethod
    def centres(grid, rng):
        on_grid = rng.choice(grid.ravel(), 4)
        # an image of these lands within rounding of the last grid point
        seams = [grid.max() + k * PI for k in (1, 2, 3)]
        return [*rng.uniform(0.0, 1.5 * PI, 6), *on_grid, 0.0, PI / 2, PI, 3 * PI / 2, *seams]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "grid",
        [
            *(grid_points(n) for n in (96, 97, 256, 8192)),
            grid_points(96)[:, None] * np.ones((1, 96)),  # the triphoton tests' 2-D theta
        ],
        ids=["n96", "n97", "n256", "n8192", "2d96"],
    )
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_bit_identical_to_seven_images(self, grid, sigma):
        rng = np.random.default_rng(grid.size)
        for centre in self.centres(grid, rng):
            got = wrapped_gaussian(grid, float(centre), sigma)
            assert np.array_equal(got, seven_image_kernel(grid, float(centre), sigma)), centre


# -- randomized algebra ------------------------------------------------------------

_LATTICE = [0.1, 0.5, 0.9, 1.3, 1.7, 2.1, 2.5, 2.9]

small_coeff = st.integers(-3, 3).map(GradedCoeff.constant)


@st.composite
def distfn_triple(draw):
    """Three DistFns whose atoms all sit at distinct lattice points."""
    locs = draw(st.permutations(_LATTICE))
    counts = [draw(st.integers(0, 2)) for _ in range(3)]
    fns = []
    offset = 0
    for c in counts:
        atoms = []
        for i in range(c):
            w = draw(small_coeff)
            atoms.append((PolAngle(locs[offset + i]), w))
        offset += c
        f = DistFn(
            atoms=atoms,
            c0=draw(small_coeff),
            cos_coeffs=[draw(small_coeff), draw(small_coeff)] + [GradedCoeff.zero()] * 6,
            sin_coeffs=[draw(small_coeff), draw(small_coeff)] + [GradedCoeff.zero()] * 6,
        )
        fns.append(f)
    return tuple(fns)


def dist_values(f: DistFn) -> dict:
    """Flatten to floats for tolerance comparison."""
    out = {"c0": float(f.c0.eval(1, 1))}
    for k in range(1, MAX_HARMONIC + 1):
        out[f"cos{k}"] = f.cos_coeffs[k - 1].eval(1, 1)
        out[f"sin{k}"] = f.sin_coeffs[k - 1].eval(1, 1)
    for loc, w in f.atoms:
        out[f"atom@{loc.value:.9f}"] = w.eval(1, 1)
    return out


def assert_dist_close(a: DistFn, b: DistFn, tol=1e-12):
    va, vb = dist_values(a), dist_values(b)
    assert set(va) == set(vb)
    for k in va:
        assert va[k] == pytest.approx(vb[k], abs=tol), k


class TestDistributionAlgebra:
    @given(distfn_triple())
    def test_multiplication_commutes_exactly(self, fns):
        f, g, _ = fns
        assert dist_mul(f, g) == dist_mul(g, f)

    @given(distfn_triple())
    @settings(max_examples=60)
    def test_multiplication_associates(self, fns):
        f, g, h = fns
        # float trig values at the atom locations reassociate, so compare
        # numerically rather than term-exactly
        assert_dist_close(dist_mul(dist_mul(f, g), h), dist_mul(f, dist_mul(g, h)))

    @given(distfn_triple())
    def test_addition_commutes(self, fns):
        f, g, _ = fns
        assert f + g == g + f

    @given(distfn_triple())
    @settings(max_examples=40)
    def test_exact_integral_matches_regularized(self, fns):
        f, g, _ = fns
        sigma = 0.01
        exact = dist_integrate(dist_mul(f, g)).eval(1, 1)
        fn, gn = f.substitute(1, 1), g.substitute(1, 1)
        reg = (regularize(fn, sigma, 8192) * regularize(gn, sigma, 8192)).integral()
        bound = 0.0
        for d in (fn, gn):
            bound += sum(
                2 * k * (abs(d.cos_coeffs[k - 1].eval(1, 1)) + abs(d.sin_coeffs[k - 1].eval(1, 1)))
                for k in range(1, MAX_HARMONIC + 1)
            )
            bound += sum(abs(w.eval(1, 1)) for _, w in d.atoms) + abs(d.c0.eval(1, 1))
        assert abs(exact - reg) < 10 * sigma * bound + 1e-9


class TestRegularizedArithmetic:
    def test_pointwise_product_and_integral(self):
        n = 512
        a = RegularizedDistFn(np.full(n, 2.0))
        b = RegularizedDistFn(np.full(n, 3.0))
        assert (a * b).integral() == pytest.approx(6.0 * PI)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            RegularizedDistFn(np.ones(512)) * RegularizedDistFn(np.ones(256))
