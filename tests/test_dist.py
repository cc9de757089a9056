import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellfield.angles import PI, PolAngle
from bellfield.bell import BETA, Mrf3Params, split_backend
from bellfield.dist import (
    KERNEL_REACH,
    MAX_HARMONIC,
    DeltaCollision,
    DistFn,
    HarmonicOverflow,
    RegularizedDistFn,
    SigmaTooCoarse,
    _wrapped_normal,
    contract,
    dist_integrate,
    dist_mul,
    grid_points,
    regularize,
    wrapped_gaussian,
)
from bellfield.graded import GradedCoeff

PI_FRAC = Fraction(math.pi)
HALF = Fraction(1, 2)


def cos_squared(center: PolAngle) -> DistFn:
    """``cos^2(theta - center)``, that is 1/2 + (1/2) cos 2(theta - center), graded."""
    tail = [GradedCoeff.constant(HALF * Fraction(f(2 * center.value))) for f in (math.cos, math.sin)]
    rest = [GradedCoeff.zero()] * (MAX_HARMONIC - 1)
    return DistFn(c0=GradedCoeff.constant(HALF), cos_coeffs=tail[:1] + rest, sin_coeffs=tail[1:] + rest)


class TestPolAngle:
    def test_reduced_into_half_turn(self):
        rng = random.Random(21)
        for x in [7.0, PI / 2, -PI / 2, 3 * PI / 2, PI] + [rng.uniform(-1e3, 1e3) for _ in range(1000)]:
            assert -PI / 2 <= PolAngle(x).value < PI / 2
        assert PolAngle(PI / 2).value == -PI / 2  # the one tie goes to the lower end
        assert PolAngle.from_degrees(120.0).degrees == pytest.approx(-60.0)
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


class TestExactReflection:
    """Negating an angle is exact, so reflecting a function negates the sine
    of every atom location and keeps its cosine, bit for bit."""

    ANGLES = [random.Random(22).uniform(-10.0, 10.0) for _ in range(2000)]

    @staticmethod
    def trig(theta: PolAngle) -> tuple[Fraction, Fraction]:
        return Fraction(math.cos(2 * theta.value)), Fraction(math.sin(2 * theta.value))

    def test_negation_is_exact(self):
        for x in self.ANGLES:
            theta = PolAngle(x)
            assert PolAngle(-theta.value).value == -theta.value

    def test_cos_kept_and_sin_negated(self):
        for x in self.ANGLES:
            theta = PolAngle(x)
            cos, sin = self.trig(theta)
            assert self.trig(PolAngle(-theta.value)) == (cos, -sin)

    @pytest.mark.parametrize("part", ["pass", "block"])
    def test_reflected_split_is_the_split_at_minus_theta(self, part):
        # -pi/2 is its own negation, so its sin 2theta, sin(-fl(pi)), cannot
        # change sign: the split takes it as 0
        for x in [-PI / 2, *self.ANGLES[:300]]:
            theta = PolAngle(x)
            reflected = split_backend(theta, BETA)[part].reflected()
            direct = split_backend(PolAngle(-theta.value), BETA)[part]
            assert reflected == direct
            assert [loc.value for loc, _ in reflected.atoms] == [loc.value for loc, _ in direct.atoms]


class TestDistMul:
    def test_atom_sifts_smooth(self):
        ta, tb = PolAngle(0.7), PolAngle(0.2)
        out = dist_mul(DistFn.atom(ta), cos_squared(tb))
        assert len(out.atoms) == 1
        loc, w = out.atoms[0]
        assert loc == ta
        assert w.eval(1) == pytest.approx(math.cos(ta.value - tb.value) ** 2, abs=1e-12)
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
        out = dist_mul(cos_squared(PolAngle(x)), cos_squared(PolAngle(y)))
        grid = grid_points(4096)
        direct = (np.cos(grid - x) ** 2 * np.cos(grid - y) ** 2).sum() * PI / 4096
        assert float(dist_integrate(out).constant_value()) == pytest.approx(direct, abs=1e-12)

    def test_harmonic_overflow_raises(self):
        top = [GradedCoeff.zero()] * (MAX_HARMONIC - 1) + [GradedCoeff.one()]  # cos(2 K theta)
        f = DistFn(cos_coeffs=top)
        with pytest.raises(HarmonicOverflow):
            dist_mul(f, cos_squared(PolAngle(0.9)))
        # a product within the harmonic range does not raise
        assert not dist_mul(cos_squared(PolAngle(0.3)), cos_squared(PolAngle(0.9))).is_zero

    def test_float_coefficients_refused(self):
        split = split_backend(PolAngle(0.3), 1e-3)
        for f, g in (
            (split["pass"], split["block"]),
            (split["pass"], cos_squared(PolAngle(0.9))),
            # c0 left out is a graded zero; the floats sit in the atoms and harmonics
            (
                DistFn(atoms=[(PolAngle(0.3), 1.0)], cos_coeffs=[0.5, 0.0], sin_coeffs=[0.0, 0.0]),
                DistFn(cos_coeffs=[0.25, 0.0], sin_coeffs=[0.0, 0.0]),
            ),
            (DistFn(atoms=[(PolAngle(0.9), 1.0)]), cos_squared(PolAngle(0.3))),
        ):
            with pytest.raises(TypeError, match="dist_mul"):
                dist_mul(f, g)
            with pytest.raises(TypeError, match="dist_mul"):
                dist_mul(g, f)


#: Atom locations: distinct points of a fine lattice on [0, pi), far enough
#: apart for PolAngle equality to tell them apart.
_ATOM_LATTICE = 1 << 20

graded_weight = st.builds(
    GradedCoeff,
    st.dictionaries(
        st.integers(0, 10),
        st.fractions(-4, 4, max_denominator=8),
        max_size=3,
    ),
)


@st.composite
def distfn_pair(draw):
    """Two DistFns with graded weights, atoms at distinct random angles and
    harmonics up to MAX_HARMONIC // 2, so that their product cannot overflow."""
    cells = draw(st.lists(st.integers(0, _ATOM_LATTICE - 1), unique=True, max_size=6))
    split = draw(st.integers(0, len(cells)))
    top = MAX_HARMONIC // 2

    def harmonics():
        return [draw(graded_weight) for _ in range(top)] + [GradedCoeff.zero()] * (MAX_HARMONIC - top)

    fns = []
    for part in (cells[:split], cells[split:]):
        atoms = [(PolAngle(k * PI / _ATOM_LATTICE), draw(graded_weight)) for k in part]
        fns.append(DistFn(atoms=atoms, c0=draw(graded_weight), cos_coeffs=harmonics(), sin_coeffs=harmonics()))
    return tuple(fns)


class TestDistInner:
    """The inner product of two graded distributions, the integral of f g:
    ``contract`` at width 0 of f and g reflected, a Bell pair's exact route."""

    @given(distfn_pair())
    @settings(max_examples=60, deadline=None)
    # -pi/2 is its own negation: reflecting cannot negate that atom's sin 2theta
    @example((DistFn.atom(PolAngle(-PI / 2)), DistFn(sin_coeffs=[GradedCoeff.one(), GradedCoeff.zero()])))
    def test_equals_integral_of_product(self, fns):
        f, g = fns
        assert contract([f, g.reflected()], 0) == dist_integrate(dist_mul(f, g))
        assert contract([g, f.reflected()], 0) == contract([f, g.reflected()], 0)

    @given(distfn_pair(), st.integers(0, _ATOM_LATTICE - 1))
    @settings(max_examples=30, deadline=None)
    def test_shared_atom_location_raises_like_the_product(self, fns, k):
        # half a lattice step off every drawn atom, so adding it merges none
        loc = PolAngle((k + 0.5) * PI / _ATOM_LATTICE)
        f, g = (h + DistFn.atom(loc) for h in fns)
        with pytest.raises(DeltaCollision):
            dist_mul(f, g)
        with pytest.raises(DeltaCollision):
            contract([f, g.reflected()], 0)

    def test_never_overflows_the_harmonics(self):
        # dist_mul refuses this product; its integral needs no harmonic above K
        top = [GradedCoeff.zero()] * (MAX_HARMONIC - 1) + [GradedCoeff.one()]
        f = DistFn(cos_coeffs=top)
        with pytest.raises(HarmonicOverflow):
            dist_mul(f, f)
        assert contract([f, f.reflected()], 0) == GradedCoeff.constant(HALF) * PI_FRAC

    def test_float_coefficients_refused(self):
        split = split_backend(PolAngle(0.3), 1e-3)
        for f, g in (
            (split["pass"], split["block"]),
            (split["pass"], cos_squared(PolAngle(0.9))),
            # c0 left out is a graded zero; the floats sit in the atoms and harmonics
            (
                DistFn(atoms=[(PolAngle(0.3), 1.0)], cos_coeffs=[0.5, 0.0], sin_coeffs=[0.0, 0.0]),
                DistFn(cos_coeffs=[0.25, 0.0], sin_coeffs=[0.0, 0.0]),
            ),
            (DistFn(atoms=[(PolAngle(0.9), 1.0)]), cos_squared(PolAngle(0.3))),
        ):
            with pytest.raises(TypeError, match="contract"):
                contract([f, g.reflected()], 0)
            with pytest.raises(TypeError, match="contract"):
                contract([g, f.reflected()], 0)


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

    def test_left_out_coefficients_take_the_given_type(self):
        # a float DistFn given atoms alone samples and integrates as floats
        f = DistFn(atoms=[(PolAngle(0.3), 0.5)])
        assert all(type(c) is float for c in (f.c0, *f.cos_coeffs, *f.sin_coeffs))
        got = dist_integrate(f)
        assert type(got) is float and got == 0.5
        np.testing.assert_array_equal(
            regularize(f, 0.05, 256).samples, 0.5 * wrapped_gaussian(grid_points(256), 0.3, 0.05)
        )
        # graded coefficients, or none at all, leave graded zeros
        for g in (DistFn(), DistFn.atom(PolAngle(0.3)), DistFn(c0=GradedCoeff.beta())):
            assert all(isinstance(c, GradedCoeff) for c in (g.c0, *g.cos_coeffs, *g.sin_coeffs))

    def test_addition_merges_atoms(self):
        t = PolAngle(0.3)
        f = DistFn.atom(t, 2) + DistFn.atom(t, 3)
        assert f.atom_weight_at(t) == GradedCoeff.constant(5)

    def test_reflection_mirrors_atoms_and_negates_sines(self):
        f = DistFn(atoms=[(PolAngle(0.3), 2.0)], c0=0.5, cos_coeffs=[0.25, -0.5], sin_coeffs=[0.125, 0.75])
        r = f.reflected()
        assert r == DistFn(
            atoms=[(PolAngle(PI - 0.3), 2.0)], c0=0.5, cos_coeffs=[0.25, -0.5], sin_coeffs=[-0.125, -0.75]
        )
        for t in (0.0, 0.4, 1.3, 2.9):
            assert r.smooth_at(t) == pytest.approx(f.smooth_at(-t), abs=1e-15)
        assert r.reflected() == f

    def test_coefficient_times_distribution_scales(self):
        f = DistFn.atom(PolAngle(0.3)) + cos_squared(PolAngle(0.3))
        beta = GradedCoeff.beta()
        assert f * beta == beta * f == f.scale(beta)
        assert 1 * f is f


class TestIntegrate:
    def test_atom_mass(self):
        w = GradedCoeff({2: 3})
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
        exact = dist_integrate(f).eval(beta0)
        reg = regularize(f.substitute(beta0), sigma=1e-3, n=8192)
        assert reg.integral() == pytest.approx(exact, abs=1e-4)


class TestRegularize:
    def test_unit_atom_has_unit_mass(self):
        reg = regularize(DistFn.atom(PolAngle(0.4)).substitute(1), sigma=0.01, n=8192)
        assert reg.integral() == pytest.approx(1.0, abs=1e-6)

    def test_zero_distribution(self):
        reg = regularize(DistFn.zero().substitute(1), sigma=0.01, n=512)
        assert np.all(reg.samples == 0.0)

    def test_orthogonal_atoms_do_not_overlap(self):
        ta = PolAngle(0.4)
        ga = regularize(DistFn.atom(ta).substitute(1), sigma=0.01, n=8192)
        gp = regularize(DistFn.atom(ta.perpendicular()).substitute(1), sigma=0.01, n=8192)
        # closed-form overlap bound: exp(-(pi/2)^2 / (4 sigma^2))
        assert (ga * gp).integral() < 1e-12

    def test_sigma_too_coarse(self):
        with pytest.raises(SigmaTooCoarse):
            regularize(DistFn.atom(PolAngle(0.4)), sigma=0.3, n=512)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            regularize(DistFn.atom(PolAngle(0.4)), sigma=0.01, n=100)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0, -0.0])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="positive finite") as raised:
            regularize(DistFn.atom(PolAngle(0.3)), sigma, 256)
        assert not isinstance(raised.value, SigmaTooCoarse)

    def test_formal_weights_rejected(self):
        with pytest.raises(ValueError, match="substitute"):
            regularize(DistFn.constant(GradedCoeff.beta()), sigma=0.01, n=512)

    def test_samples_substituted_coefficients(self):
        f = DistFn(
            atoms=[(PolAngle(0.4), 4 * GradedCoeff.beta())],
            c0=GradedCoeff.beta(),
            cos_coeffs=[GradedCoeff.constant(-0.25), GradedCoeff.beta()],
            sin_coeffs=[4 * GradedCoeff.beta(), GradedCoeff.zero()],
        )
        numeric = f.substitute(0.125)
        assert (numeric.c0, numeric.cos_coeffs, numeric.sin_coeffs) == (0.125, (-0.25, 0.125), (0.5, 0.0))
        assert numeric.atoms == ((PolAngle(0.4), 0.5),)
        assert all(type(c) is float for c in (numeric.c0, *numeric.cos_coeffs, *numeric.sin_coeffs))
        grid = grid_points(512)
        want = 0.5 * wrapped_gaussian(grid, 0.4, 0.01) + (
            0.125 - 0.25 * np.cos(2 * grid) + 0.125 * np.cos(4 * grid) + 0.5 * np.sin(2 * grid)
        )
        np.testing.assert_allclose(regularize(numeric, 0.01, 512).samples, want, rtol=0, atol=1e-13)

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
    """Leaving out the images, and the cells of an image, that the kernel
    cannot reach changes no bit, on the windowed path (a ``grid_points``
    array itself) and on the whole-array one (any other grid)."""

    SIGMAS = (1e-300, 1e-30, 1e-18, 1e-10, 1e-3, 0.005, 0.05, PI / 16)

    @staticmethod
    def centres(grid, sigma, rng):
        on_grid = rng.choice(grid.ravel(), 4)
        # an image of these lands within rounding of the last grid point
        seams = [grid.max() + k * PI for k in (1, 2, 3)]
        # a window edge within one cell of 38.604 widths of a sample
        cell = PI / grid.size
        edges = [
            x + s * (38.604 * sigma + f * cell) for x in rng.choice(grid.ravel(), 2) for s in (-1, 1) for f in (0, 0.5, 1)
        ]
        return [*rng.uniform(0.0, 1.5 * PI, 6), *on_grid, 0.0, PI / 2, PI, 3 * PI / 2, *seams, *edges]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize(
        "shared, make",
        [
            *((True, lambda n=n: grid_points(n)) for n in (96, 97, 256, 472, 943, 1885, 8192)),
            (False, lambda: grid_points(96)[:, None] * np.ones((1, 96))),  # the triphoton tests' 2-D theta
            # 1-D but not ascending: evaluated on the whole array
            (False, lambda: grid_points(1000)[::-1]),
            (False, lambda: np.random.default_rng(3).permutation(grid_points(1000))),
        ],
        ids=["n96", "n97", "n256", "n472", "n943", "n1885", "n8192", "2d96", "descending1000", "shuffled1000"],
    )
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_bit_identical_to_seven_images(self, shared, make, sigma):
        # fetched here, not at collection: a grid evicted from the memo since
        # would take the whole-array path and leave the windowed one untested
        grid = make()
        rng = np.random.default_rng(grid.size)
        grids = (grid, grid.copy()) if shared else (grid,)
        before = grid.copy()
        for centre in self.centres(grid, sigma, rng):
            want = seven_image_kernel(grid, float(centre), sigma)
            for g in grids:
                assert np.array_equal(wrapped_gaussian(g, float(centre), sigma), want), (centre, g is grid)
            assert np.array_equal(grid, before), centre  # evaluated in place, but not in the grid

    def test_one_read_only_grid_per_size(self):
        grid = grid_points(943)
        assert grid_points(943) is grid and not grid.flags.writeable
        # Mrf3Params sizes its grid as an int subclass, which must share the entry
        params = Mrf3Params(PolAngle.from_degrees(30), PolAngle.from_degrees(0), sigma=0.01)
        assert params.grid_n == 943 and type(params.grid_n) is not int
        assert grid_points(params.grid_n) is grid


class TestKernelReach:
    """The cut at :data:`KERNEL_REACH` widths lies beyond the last sample a
    Gaussian image can give a nonzero float64, and behind the subnormal ones."""

    @staticmethod
    def grid_reach(sigma):
        """The reach wrapped_gaussian windows its images by."""
        return KERNEL_REACH * sigma + 1e-9

    @staticmethod
    def image_term(x, centre, m, sigma):
        """One image's term of the seven-image formula, before the norm."""
        return np.exp(-0.5 * ((x - centre + m * PI) / sigma) ** 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("sigma", TestWrappedGaussianImages.SIGMAS)
    @pytest.mark.parametrize("centre", [0.0, 0.3, PI - 1e-3])
    @pytest.mark.parametrize("m", [-1, 0, 2])
    def test_zero_just_beyond_the_reach(self, sigma, centre, m):
        image = centre - m * PI
        beyond = np.nextafter(self.grid_reach(sigma), math.inf)
        outside = self.image_term(np.array([image - beyond, image + beyond]), centre, m, sigma)
        assert np.array_equal(outside, [0.0, 0.0])

    @pytest.mark.parametrize("sigma", TestWrappedGaussianImages.SIGMAS)
    def test_nonzero_within_the_reach(self, sigma):
        # centred on 0, so the offsets are exact even for the narrowest sigma;
        # 37.6 widths gives a normal float, 38.5 a subnormal one
        for widths in (37.6, 38.5):
            inside = self.image_term(np.array([-widths * sigma, widths * sigma]), 0.0, 0, sigma)
            assert np.all(inside > 0.0), widths
        assert 38.5 < KERNEL_REACH

    @pytest.mark.parametrize("width", [w for w in TestWrappedGaussianImages.SIGMAS if KERNEL_REACH * w < PI / 2])
    def test_wrapped_normal_zero_just_beyond_the_reach(self, width):
        # the offset is its own remainder, so the cut is sharp; a wider
        # kernel's next image lies within the reach of every point
        beyond = math.nextafter(KERNEL_REACH * width, math.inf)
        assert _wrapped_normal(beyond, width) == 0.0
        assert _wrapped_normal(38.5 * width, width) > 0.0

    def test_wrapped_normal_tiny_offset_at_the_narrowest_width(self):
        # the image 1e-12 away is 1e288 widths out: it weighs 0.0 and must not
        # be squared into an overflow
        assert _wrapped_normal(1e-12, 1e-300) == 0.0
        assert _wrapped_normal(-1e-12, 1e-300) == 0.0


# -- randomized algebra ------------------------------------------------------------

_LATTICE = [0.1, 0.5, 0.9, 1.3, 1.7, 2.1, 2.5, 2.9]

small_coeff = st.integers(-3, 3).map(GradedCoeff.constant)


@st.composite
def distfn_triple(draw):
    """Three DistFns whose atoms all sit at distinct lattice points and whose
    harmonics reach orders that sum to at most MAX_HARMONIC, so that no
    product of them overflows."""
    locs = draw(st.permutations(_LATTICE))
    counts = [draw(st.integers(0, 2)) for _ in range(3)]
    tops = draw(st.permutations((MAX_HARMONIC // 2, MAX_HARMONIC - MAX_HARMONIC // 2, 0)))
    fns = []
    offset = 0
    for c, top in zip(counts, tops):
        atoms = []
        for i in range(c):
            w = draw(small_coeff)
            atoms.append((PolAngle(locs[offset + i]), w))
        offset += c
        rest = [GradedCoeff.zero()] * (MAX_HARMONIC - top)
        f = DistFn(
            atoms=atoms,
            c0=draw(small_coeff),
            cos_coeffs=[draw(small_coeff) for _ in range(top)] + rest,
            sin_coeffs=[draw(small_coeff) for _ in range(top)] + rest,
        )
        fns.append(f)
    return tuple(fns)


def dist_values(f: DistFn) -> dict:
    """Flatten to floats for tolerance comparison."""
    out = {"c0": float(f.c0.eval(1))}
    for k in range(1, MAX_HARMONIC + 1):
        out[f"cos{k}"] = f.cos_coeffs[k - 1].eval(1)
        out[f"sin{k}"] = f.sin_coeffs[k - 1].eval(1)
    for loc, w in f.atoms:
        out[f"atom@{loc.value:.9f}"] = w.eval(1)
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
        exact = dist_integrate(dist_mul(f, g)).eval(1)
        fn, gn = f.substitute(1), g.substitute(1)
        reg = (regularize(fn, sigma, 8192) * regularize(gn, sigma, 8192)).integral()
        bound = 0.0
        for d in (fn, gn):
            bound += sum(
                2 * k * (abs(d.cos_coeffs[k - 1]) + abs(d.sin_coeffs[k - 1])) for k in range(1, MAX_HARMONIC + 1)
            )
            bound += sum(abs(w) for _, w in d.atoms) + abs(d.c0)
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
