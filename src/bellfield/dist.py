"""Distributions over the polarization angle: point masses plus a smooth part.

A ``DistFn`` is a finite list of weighted point masses ("atoms") on the
half-turn circle together with a smooth trigonometric polynomial in the
even harmonics ``cos(2k*theta)``, ``sin(2k*theta)`` (period-pi functions,
matching the mod-pi angle domain).  It is generic in its coefficient:
:class:`~bellfield.graded.GradedCoeff` values on the exact route, so that
products and integrals stay exact in the small parameters, and floats on the
regularized routes.  Every ``DistFn`` carries exactly :data:`MAX_HARMONIC`
cos and sin coefficients; a product that would need a higher harmonic raises
:class:`HarmonicOverflow` instead of dropping it.  :func:`dist_inner`
integrates a product without forming it, so it never does.

Exact mode refuses to multiply two atoms at the same location -- the square
of a point mass is not a distribution.  Callers then switch to a
regularized representation, which replaces every atom by a narrow
unit-mass wrapped Gaussian and does plain float arithmetic: either kept in
closed form, a float ``DistFn`` contracted by :func:`contract` with no grid,
or sampled on a uniform grid (:class:`RegularizedDistFn`).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .angles import PI, PolAngle
from .graded import GradedCoeff

#: Highest harmonic ``cos/sin(2K*theta)`` a ``DistFn`` holds.  The model's
#: smooth parts are quadratic in cos/sin, so its products never exceed
#: harmonic 2.
MAX_HARMONIC = 2

#: Exact rational standing in for the integration-domain length pi.
PI_FRAC = Fraction(math.pi)

HALF = Fraction(1, 2)

MIN_GRID = 256
#: Largest grid of the one grid route, the brute-force oracle.  The other
#: regularized routes use no grid (:func:`contract`).
MAX_GRID = 1 << 16
MAX_SIGMA = PI / 16

#: Reach of a Gaussian image, in widths.  exp(x) is exactly 0.0 in float64
#: for x below -745.1332, that is beyond 38.604 widths; numpy's exp also
#: takes a slow path for every argument below -708.4 (37.64 widths).
KERNEL_REACH = 38.7


class DeltaCollision(ArithmeticError):
    """Two point masses met at the same location in exact mode."""


class HarmonicOverflow(ArithmeticError):
    """A product reached a harmonic above :data:`MAX_HARMONIC`."""


class SigmaTooCoarse(ValueError):
    """Kernel width too large for atoms a quarter turn apart to separate."""


_NO_HARMONICS = (GradedCoeff.zero(),) * MAX_HARMONIC


def _merged(atoms: tuple, more: Iterable[tuple[PolAngle, GradedCoeff | float]]) -> tuple:
    """``atoms`` (distinct locations, nonzero weights) with the atoms of
    ``more`` added in: those at an equal location summed, zero weights
    dropped."""
    merged = list(atoms)
    summed = False
    for atom in more:
        loc, w = atom
        if not w:
            continue
        for i, (loc0, w0) in enumerate(merged):
            if loc0 is loc or loc0 == loc:
                merged[i] = (loc0, w0 + w)
                summed = True
                break
        else:
            merged.append(atom)
    return tuple([atom for atom in merged if atom[1]] if summed else merged)


def _unchecked(atoms: tuple, c0, cos_coeffs: tuple, sin_coeffs: tuple) -> "DistFn":
    """A ``DistFn`` of parts that need no merging or checking: the results of
    an operation that moves no two atoms together and keeps the slot count."""
    out = object.__new__(DistFn)
    out.atoms = atoms
    out.c0 = c0
    out.cos_coeffs = cos_coeffs
    out.sin_coeffs = sin_coeffs
    return out


class DistFn:
    """Atoms plus an even-harmonic trigonometric polynomial.

    ``cos_coeffs[k-1]`` and ``sin_coeffs[k-1]`` multiply ``cos(2k*theta)``
    and ``sin(2k*theta)`` for ``k`` up to :data:`MAX_HARMONIC`; ``c0`` is
    the smooth part's constant term.  Both coefficient lists, when given,
    must have exactly ``MAX_HARMONIC`` entries.  Coefficients are all
    ``GradedCoeff`` or all floats; left out, they are graded zeros.  Atoms at
    equal locations merge and zero-weight atoms drop.  Instances are not
    modified after construction.
    """

    __slots__ = ("atoms", "c0", "cos_coeffs", "sin_coeffs")

    def __init__(
        self,
        atoms: Iterable[tuple[PolAngle, GradedCoeff | float]] = (),
        c0: GradedCoeff | float | None = None,
        cos_coeffs: Sequence[GradedCoeff | float] | None = None,
        sin_coeffs: Sequence[GradedCoeff | float] | None = None,
    ):
        cos = tuple(cos_coeffs) if cos_coeffs is not None else _NO_HARMONICS
        sin = tuple(sin_coeffs) if sin_coeffs is not None else _NO_HARMONICS
        if len(cos) != MAX_HARMONIC or len(sin) != MAX_HARMONIC:
            raise ValueError(
                f"need {MAX_HARMONIC} cos and sin coefficients, got {len(cos)} and {len(sin)}"
            )
        self.atoms = _merged((), atoms)
        self.c0 = c0 if c0 is not None else GradedCoeff.zero()
        self.cos_coeffs = cos
        self.sin_coeffs = sin

    # -- graded constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "DistFn":
        return cls()

    @classmethod
    def constant(cls, c) -> "DistFn":
        if not isinstance(c, GradedCoeff):
            c = GradedCoeff.constant(c)
        return cls(c0=c)

    @classmethod
    def one(cls) -> "DistFn":
        return cls.constant(1)

    @classmethod
    def atom(cls, location: PolAngle, weight=1) -> "DistFn":
        if not isinstance(weight, GradedCoeff):
            weight = GradedCoeff.constant(weight)
        return cls(atoms=[(location, weight)])

    # -- queries -------------------------------------------------------------

    @property
    def smooth_is_zero(self) -> bool:
        return not (self.c0 or any(self.cos_coeffs) or any(self.sin_coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.atoms and self.smooth_is_zero

    def smooth_at(self, theta: float | PolAngle):
        """Value of the smooth part at a point, in the coefficient type."""
        t = theta.value if isinstance(theta, PolAngle) else float(theta)
        out = self.c0
        for k, (ck, sk) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), 1):
            if ck:
                out = out + ck * Fraction(math.cos(2 * k * t))
            if sk:
                out = out + sk * Fraction(math.sin(2 * k * t))
        return out

    def atom_weight_at(self, location: PolAngle) -> GradedCoeff:
        for loc, w in self.atoms:
            if loc == location:
                return w
        return GradedCoeff.zero()

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "DistFn") -> "DistFn":
        if not isinstance(other, DistFn):
            return NotImplemented
        return _unchecked(
            _merged(self.atoms, other.atoms),
            self.c0 + other.c0,
            tuple(map(operator.add, self.cos_coeffs, other.cos_coeffs)),
            tuple(map(operator.add, self.sin_coeffs, other.sin_coeffs)),
        )

    def scale(self, c) -> "DistFn":
        """Every coefficient times ``c``; an atom whose weight becomes zero
        (graded truncation, say) drops."""
        return _unchecked(
            tuple([(loc, v) for loc, w in self.atoms if (v := w * c)]),
            self.c0 * c,
            tuple(map(operator.mul, self.cos_coeffs, itertools.repeat(c))),
            tuple(map(operator.mul, self.sin_coeffs, itertools.repeat(c))),
        )

    def __mul__(self, c) -> "DistFn":
        """Scaling by a coefficient; :func:`dist_mul` multiplies two distributions."""
        if isinstance(c, DistFn):
            return NotImplemented
        return self if c == 1 else self.scale(c)

    __rmul__ = __mul__

    def reflected(self) -> "DistFn":
        """The function of ``-theta``: atoms at minus their locations, sin
        coefficients negated."""
        return _unchecked(
            tuple((PolAngle(-loc.value), w) for loc, w in self.atoms),
            self.c0,
            self.cos_coeffs,
            tuple(-x for x in self.sin_coeffs),
        )

    def substitute(self, alpha: float, beta: float) -> "DistFn":
        """The float ``DistFn`` at numeric values of the formal small parameters."""
        return DistFn(
            atoms=[(loc, w.eval(alpha, beta)) for loc, w in self.atoms],
            c0=self.c0.eval(alpha, beta),
            cos_coeffs=[x.eval(alpha, beta) for x in self.cos_coeffs],
            sin_coeffs=[x.eval(alpha, beta) for x in self.sin_coeffs],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistFn):
            return NotImplemented
        if len(self.atoms) != len(other.atoms):
            return False
        for loc, w in self.atoms:
            if other.atom_weight_at(loc) != w:
                return False
        return (
            self.c0 == other.c0
            and self.cos_coeffs == other.cos_coeffs
            and self.sin_coeffs == other.sin_coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        bits = [f"atom({loc.value:.6g}, {w!r})" for loc, w in self.atoms]
        if not self.smooth_is_zero:
            bits.append("smooth")
        return f"DistFn({', '.join(bits) or '0'})"


def _require_graded(name: str, *fs: DistFn) -> None:
    """Raise ``TypeError`` naming ``name`` unless every coefficient of ``fs``
    -- atom weights, ``c0`` and harmonics -- is a ``GradedCoeff``."""
    for f in fs:
        coeffs = (f.c0, *f.cos_coeffs, *f.sin_coeffs, *(w for _, w in f.atoms))
        if not all(isinstance(c, GradedCoeff) for c in coeffs):
            raise TypeError(f"{name} needs graded coefficients; contract float DistFns with contract()")


def _require_distinct_atoms(f: DistFn, g: DistFn) -> None:
    """Raise :class:`DeltaCollision` when ``f`` and ``g`` hold atoms at one location."""
    for loc_f, _ in f.atoms:
        for loc_g, _ in g.atoms:
            if loc_f == loc_g:
                raise DeltaCollision(
                    f"atoms collide at angle {loc_f.value:.6g}; use regularized mode"
                )


def dist_mul(f: DistFn, g: DistFn) -> DistFn:
    """Pointwise product of two distributions.

    Atom x atom at distinct locations annihilates; at the same location it
    raises :class:`DeltaCollision` (callers fall back to regularized mode).
    Atom x smooth sifts the smooth factor at the atom.  Smooth x smooth is
    the exact trigonometric product; it raises :class:`HarmonicOverflow`
    when a harmonic above :data:`MAX_HARMONIC` keeps a nonzero coefficient.
    Every coefficient of both factors must be graded, else ``TypeError``.
    """
    _require_graded("dist_mul", f, g)
    if f.is_zero or g.is_zero:
        return DistFn.zero()
    _require_distinct_atoms(f, g)

    atoms: list[tuple[PolAngle, GradedCoeff]] = []
    for loc, w in f.atoms:
        atoms.append((loc, w * g.smooth_at(loc)))
    for loc, w in g.atoms:
        atoms.append((loc, w * f.smooth_at(loc)))

    # Trig products:  cos A cos B = (cos(A-B) + cos(A+B)) / 2, etc., with
    # A = 2*k1*theta, B = 2*k2*theta.  Index 0 plays the constant's role;
    # the sums reach harmonic 2K, of which only the first K may survive.
    k = MAX_HARMONIC
    ncos = [GradedCoeff.zero()] * (2 * k + 1)
    nsin = [GradedCoeff.zero()] * (2 * k + 1)

    fc = (f.c0,) + f.cos_coeffs
    fs = (GradedCoeff.zero(),) + f.sin_coeffs
    gc = (g.c0,) + g.cos_coeffs
    gs = (GradedCoeff.zero(),) + g.sin_coeffs

    def add_cos(idx: int, val: GradedCoeff):
        ncos[idx] = ncos[idx] + val

    def add_sin(idx: int, val: GradedCoeff):
        # sin(-x) = -sin(x) and sin(0) = 0
        if idx > 0:
            nsin[idx] = nsin[idx] + val
        elif idx < 0:
            nsin[-idx] = nsin[-idx] - val

    for k1 in range(k + 1):
        c1, s1 = fc[k1], fs[k1]
        if not (c1 or s1):
            continue
        for k2 in range(k + 1):
            c2, s2 = gc[k2], gs[k2]
            if not (c2 or s2):
                continue
            if c1 and c2:
                half = c1 * c2 * HALF
                add_cos(k1 + k2, half)
                add_cos(abs(k1 - k2), half)
            if s1 and s2:
                half = s1 * s2 * HALF
                add_cos(abs(k1 - k2), half)
                add_cos(k1 + k2, -half)
            if s1 and c2:
                half = s1 * c2 * HALF
                add_sin(k1 + k2, half)
                add_sin(k1 - k2, half)
            if c1 and s2:
                half = c1 * s2 * HALF
                add_sin(k1 + k2, half)
                add_sin(k2 - k1, half)

    if any(ncos[k + 1 :]) or any(nsin[k + 1 :]):
        raise HarmonicOverflow(f"product needs a harmonic above {MAX_HARMONIC}")
    return DistFn(atoms=atoms, c0=ncos[0], cos_coeffs=ncos[1 : k + 1], sin_coeffs=nsin[1 : k + 1])


def dist_inner(f: DistFn, g: DistFn) -> GradedCoeff:
    """Integral over [0, pi) of ``f * g``, without forming the product.

    Equals ``dist_integrate(dist_mul(f, g))`` exactly: atoms at the same
    location raise :class:`DeltaCollision`, each atom weighs the other
    function's smooth part at its location, and of the smooth x smooth
    product only the constant term survives the integral, by orthogonality
    of the harmonics: pi * (c0 c0' + 1/2 sum_k (c_k c_k' + s_k s_k')).  No
    harmonic is formed, so this never raises :class:`HarmonicOverflow`.
    Every coefficient of both functions must be graded, else ``TypeError``.
    """
    _require_graded("dist_inner", f, g)
    _require_distinct_atoms(f, g)
    harmonics = GradedCoeff.zero()
    for pairs in (zip(f.cos_coeffs, g.cos_coeffs), zip(f.sin_coeffs, g.sin_coeffs)):
        for x, y in pairs:
            if x and y:
                harmonics = harmonics + x * y
    total = (f.c0 * g.c0 + harmonics * HALF) * PI_FRAC
    for loc, w in f.atoms:
        total = total + w * g.smooth_at(loc)
    for loc, w in g.atoms:
        total = total + w * f.smooth_at(loc)
    return total


def dist_integrate(f: DistFn) -> GradedCoeff:
    """Integral over [0, pi).

    Atoms carry their full weight; every nonconstant even harmonic
    integrates to zero over the half-turn period, leaving ``pi * c0``.
    """
    total = f.c0 * PI_FRAC
    for _, w in f.atoms:
        total = total + w
    return total


# -- regularized representation -----------------------------------------------


def grid_points(n: int) -> np.ndarray:
    """Uniform half-open grid on [0, pi)."""
    return np.arange(n) * (PI / n)


def wrapped_gaussian(grid: np.ndarray, center: float, sigma: float) -> np.ndarray:
    """Unit-mass Gaussian kernel wrapped onto the period-pi circle.

    Sums the images ``center - m*pi``, m = -3..3, but only those within
    :data:`KERNEL_REACH` sigma (+1e-9 for the rounding of sample and image
    positions) of the samples' range, and on an ascending 1-D grid
    each only on the samples within that reach of its centre: a farther
    sample gets exp(-748) or less, exactly 0.0 in float64.  The samples
    nearer than that whose value is subnormal (37.6 to 38.6 widths out) are
    still evaluated.  Any other grid takes whole-array images.  Each image
    is evaluated in one temporary, in place, with the operations of
    ``norm * exp(-0.5 * ((grid - center + m*pi) / sigma) ** 2)`` in that
    order, so every sample has the bits the expression gives.
    """
    norm = 1.0 / (sigma * math.sqrt(2.0 * PI))
    reach = KERNEL_REACH * abs(sigma) + 1e-9
    ascending = grid.ndim == 1 and grid.size > 0 and bool(np.all(grid[1:] >= grid[:-1]))
    if ascending:
        first, last = grid[0], grid[-1]
    else:
        first, last = np.min(grid, initial=np.inf), np.max(grid, initial=-np.inf)
    out = np.zeros_like(grid)
    for m in range(-3, 4):
        image = center - m * PI
        if image < first - reach or image > last + reach:
            continue
        cells = slice(None)
        if ascending:
            cells = slice(np.searchsorted(grid, image - reach), np.searchsorted(grid, image + reach, side="right"))
        d = np.subtract(grid[cells], center)
        d += m * PI
        d /= sigma
        np.square(d, out=d)
        d *= -0.5
        out[cells] += np.exp(d, out=d)
    out *= norm
    return out


Kernel = Callable[[np.ndarray, float, float], np.ndarray]


@dataclass(frozen=True)
class RegularizedDistFn:
    """A distribution sampled on a uniform grid over [0, pi)."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def integral(self) -> float:
        """Trapezoid rule; with periodic wraparound this is the mean times pi."""
        return float(self.samples.sum()) * (PI / self.n)

    def __mul__(self, other):
        if isinstance(other, RegularizedDistFn):
            if other.n != self.n:
                raise ValueError("grid size mismatch")
            return RegularizedDistFn(self.samples * other.samples)
        if isinstance(other, (int, float)):
            return RegularizedDistFn(self.samples * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, RegularizedDistFn):
            if other.n != self.n:
                raise ValueError("grid size mismatch")
            return RegularizedDistFn(self.samples + other.samples)
        return NotImplemented


def regularize(
    f: DistFn,
    sigma: float,
    n: int,
    kernel: Kernel = wrapped_gaussian,
) -> RegularizedDistFn:
    """Sample ``f`` on an ``n``-point grid, widening atoms into kernels.

    Requires float coefficients -- apply :meth:`DistFn.substitute` first to a
    graded ``DistFn``, else ``ValueError``.  A ``sigma`` that is not positive
    and finite (NaN included) raises ``ValueError``, a finite one above pi/16
    :class:`SigmaTooCoarse`.
    """
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be a positive finite number, got {sigma}")
    if sigma > MAX_SIGMA:
        raise SigmaTooCoarse(f"sigma={sigma:g} exceeds pi/16; atoms would overlap")
    if n < MIN_GRID:
        raise ValueError(f"grid size {n} below minimum {MIN_GRID}")
    weights = [w for _, w in f.atoms]
    if any(isinstance(c, GradedCoeff) for c in (f.c0, *f.cos_coeffs, *f.sin_coeffs, *weights)):
        raise ValueError("DistFn has graded coefficients; call substitute(alpha, beta) first")

    grid = grid_points(n)
    samples = np.zeros(n)
    for loc, w in f.atoms:
        samples += w * kernel(grid, loc.value, sigma)
    smooth = np.full(n, f.c0)
    for k, (ck, sk) in enumerate(zip(f.cos_coeffs, f.sin_coeffs), 1):
        if ck:
            smooth += ck * np.cos(2 * k * grid)
        if sk:
            smooth += sk * np.sin(2 * k * grid)
    return RegularizedDistFn(samples + smooth)


# -- closed form of the regularized representation ------------------------------


def _wrapped_normal(x: float, width: float) -> float:
    """Density at ``x`` of the unit-mass normal of width ``width`` wrapped onto
    the period-pi circle, summed over the images within :data:`KERNEL_REACH`
    widths (a farther one weighs exp(-748) or less, exactly 0.0 in float64).
    The offset is one exact remainder, so the reach takes no rounding slack:
    slack would let in an image up to that slack away, whose squared
    offset/width overflows for a width near 1e-300.

    Each image weighs exp(-(d/width)^2 / 2), never d^2 / width^2, so a width
    as small as 1e-300 neither underflows to 0/0 nor loses the peak.
    """
    d = math.remainder(x, PI)
    reach = KERNEL_REACH * width
    total = 0.0
    for m in range(math.ceil((-reach - d) / PI), math.floor((reach - d) / PI) + 1):
        total += math.exp(-0.5 * ((d + m * PI) / width) ** 2)
    return total / (width * math.sqrt(2.0 * PI))


def contract(fs: Sequence[DistFn], sigma: float) -> float:
    """Integral of prod_j f_j(theta_j) along sum_j theta_j = 0 (mod pi).

    For any number N of float ``DistFn`` arms, each atom a wrapped Gaussian
    of width ``sigma``, it equals pi^(N-1) sum_k prod_j F_{j,k}, where
    F_{j,k} is f_j's coefficient of e^{2ik theta}; an atom at c has
    F_k = e^{-2 k^2 sigma^2} e^{-2ikc} / pi, the smooth part
    F_0 = c0 and F_k = (c_k - i s_k) / 2.  The sum splits by which part each
    arm takes:

    * every arm its atoms: each choice of one atom per arm adds the product
      of their weights times the wrapped normal of width sigma sqrt(N) at the
      sum of their locations, with no truncation in k;
    * any other term holds a smooth arm, so only the orders up to the
      highest harmonic some arm's smooth part holds remain (at most
      :data:`MAX_HARMONIC`).  One pass
      over the arms per k carries the all-atom product and the sum of the
      products with a smooth arm, never forming prod(A + S) - prod(A), which
      cancels at small beta.

    A Bell pair is N = 2 with one arm :meth:`DistFn.reflected`.
    """
    # (weight product, location sum) of every choice of one atom per arm
    choices = [(1.0, 0.0)]
    for f in fs:
        choices = [(weight * w, location + loc.value) for weight, location in choices for loc, w in f.atoms]
    width = sigma * math.sqrt(len(fs))
    peaked = 0.0
    for weight, location in choices:
        peaked += weight * _wrapped_normal(location, width)
    top = MAX_HARMONIC
    while top and not any(f.cos_coeffs[top - 1] or f.sin_coeffs[top - 1] for f in fs):
        top -= 1
    mixed = 0.0
    for k in range(top + 1):
        damping = math.exp(-2.0 * k * k * sigma * sigma) / PI
        all_atoms, some_smooth = 1.0, 0j
        for f in fs:
            a = 0.0
            for loc, w in f.atoms:
                a += w * cmath.exp(-2j * k * loc.value) if k else w
            a *= damping
            smooth = 0.5 * complex(f.cos_coeffs[k - 1], -f.sin_coeffs[k - 1]) if k else f.c0
            some_smooth = some_smooth * (a + smooth) + all_atoms * smooth
            all_atoms *= a
        # the -k term is the conjugate of the k term
        mixed += (2.0 if k else 1.0) * some_smooth.real
    return peaked + PI ** (len(fs) - 1) * mixed
