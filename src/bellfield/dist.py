"""Distributions over the polarization angle: point masses plus a smooth part.

A ``DistFn`` is a finite list of weighted point masses ("atoms") on the
half-turn circle together with a smooth trigonometric polynomial in the
even harmonics ``cos(2k*theta)``, ``sin(2k*theta)`` (period-pi functions,
matching the mod-pi angle domain).  It is generic in its coefficient:
:class:`~bellfield.graded.GradedCoeff` values on the exact route, so that
products and integrals stay exact in ``beta``, and floats on the
regularized routes.  Every ``DistFn`` carries exactly :data:`MAX_HARMONIC`
cos and sin coefficients; a product that would need a higher harmonic raises
:class:`HarmonicOverflow` instead of dropping it.

One function, :func:`contract`, integrates the product of N arms along
sum_j theta_j = 0 (mod pi) without forming it, on either coefficient type.
At width 0 the atoms stay point masses and the result is exact; two atoms
that meet -- the square of a point mass is not a distribution -- raise
:class:`DeltaCollision`, as :func:`dist_mul` does.  Callers then switch to a
positive width, which widens every atom into a unit-mass wrapped Gaussian
and does plain float arithmetic, still in closed form.
:class:`RegularizedDistFn` samples a float ``DistFn`` on a uniform grid
instead, as a reference.

Only the grid layer uses numpy: :func:`grid_points`, :func:`wrapped_gaussian`,
:class:`RegularizedDistFn` and :func:`regularize` import it when called, so
the exact and closed-form routes run without loading it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .angles import ANGLE_TOL, PI, PolAngle
from .graded import GradedCoeff

if TYPE_CHECKING:
    import numpy as np

#: Highest harmonic ``cos/sin(2K*theta)`` a ``DistFn`` holds.  The model's
#: smooth parts are quadratic in cos/sin, so its products never exceed
#: harmonic 2.
MAX_HARMONIC = 2

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
    ``GradedCoeff`` or all floats; left out, they are zeros of the type the
    given ones have (graded when none is given).  Atoms at
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
        atoms = tuple(atoms)
        cos = tuple(cos_coeffs) if cos_coeffs is not None else None
        sin = tuple(sin_coeffs) if sin_coeffs is not None else None
        if None in (c0, cos, sin):
            given = [w for _, w in atoms] + [c for c in (c0, *(cos or ()), *(sin or ())) if c is not None]
            zero = GradedCoeff.zero() if all(isinstance(c, GradedCoeff) for c in given) else 0.0
            c0 = zero if c0 is None else c0
            cos = (zero,) * MAX_HARMONIC if cos is None else cos
            sin = (zero,) * MAX_HARMONIC if sin is None else sin
        if len(cos) != MAX_HARMONIC or len(sin) != MAX_HARMONIC:
            raise ValueError(
                f"need {MAX_HARMONIC} cos and sin coefficients, got {len(cos)} and {len(sin)}"
            )
        self.atoms = _merged((), atoms)
        self.c0 = c0
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
        """Value of the smooth part at a point, in the coefficient type; at
        -pi/2 every sin 2k theta is taken as 0 (see :mod:`~bellfield.angles`)."""
        t = theta.value if isinstance(theta, PolAngle) else float(theta)
        out = self.c0
        for k, (ck, sk) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), 1):
            if ck:
                out = out + ck * math.cos(2 * k * t)
            if sk and t != -PI / 2:
                out = out + sk * math.sin(2 * k * t)
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
        (``c`` zero) drops."""
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

    def substitute(self, beta: float) -> "DistFn":
        """The float ``DistFn`` at a numeric value of the formal ``beta``."""
        return DistFn(
            atoms=[(loc, w.eval(beta)) for loc, w in self.atoms],
            c0=self.c0.eval(beta),
            cos_coeffs=[x.eval(beta) for x in self.cos_coeffs],
            sin_coeffs=[x.eval(beta) for x in self.sin_coeffs],
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
            raise TypeError(f"{name} needs graded coefficients")


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
    for loc_f, _ in f.atoms:
        for loc_g, _ in g.atoms:
            if loc_f == loc_g:
                raise DeltaCollision(f"atoms collide at angle {loc_f.value:.6g}; use regularized mode")

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
                half = c1 * c2 * 0.5
                add_cos(k1 + k2, half)
                add_cos(abs(k1 - k2), half)
            if s1 and s2:
                half = s1 * s2 * 0.5
                add_cos(abs(k1 - k2), half)
                add_cos(k1 + k2, -half)
            if s1 and c2:
                half = s1 * c2 * 0.5
                add_sin(k1 + k2, half)
                add_sin(k1 - k2, half)
            if c1 and s2:
                half = c1 * s2 * 0.5
                add_sin(k1 + k2, half)
                add_sin(k2 - k1, half)

    if any(ncos[k + 1 :]) or any(nsin[k + 1 :]):
        raise HarmonicOverflow(f"product needs a harmonic above {MAX_HARMONIC}")
    return DistFn(atoms=atoms, c0=ncos[0], cos_coeffs=ncos[1 : k + 1], sin_coeffs=nsin[1 : k + 1])


def dist_integrate(f: DistFn) -> GradedCoeff:
    """Integral over [0, pi).

    Atoms carry their full weight; every nonconstant even harmonic
    integrates to zero over the half-turn period, leaving ``pi * c0``.
    """
    total = f.c0 * PI
    for _, w in f.atoms:
        total = total + w
    return total


# -- regularized representation -----------------------------------------------


def grid_points(n: int) -> np.ndarray:
    """Uniform half-open grid on [0, pi)."""
    import numpy as np

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
    import numpy as np

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


@dataclass(frozen=True)
class RegularizedDistFn:
    """A distribution sampled on a uniform grid over [0, pi)."""

    samples: np.ndarray

    def __post_init__(self):
        import numpy as np

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
    kernel: Callable[[np.ndarray, float, float], np.ndarray] = wrapped_gaussian,
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
        raise ValueError("DistFn has graded coefficients; call substitute(beta) first")

    import numpy as np

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


def _fourier(f: DistFn, k: int, zero, damping: float) -> tuple:
    """``f``'s atoms A = damping sum_j w_j e^{2ik c_j} and smooth part
    S = c_k + i s_k (c0 at k = 0), as (A.real, A.imag, S.real, S.imag):
    its coefficients of e^{-2ik theta}, the conjugates of those of
    e^{2ik theta}, without the atoms' 1/pi and the smooth part's 1/2.
    The weights multiply the float cos and sin values directly (a graded
    weight takes a float exactly), and a zero coefficient becomes ``zero``:
    ``DistFn()``, built with no coefficient at all, holds graded ones.  An atom
    at -pi/2 adds no sine (see :mod:`~bellfield.angles`)."""
    if not k:
        return sum((w for _, w in f.atoms), zero), zero, f.c0 or zero, zero
    re = im = zero
    for loc, w in f.atoms:
        t = 2 * k * loc.value
        re = re + w * math.cos(t)
        if loc.value != -PI / 2:
            im = im + w * math.sin(t)
    if damping != 1.0:
        re, im = re * damping, im * damping
    return re, im, f.cos_coeffs[k - 1] or zero, f.sin_coeffs[k - 1] or zero


def contract(fs: Sequence[DistFn], width: float) -> GradedCoeff | float:
    """Integral of prod_j f_j(theta_j) along sum_j theta_j = 0 (mod pi).

    The N arms' atoms are wrapped normals of width ``width``, or at width 0
    point masses.  The integral is pi^(N-1) sum_k prod_j F_{j,k}, where
    F_{j,k} is f_j's coefficient of e^{2ik theta}: an atom at c has
    F_k = e^{-2 k^2 width^2} e^{-2ikc} / pi, the smooth part F_0 = c0 and
    F_k = (c_k - i s_k) / 2.  The sum splits by which part each arm takes:

    * every arm its atoms: each choice of one atom per arm adds the product
      of their weights times the wrapped normal of width ``width`` sqrt(N)
      at the sum of their locations, with no truncation in k.  A choice
      whose locations sum to 0 mod pi within
      :data:`~bellfield.angles.ANGLE_TOL` collides: at a positive width its
      normal is taken at exactly 0, since the float sum of locations that
      meet can miss by 1e-16, far beyond a width of 1e-300; at width 0, where
      the normal is a point mass, it raises :class:`DeltaCollision`, and any
      other choice adds nothing;
    * any other term holds a smooth arm, so only the orders up to the
      highest harmonic some arm's smooth part holds remain (at most
      :data:`MAX_HARMONIC`).  With A and S an arm's atoms and smooth part at
      order k (:func:`_fourier`), a term in which m arms take S carries
      pi^(m-1), and for k > 0 also 2^(1-m) (their halves, and the conjugate
      -k term).  One pass over the arms per k applies it in Horner form and
      never forms prod(A + S) - prod(A), which cancels at small beta.

    Coefficients are floats at a positive width and graded at width 0,
    else ``TypeError``.  At width 0 cos and sin values and pi enter as the
    floats they are, and a graded coefficient takes each exactly (every
    float is a rational, and pi/2 halves :data:`PI` exactly): the result is
    exact in the formal ``beta``.  A Bell pair is N = 2 with one arm
    :meth:`DistFn.reflected`; ``contract([f, g.reflected()], 0)`` equals
    ``dist_integrate(dist_mul(f, g))``, but as no product is formed it
    never raises :class:`HarmonicOverflow`.
    """
    exact = width == 0
    if exact:
        _require_graded("contract at width 0", *fs)
    zero = GradedCoeff.zero() if exact else 0.0
    # every choice of one atom per arm: (its location sum, its weight product)
    choices = [(0.0, 1.0)]
    for f in fs:
        choices = [(c + loc.value, p if exact else p * w) for c, p in choices for loc, w in f.atoms]
    total = zero
    for location, product in choices:
        offset = math.remainder(location, PI)
        collides = abs(offset) < ANGLE_TOL
        if not exact:
            total += product * _wrapped_normal(0.0 if collides else offset, width * math.sqrt(len(fs)))
        elif collides:
            raise DeltaCollision(f"atoms meet at location sum {location:.6g}; use regularized mode")
    top = MAX_HARMONIC
    while top and not any(f.cos_coeffs[top - 1] or f.sin_coeffs[top - 1] for f in fs):
        top -= 1
    for k in range(top + 1):
        damping = math.exp(-2.0 * k * k * width * width)
        scale = PI / 2 if k else PI
        # Over the arms so far, x = prod_j A_j and z = sum_(m>=1) scale^(m-1)
        # P_m, P_m the terms in which m arms take S.  A further arm turns P_m
        # into P_m A + P_(m-1) S, so z into z A + S (x + scale z).
        xr, xi, zr, zi = _fourier(fs[0], k, zero, damping)
        for f in fs[1:-1]:
            ar, ai, sr, si = _fourier(f, k, zero, damping)
            br, bi = xr + scale * zr, xi + scale * zi
            zr, zi = zr * ar - zi * ai + sr * br - si * bi, zr * ai + zi * ar + sr * bi + si * br
            xr, xi = xr * ar - xi * ai, xr * ai + xi * ar
        # the last arm: only the real part of z A + S (x + scale z)
        ar, ai, sr, si = _fourier(fs[-1], k, zero, damping)
        total = total + zr * ar + sr * (xr + scale * zr)
        if k:  # at k = 0 every imaginary part is zero
            total = total - (zi * ai + si * (xi + scale * zi))
    if not exact and isinstance(total, GradedCoeff):
        raise TypeError("contract at a positive width needs float coefficients")
    return total
