"""Distributions over the polarization angle: point masses plus a smooth part.

A ``DistFn`` is a finite list of weighted point masses ("atoms") on the
half-turn circle together with a smooth trigonometric polynomial in the
even harmonics ``cos(2k*theta)``, ``sin(2k*theta)`` (period-pi functions,
matching the mod-pi angle domain).  Atom weights and harmonic coefficients
are :class:`~bellfield.graded.GradedCoeff` values, so products and
integrals stay exact in the small parameters.  Every ``DistFn`` carries
exactly :data:`MAX_HARMONIC` cos and sin coefficients; a product that would
need a higher harmonic raises :class:`HarmonicOverflow` instead of dropping it.

Exact mode refuses to multiply two atoms at the same location -- the square
of a point mass is not a distribution.  Callers then switch to the
regularized representation (:class:`RegularizedDistFn`), which replaces
every atom by a narrow unit-mass kernel sampled on a uniform grid and does
plain numeric arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .angles import PI, PolAngle
from .graded import GradedCoeff

#: Highest harmonic ``cos/sin(2K*theta)`` a ``DistFn`` holds.  The model's
#: smooth parts are quadratic in cos/sin, so its products never exceed
#: harmonic 2.
MAX_HARMONIC = 8

#: Exact rational standing in for the integration-domain length pi.
PI_FRAC = Fraction(math.pi)

HALF = Fraction(1, 2)

MIN_GRID = 256
#: Largest grid on any grid route.  Arrays are 1-D, but a triphoton
#: contraction costs O(n^2) time: seconds per contraction at this size.
MAX_GRID = 1 << 16
MAX_SIGMA = PI / 16


class DeltaCollision(ArithmeticError):
    """Two point masses met at the same location in exact mode."""


class HarmonicOverflow(ArithmeticError):
    """A product reached a harmonic above :data:`MAX_HARMONIC`."""


class SigmaTooCoarse(ValueError):
    """Kernel width too large for atoms a quarter turn apart to separate."""


_NO_HARMONICS = (GradedCoeff.zero(),) * MAX_HARMONIC


class DistFn:
    """Atoms plus an even-harmonic trigonometric polynomial.

    ``cos_coeffs[k-1]`` and ``sin_coeffs[k-1]`` multiply ``cos(2k*theta)``
    and ``sin(2k*theta)`` for ``k`` up to :data:`MAX_HARMONIC`; ``c0`` is
    the smooth part's constant term.  Both coefficient lists, when given,
    must have exactly ``MAX_HARMONIC`` entries.  Instances are immutable.
    """

    __slots__ = ("atoms", "c0", "cos_coeffs", "sin_coeffs")

    def __init__(
        self,
        atoms: Iterable[tuple[PolAngle, GradedCoeff]] = (),
        c0: GradedCoeff | None = None,
        cos_coeffs: Sequence[GradedCoeff] | None = None,
        sin_coeffs: Sequence[GradedCoeff] | None = None,
    ):
        merged: list[tuple[PolAngle, GradedCoeff]] = []
        for loc, w in atoms:
            if w.is_zero:
                continue
            for i, (loc0, w0) in enumerate(merged):
                if loc0 == loc:
                    merged[i] = (loc0, w0 + w)
                    break
            else:
                merged.append((loc, w))
        object.__setattr__(self, "atoms", tuple((l, w) for l, w in merged if not w.is_zero))
        cos = tuple(cos_coeffs) if cos_coeffs is not None else _NO_HARMONICS
        sin = tuple(sin_coeffs) if sin_coeffs is not None else _NO_HARMONICS
        if len(cos) != MAX_HARMONIC or len(sin) != MAX_HARMONIC:
            raise ValueError(
                f"need {MAX_HARMONIC} cos and sin coefficients, got {len(cos)} and {len(sin)}"
            )
        object.__setattr__(self, "c0", c0 if c0 is not None else GradedCoeff.zero())
        object.__setattr__(self, "cos_coeffs", cos)
        object.__setattr__(self, "sin_coeffs", sin)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("DistFn is immutable")

    # -- constructors -------------------------------------------------------

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

    @classmethod
    def _shifted_half_cos(cls, center: PolAngle, scale, sign: int) -> "DistFn":
        # scale * (1/2 +- 1/2 cos(2(theta - center)))
        if not isinstance(scale, GradedCoeff):
            scale = GradedCoeff.constant(scale)
        cos = list(_NO_HARMONICS)
        sin = list(_NO_HARMONICS)
        c2 = Fraction(math.cos(2 * center.value))
        s2 = Fraction(math.sin(2 * center.value))
        cos[0] = scale * (sign * HALF * c2)
        sin[0] = scale * (sign * HALF * s2)
        return cls(c0=scale * HALF, cos_coeffs=cos, sin_coeffs=sin)

    @classmethod
    def cos_squared(cls, center: PolAngle, scale=1) -> "DistFn":
        """``scale * cos^2(theta - center)`` as a smooth distribution."""
        return cls._shifted_half_cos(center, scale, +1)

    @classmethod
    def sin_squared(cls, center: PolAngle, scale=1) -> "DistFn":
        """``scale * sin^2(theta - center)`` as a smooth distribution."""
        return cls._shifted_half_cos(center, scale, -1)

    # -- queries -------------------------------------------------------------

    @property
    def smooth_is_zero(self) -> bool:
        return self.c0.is_zero and all(c.is_zero for c in self.cos_coeffs) and all(
            s.is_zero for s in self.sin_coeffs
        )

    @property
    def is_zero(self) -> bool:
        return not self.atoms and self.smooth_is_zero

    def smooth_at(self, theta: float | PolAngle) -> GradedCoeff:
        """Value of the smooth part at a point (a graded coefficient)."""
        t = theta.value if isinstance(theta, PolAngle) else float(theta)
        out = self.c0
        for k, (ck, sk) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), 1):
            if not ck.is_zero:
                out = out + ck * Fraction(math.cos(2 * k * t))
            if not sk.is_zero:
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
        return DistFn(
            atoms=list(self.atoms) + list(other.atoms),
            c0=self.c0 + other.c0,
            cos_coeffs=[x + y for x, y in zip(self.cos_coeffs, other.cos_coeffs)],
            sin_coeffs=[x + y for x, y in zip(self.sin_coeffs, other.sin_coeffs)],
        )

    def scale(self, c) -> "DistFn":
        if not isinstance(c, GradedCoeff):
            c = GradedCoeff.constant(c)
        return DistFn(
            atoms=[(loc, w * c) for loc, w in self.atoms],
            c0=self.c0 * c,
            cos_coeffs=[x * c for x in self.cos_coeffs],
            sin_coeffs=[x * c for x in self.sin_coeffs],
        )

    def __mul__(self, c) -> "DistFn":
        """Scaling by a coefficient; :func:`dist_mul` multiplies two distributions."""
        if isinstance(c, DistFn):
            return NotImplemented
        return self if c == 1 else self.scale(c)

    __rmul__ = __mul__

    def substitute(self, alpha: float, beta: float) -> "DistFn":
        """Replace the formal small parameters by numeric values."""

        def ev(c: GradedCoeff) -> GradedCoeff:
            return GradedCoeff.constant(c.eval(alpha, beta))

        return DistFn(
            atoms=[(loc, ev(w)) for loc, w in self.atoms],
            c0=ev(self.c0),
            cos_coeffs=[ev(x) for x in self.cos_coeffs],
            sin_coeffs=[ev(x) for x in self.sin_coeffs],
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


def dist_mul(f: DistFn, g: DistFn) -> DistFn:
    """Pointwise product of two distributions.

    Atom x atom at distinct locations annihilates; at the same location it
    raises :class:`DeltaCollision` (callers fall back to regularized mode).
    Atom x smooth sifts the smooth factor at the atom.  Smooth x smooth is
    the exact trigonometric product; it raises :class:`HarmonicOverflow`
    when a harmonic above :data:`MAX_HARMONIC` keeps a nonzero coefficient.
    """
    if f.is_zero or g.is_zero:
        return DistFn.zero()

    for loc_f, _ in f.atoms:
        for loc_g, _ in g.atoms:
            if loc_f == loc_g:
                raise DeltaCollision(
                    f"atoms collide at angle {loc_f.value:.6g}; use regularized mode"
                )

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
        if c1.is_zero and s1.is_zero:
            continue
        for k2 in range(k + 1):
            c2, s2 = gc[k2], gs[k2]
            if c2.is_zero and s2.is_zero:
                continue
            if not c1.is_zero and not c2.is_zero:
                half = c1 * c2 * HALF
                add_cos(k1 + k2, half)
                add_cos(abs(k1 - k2), half)
            if not s1.is_zero and not s2.is_zero:
                half = s1 * s2 * HALF
                add_cos(abs(k1 - k2), half)
                add_cos(k1 + k2, -half)
            if not s1.is_zero and not c2.is_zero:
                half = s1 * c2 * HALF
                add_sin(k1 + k2, half)
                add_sin(k1 - k2, half)
            if not c1.is_zero and not s2.is_zero:
                half = c1 * s2 * HALF
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

    Sums the images ``center - m*pi``, m = -3..3, over the whole array, but
    only those within 40 sigma (+1e-9 for rounding) of the samples' range: a
    farther image is below exp(-800), exactly 0.0 in float64, at every sample.
    """
    norm = 1.0 / (sigma * math.sqrt(2.0 * PI))
    reach = 40.0 * abs(sigma) + 1e-9
    lo, hi = np.min(grid, initial=np.inf) - reach, np.max(grid, initial=-np.inf) + reach
    out = np.zeros_like(grid)
    for m in range(-3, 4):
        if center - m * PI < lo or center - m * PI > hi:
            continue
        d = grid - center + m * PI
        out += np.exp(-0.5 * (d / sigma) ** 2)
    return norm * out


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

    Requires numeric (constant) coefficients -- apply
    :meth:`DistFn.substitute` first when weights still carry the formal
    small parameters.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if sigma > MAX_SIGMA:
        raise SigmaTooCoarse(f"sigma={sigma:g} exceeds pi/16; atoms would overlap")
    if n < MIN_GRID:
        raise ValueError(f"grid size {n} below minimum {MIN_GRID}")

    def num(c: GradedCoeff) -> float:
        if not c.is_constant:
            raise ValueError(
                "DistFn still carries formal parameters; call substitute(alpha, beta) first"
            )
        return float(c.constant_value())

    grid = grid_points(n)
    samples = np.zeros(n)
    for loc, w in f.atoms:
        samples += num(w) * kernel(grid, loc.value, sigma)
    smooth = np.full(n, num(f.c0))
    for k in range(1, MAX_HARMONIC + 1):
        ck = num(f.cos_coeffs[k - 1])
        sk = num(f.sin_coeffs[k - 1])
        if ck:
            smooth += ck * np.cos(2 * k * grid)
        if sk:
            smooth += sk * np.sin(2 * k * grid)
    return RegularizedDistFn(samples + smooth)
