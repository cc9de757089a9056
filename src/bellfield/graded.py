"""Exact polynomials in the model's small parameter, the conversion cost beta.

Relative probabilities in the random-field model are polynomials in the
polarizer conversion cost ``beta``.  Keeping it formal makes the
small-parameter limit exact: the limiting value of a ratio is read off the
lowest surviving order instead of being estimated at some finite ``beta``.
Every term is kept, so a polynomial also evaluates exactly at a finite
``beta``; no degree cap is needed, as N photons' sums reach degree 2N.
The model's other small parameter, the detector absorption scale, is no
variable here: every live channel assignment pays it once, so it factors
out of every ratio, and the routes give it the value 1 (see
:mod:`bellfield.bell`).

Coefficients are exact rationals, so addition and multiplication are
commutative, associative and distributive *exactly* -- several downstream
identities are asserted term-by-term and would not survive float
reassociation.  Each is held as a reduced pair of Python ints (numerator,
positive denominator) and combined with integer arithmetic and
:func:`math.gcd`, not as a ``Fraction`` object: the values are the same
rationals, built at a fraction of the cost.  Ints, ``Fraction`` values and
finite floats are accepted at the boundary and converted losslessly (every
float is a rational, ``float.as_integer_ratio``); the queries hand
coefficients back as ``Fraction`` values.

The polynomials the routes combine mostly hold one or two terms, so an
operation costs about what its integers cost only if nothing else runs per
operand or per term: ``+`` and ``*`` read a graded operand's pairs directly,
take a scalar operand as the one reduced pair of its constant term, with no
polynomial built around it, write the sum of two pairs out in their loops
rather than calling a helper per term, and build each result straight into
its ``_terms`` slot.  ``one()`` and ``zero()`` are shared constants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Mapping, Tuple, Union

Scalar = Union[int, float, Fraction]
Key = int  # beta exponent
Ratio = Tuple[int, int]  # (numerator, denominator), reduced, denominator > 0
_SCALARS = (int, float, Fraction)


class DivergentLimit(ArithmeticError):
    """The numerator dominates the denominator as beta goes to zero."""


def _ratio(x: Scalar) -> Ratio:
    """``x`` as a reduced (numerator, positive denominator) pair, exactly."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite coefficient: {x!r}")
        return x.as_integer_ratio()
    if isinstance(x, int):
        return int(x), 1  # int() reads a bool as 0 or 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"unsupported coefficient type: {type(x).__name__}")


class GradedCoeff:
    """Polynomial ``sum c_j * beta^j``.

    Immutable.  Holds ``{j: (numerator, denominator)}``, each pair
    reduced with a positive denominator, so that equal polynomials hold equal
    dicts.  Terms with a zero coefficient are never stored.  A constant
    hashes as its value, so that it hashes like the scalar it equals; any
    other polynomial hashes its terms.  The hash is computed on first use
    and kept.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Key, Scalar] | None = None):
        clean: dict[Key, Ratio] = {}
        for j, c in (terms or {}).items():
            if j < 0:
                raise ValueError(f"negative exponent in term {j}")
            r = _ratio(c)
            if r[0]:
                clean[j] = r
        _set_terms(self, clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GradedCoeff is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "GradedCoeff":
        return cls({0: c})

    @classmethod
    def zero(cls) -> "GradedCoeff":
        return _ZERO  # immutable, safe to share

    @classmethod
    def one(cls) -> "GradedCoeff":
        return _ONE  # immutable, safe to share

    @classmethod
    def term(cls, c: Scalar, beta_exp: int = 0) -> "GradedCoeff":
        return cls({beta_exp: c})

    @classmethod
    def beta(cls) -> "GradedCoeff":
        return cls.term(1, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[Key, Fraction]:
        return {k: Fraction(n, d) for k, (n, d) in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return self._terms.keys() <= {0}

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self!r}")
        return Fraction(*self._terms.get(0, (0, 1)))

    def min_beta_order(self) -> int:
        """Lowest beta exponent; read off the keys, with no ``Fraction`` built."""
        if not self._terms:
            raise ValueError("zero polynomial has no beta order")
        return min(self._terms)

    def leading_terms(self) -> dict[Key, Fraction]:
        """The term at the lowest beta order (empty for zero)."""
        if not self._terms:
            return {}
        j = min(self._terms)
        return {j: Fraction(*self._terms[j])}

    def eval(self, beta: float) -> float:
        """Numeric value at a concrete ``beta``."""
        b = Fraction(beta)
        return float(sum(Fraction(n, d) * b**j for j, (n, d) in self._terms.items()))

    # -- arithmetic ---------------------------------------------------------
    #
    # Written out with no helper per operand or per term (see the module
    # docstring): a frame would cost more than the arithmetic of the one- or
    # two-term polynomials the routes combine.

    def __add__(self, other) -> "GradedCoeff":
        if type(other) is GradedCoeff:
            theirs = other._terms.items()
            if not self._terms:
                return other
        else:
            try:
                r = _ratio(other)
            except TypeError:
                return NotImplemented
            theirs = ((0, r),) if r[0] else ()
        if not theirs:
            return self
        out = dict(self._terms)
        for k, (n2, d2) in theirs:
            old = out.get(k)
            if old is None:
                out[k] = n2, d2
                continue
            # n1/d1 + n2/d2, reduced: the denominators' common factor is
            # found once, and only it can divide the new numerator
            n1, d1 = old
            g = gcd(d1, d2)
            if g == 1:
                n, d = n1 * d2 + n2 * d1, d1 * d2
            else:
                s = d1 // g
                n = n1 * (d2 // g) + n2 * s
                g = gcd(n, g)
                n, d = n // g, s * (d2 // g)
            if n:
                out[k] = n, d
            else:
                del out[k]
        result = _new(GradedCoeff)
        _set_terms(result, out)
        return result

    __radd__ = __add__

    def __neg__(self) -> "GradedCoeff":
        result = _new(GradedCoeff)
        _set_terms(result, {k: (-n, d) for k, (n, d) in self._terms.items()})
        return result

    def __sub__(self, other) -> "GradedCoeff":
        if type(other) is GradedCoeff or isinstance(other, _SCALARS):
            return self + (-other)  # negating a scalar is exact
        return NotImplemented

    def __rsub__(self, other) -> "GradedCoeff":
        if isinstance(other, _SCALARS):
            return -self + other
        return NotImplemented

    def __mul__(self, other) -> "GradedCoeff":
        if type(other) is GradedCoeff:
            theirs = other._terms.items()
        else:
            try:
                r = _ratio(other)
            except TypeError:
                return NotImplemented
            theirs = ((0, r),) if r[0] else ()
        if not (self._terms and theirs):
            return _ZERO
        out: dict[Key, Ratio] = {}
        for j1, (n1, d1) in self._terms.items():
            for j2, (n2, d2) in theirs:
                # (n1/d1)(n2/d2) with each numerator's common factor with the
                # other denominator divided out: reduced, as both pairs are
                g1, g2 = gcd(n1, d2), gcd(n2, d1)
                n, d = (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)
                k = j1 + j2
                old = out.get(k)
                if old is None:
                    out[k] = n, d
                    continue
                # old + n/d, reduced as in __add__
                m, e = old
                g = gcd(e, d)
                if g == 1:
                    n, d = m * d + n * e, e * d
                else:
                    s = e // g
                    n = m * (d // g) + n * s
                    g = gcd(n, g)
                    n, d = n // g, s * (d // g)
                if n:
                    out[k] = n, d
                else:
                    del out[k]
        result = _new(GradedCoeff)
        _set_terms(result, out)
        return result

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is GradedCoeff:
            return self._terms == other._terms
        try:
            r = _ratio(other)
        except TypeError:
            return NotImplemented
        except ValueError:  # NaN and the infinities equal no polynomial
            return False
        return self._terms == ({0: r} if r[0] else {})

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.constant_value()) if self.is_constant else hash(frozenset(self._terms.items()))
            _set_hash(self, h)
            return h

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "GradedCoeff(0)"
        parts = []
        for j, (n, d) in sorted(self._terms.items()):
            power = "" if not j else "*b" if j == 1 else f"*b^{j}"
            parts.append(f"{n / d:g}{power}")
        return f"GradedCoeff({' + '.join(parts)})"


#: Where results are built: past the immutability guard, into the slots.
_new = object.__new__
_set_terms = GradedCoeff._terms.__set__
_set_hash = GradedCoeff._hash.__set__

_ZERO = GradedCoeff()
_ONE = GradedCoeff({0: 1})


def coeff_ratio_limit(num: GradedCoeff, den: GradedCoeff) -> float:
    """Limit of ``num/den`` as beta goes to zero.

    The limit is the ratio of the coefficients at the denominator's minimal
    beta order.  A numerator of strictly higher beta order vanishes in the
    limit.
    """
    if den.is_zero:
        raise ZeroDivisionError("ratio limit with zero denominator")
    if num.is_zero:
        return 0.0
    b_num, b_den = min(num._terms), min(den._terms)
    if b_num > b_den:
        return 0.0
    if b_num < b_den:
        raise DivergentLimit(f"numerator is beta^{b_num} against denominator beta^{b_den}")
    (n1, d1), (n2, d2) = num._terms[b_den], den._terms[b_den]
    return (n1 * d2) / (d1 * n2)  # int division rounds the exact ratio once
