"""Exact bivariate polynomials in the model's two small parameters.

Relative probabilities in the random-field model are polynomials in the
detector absorption scale (``alpha`` throughout) and the polarizer
conversion cost (``beta``).  Keeping both formal makes small-parameter
limits exact: the limiting value of a ratio is read off the lowest
surviving orders instead of being estimated at some finite parameter value.
Every term is kept, so a polynomial also evaluates exactly at finite
parameter values; no degree cap is needed, as N photons' sums reach total
degree 3N.

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
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Mapping, Tuple, Union

Scalar = Union[int, float, Fraction]
Key = Tuple[int, int]  # (alpha exponent, beta exponent)
Ratio = Tuple[int, int]  # (numerator, denominator), reduced, denominator > 0


class MismatchedAlphaOrder(ArithmeticError):
    """The ratio's small-parameter limit would depend on alpha.

    Raised when numerator and denominator carry different minimal alpha
    orders: the joint limit is then direction-dependent, so we refuse to
    guess.
    """


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


def _sum(n1: int, d1: int, n2: int, d2: int) -> Ratio:
    """``n1/d1 + n2/d2`` of two reduced pairs, reduced: the denominators'
    common factor found once, and only it can divide the new numerator."""
    g = gcd(d1, d2)
    if g == 1:
        return n1 * d2 + n2 * d1, d1 * d2
    s = d1 // g
    t = n1 * (d2 // g) + n2 * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * d2
    return t // g2, s * (d2 // g2)


def _accumulate(out: dict[Key, Ratio], k: Key, n: int, d: int) -> None:
    """Add the reduced pair ``n/d`` into ``out[k]``, keeping ``out`` in its
    stored form: a sum that cancels to zero removes the key."""
    if k in out:
        total = _sum(*out[k], n, d)
        if total[0]:
            out[k] = total
        else:
            del out[k]
    else:
        out[k] = (n, d)


class GradedCoeff:
    """Polynomial ``sum c_ij * alpha^i * beta^j``.

    Immutable.  Holds ``{(i, j): (numerator, denominator)}``, each pair
    reduced with a positive denominator, so that equal polynomials hold equal
    dicts and hash alike.  Terms with a zero coefficient are never stored.
    The hash is computed on first use and kept.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Key, Scalar] | None = None):
        clean: dict[Key, Ratio] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term ({i}, {j})")
            r = _ratio(c)
            if r[0]:
                clean[(i, j)] = r
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, terms: dict[Key, Ratio]) -> "GradedCoeff":
        """Wrap ``terms`` without re-checking them: the arithmetic's results,
        already reduced nonzero pairs."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GradedCoeff is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "GradedCoeff":
        return cls({(0, 0): c})

    @classmethod
    def zero(cls) -> "GradedCoeff":
        return _ZERO  # immutable, safe to share

    @classmethod
    def one(cls) -> "GradedCoeff":
        return cls.constant(1)

    @classmethod
    def term(cls, c: Scalar, alpha_exp: int = 0, beta_exp: int = 0) -> "GradedCoeff":
        return cls({(alpha_exp, beta_exp): c})

    @classmethod
    def alpha(cls) -> "GradedCoeff":
        return cls.term(1, 1, 0)

    @classmethod
    def beta(cls) -> "GradedCoeff":
        return cls.term(1, 0, 1)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[Key, Fraction]:
        return {k: Fraction(n, d) for k, (n, d) in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {(0, 0)}

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant: {self!r}")
        return Fraction(*self._terms.get((0, 0), (0, 1)))

    def min_alpha_order(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no alpha order")
        return min(i for i, _ in self._terms)

    def min_beta_order(self, alpha_order: int | None = None) -> int:
        """Lowest beta exponent, among the terms of ``alpha^alpha_order`` only
        when that is given; read off the keys, with no ``Fraction`` built."""
        orders = [j for i, j in self._terms if alpha_order in (None, i)]
        if not orders:
            where = "" if alpha_order is None else f" at alpha order {alpha_order}"
            raise ValueError(f"no beta order: no term{where}")
        return min(orders)

    def _by_beta(self, order: int) -> dict[int, Ratio]:
        return {j: c for (i, j), c in self._terms.items() if i == order}

    def at_alpha_order(self, order: int) -> dict[int, Fraction]:
        """Coefficients of alpha^order, keyed by beta exponent."""
        return {j: Fraction(n, d) for j, (n, d) in self._by_beta(order).items()}

    def leading_terms(self) -> dict[Key, Fraction]:
        """Terms at the minimal total degree (empty for zero)."""
        if not self._terms:
            return {}
        lead = min(i + j for i, j in self._terms)
        return {(i, j): Fraction(n, d) for (i, j), (n, d) in self._terms.items() if i + j == lead}

    def eval(self, alpha: float, beta: float) -> float:
        """Numeric value at concrete parameter values."""
        a, b = Fraction(alpha), Fraction(beta)
        return float(sum(Fraction(n, d) * a**i * b**j for (i, j), (n, d) in self._terms.items()))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "GradedCoeff | None":
        if isinstance(other, GradedCoeff):
            return other
        if isinstance(other, (int, float, Fraction)):
            r = _ratio(other)
            return GradedCoeff._trusted({(0, 0): r}) if r[0] else _ZERO
        return None

    def __add__(self, other) -> "GradedCoeff":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._terms:
            return self
        if not self._terms:
            return o
        out = dict(self._terms)
        for k, (n2, d2) in o._terms.items():
            _accumulate(out, k, n2, d2)
        return GradedCoeff._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "GradedCoeff":
        return GradedCoeff._trusted({k: (-n, d) for k, (n, d) in self._terms.items()})

    def __sub__(self, other) -> "GradedCoeff":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "GradedCoeff":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "GradedCoeff":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self._terms and o._terms):
            return _ZERO
        out: dict[Key, Ratio] = {}
        for (i1, j1), (n1, d1) in self._terms.items():
            for (i2, j2), (n2, d2) in o._terms.items():
                # (n1/d1)(n2/d2) with each numerator's common factor with the
                # other denominator divided out: reduced, as both pairs are
                g1, g2 = gcd(n1, d2), gcd(n2, d1)
                n, d = (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)
                _accumulate(out, (i1 + i2, j1 + j2), n, d)
        return GradedCoeff._trusted(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
            return h

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "GradedCoeff(0)"
        parts = []
        for (i, j), c in sorted(self._terms.items()):
            factors = [f"{c[0] / c[1]:g}"]
            if i:
                factors.append(f"a^{i}" if i > 1 else "a")
            if j:
                factors.append(f"b^{j}" if j > 1 else "b")
            parts.append("*".join(factors))
        return f"GradedCoeff({' + '.join(parts)})"


_ZERO = GradedCoeff()


def coeff_ratio_limit(num: GradedCoeff, den: GradedCoeff) -> float:
    """Limit of ``num/den`` as both small parameters go to zero.

    The alpha dependence must cancel (same minimal alpha order on both
    sides); among the surviving terms the limit is the ratio of the
    coefficients at the denominator's minimal beta order.  A numerator of
    strictly higher beta order vanishes in the limit.
    """
    if den.is_zero:
        raise ZeroDivisionError("ratio limit with zero denominator")
    if num.is_zero:
        return 0.0
    a_num = num.min_alpha_order()
    a_den = den.min_alpha_order()
    if a_num != a_den:
        raise MismatchedAlphaOrder(
            f"numerator carries alpha^{a_num} but denominator alpha^{a_den}; "
            "the limit depends on alpha"
        )
    num_by_beta = num._by_beta(a_num)
    den_by_beta = den._by_beta(a_den)
    b_den = min(den_by_beta)
    b_num = min(num_by_beta)
    if b_num > b_den:
        return 0.0
    if b_num < b_den:
        raise DivergentLimit(
            f"numerator is beta^{b_num} against denominator beta^{b_den}"
        )
    (n1, d1), (n2, d2) = num_by_beta[b_den], den_by_beta[b_den]
    return (n1 * d2) / (d1 * n2)  # int division rounds the exact ratio once
