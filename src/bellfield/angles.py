"""Polarization angles on the half-turn circle.

Linear polarization is orientation, not direction: an angle and the same
angle plus a half turn describe the same state, so every value is reduced
modulo pi at construction, into [-pi/2, pi/2), by the exact and odd IEEE
remainder.  Negation is therefore exact: ``PolAngle(-a.value).value`` is
``-a.value`` for every angle but -pi/2 itself, so a reflected function's
atoms keep the cos 2theta of theirs and negate the sin 2theta, bit for bit.
-pi/2 maps onto itself, so its sin 2k theta, sin(-k fl(pi)), cannot change
sign; every user of it takes that sine as 0, its exact value.
An angle in the upper half turn has a negative ``value`` and ``degrees``
(120 degrees reads -60).  Equality is circular and carries a small
tolerance, which makes instances unhashable by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PI = math.pi

#: Two angles closer than this (circularly, mod pi) compare equal.
ANGLE_TOL = 1e-12


def reduce_degrees(degrees: float) -> float:
    """``degrees`` mod 180, exact (``math.fmod``), sign kept; a non-finite
    value raises ``ValueError``."""
    if not math.isfinite(degrees):
        raise ValueError(f"non-finite angle: {degrees!r}")
    return math.fmod(degrees, 180.0)


@dataclass(frozen=True, eq=False)
class PolAngle:
    """An angle in radians, canonically reduced into [-pi/2, pi/2)."""

    value: float

    # Written out instead of the generated __init__ plus a __post_init__: every
    # split and every reflected atom builds one.
    def __init__(self, value: float):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"non-finite angle: {v!r}")
        v = math.remainder(v, PI)  # exact, and odd: remainder(-x) == -remainder(x)
        if v == PI / 2:  # the one tie; the range is half-open
            v = -v
        object.__setattr__(self, "value", v)

    @classmethod
    def from_degrees(cls, degrees: float) -> "PolAngle":
        """The angle of ``degrees``, reduced mod 180 exactly before the
        conversion: radians of a huge value lose every digit mod pi."""
        return cls(math.radians(reduce_degrees(degrees)))

    @property
    def degrees(self) -> float:
        return math.degrees(self.value)

    def perpendicular(self) -> "PolAngle":
        """The orthogonal polarization (a quarter turn away)."""
        return PolAngle(self.value + PI / 2)

    def separation(self, other: "PolAngle") -> float:
        """Circular distance mod pi, in [0, pi/2]."""
        d = abs(self.value - other.value) % PI
        return min(d, PI - d)

    def __eq__(self, other) -> bool:
        """Circular separation below :data:`ANGLE_TOL`, the test of
        :meth:`separation` written out: it runs on every atom comparison."""
        if not isinstance(other, PolAngle):
            return NotImplemented
        d = abs(self.value - other.value) % PI
        return d < ANGLE_TOL or PI - d < ANGLE_TOL

    # Tolerance-based equality cannot be made consistent with hashing.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PolAngle({self.value:.12g})"
