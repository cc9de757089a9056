"""Crystal-polarizer scenario model of the two-photon coincidence experiment.

Each channel of the experiment is modeled by five objects: the crystal
entry surface (which splits an incoming linear photon between the pass
polarization and the blocked, internally-reflected one), the exit surface
(which converts a passing photon into one of two circular modes at cost
``beta`` each), the external counter (which absorbs a circular photon at
cost ``alpha``), and two internal absorbers for the reflected light (the
one on the blocked path absorbs at cost ``2*alpha*beta``; the one on the
pass path is never occupied here).

Those five factors are declared once, as data (:data:`CHANNEL_FACTORS`):
for each, the channel bits it reads and, per assignment of those bits, its
value as a product of primitives -- the entry surface's pass and block
split, ``alpha`` and ``beta``.  Two backends give the primitives values:
:func:`split_backend` (point masses plus trigonometric tails in closed form,
with graded coefficients for a formal ``beta`` and float ones for a numeric
one) and :func:`grid_backend` (the point masses widened into width-sigma
kernels and sampled on an angle grid).  ``alpha`` is formal only: every live
channel assignment pays it exactly once, at the counter or at the internal
absorber, so N channels carry alpha^N in every term of every numerator and
partition, and it cancels from each ratio.  The exact route keeps it graded
(:data:`ALPHA`) and checks its order; the numeric backends give it the
value 1, since any other number could only move the rounding.

The channels meet only through the shared angle, so summing each channel's
bits out on its own (:func:`sum_out_channel`) is the variable elimination
the graph admits; its live assignments are derived once, at import
(:data:`CHANNEL_PLAN`).  Three evaluation routes are cross-checked:

* exact: the graded split backend, eliminated per channel; the channel sums
  are contracted by :func:`contract_channels` at width 0, and limits are
  read off the graded coefficients;
* regularized: the same factorized sums on the float split backend, and the
  same :func:`contract_channels` at width sigma, with no grid (handles the
  degenerate equal/orthogonal polarizer settings);
* brute-force oracle (:func:`brute_force_oracle`): numeric parameters, full
  2^8 scenario enumeration on the grid backend, with no graded algebra and
  no channel factorization.

A channel's sums on the split backend depend on nothing but its setting and
``beta``, so the exact and regularized routes and the triphoton graph take
them from the bounded memo of :func:`channel_sums`.  The oracle keeps no
memo; it stays the independent path.  The triphoton graph contracts three
channels of the float split backend along the source's angle constraint,
with the same :func:`contract_channels`; the modified-polarizer model of
:mod:`bellfield.quantum` contracts each arm's (pass, block) split through it
too.  Only the oracle uses numpy, imported when :func:`grid_backend` or
:func:`brute_force_oracle` is called.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .angles import PI, PolAngle
from .dist import (
    MAX_GRID,
    MAX_HARMONIC,
    MAX_SIGMA,
    MIN_GRID,
    DistFn,
    SigmaTooCoarse,
    contract,
    grid_points,
    wrapped_gaussian,
    _unchecked,
)
from .graded import GradedCoeff, coeff_ratio_limit
from .mrf import (
    EventPredicate,
    NodeFeature,
    ScenarioGraph,
    # Unused here, but bench/tests checks that tracing rebinds it in this module.
    tally_events,  # noqa: F401
)

if TYPE_CHECKING:
    import numpy as np

CHANNELS = ("L", "R")

ALPHA = GradedCoeff.alpha()
BETA = GradedCoeff.beta()

#: Bound on the numeric conversion cost, far below one.
MAX_BETA = 0.1

#: Fewest grid cells per kernel width, sigma / (pi / grid_n), on the oracle.
#: The trapezoid mass of the width-sigma/sqrt(2) product kernel misses one by
#: at most about 2 exp(-(sigma * grid_n)^2): 8e-13 at 1.7 cells, 1e-4 at one cell.
MIN_KERNEL_CELLS = 1.7

#: Grid cells per kernel width of the oracle's default grid
#: (:func:`sized_grid_n`): a mass error of about 2 exp(-(3 pi)^2), 5e-39.
SIZED_KERNEL_CELLS = 3


class ParameterError(ValueError):
    """A parameter outside its range; ``key`` names it (on the command line,
    the configuration key, and exit code 2)."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason


class KernelUnresolved(ParameterError):
    """The grid is too coarse for the kernel: its mass on the grid is off."""


def require_resolved(sigma: float, grid_n: int) -> None:
    """Check that the oracle's ``grid_n``-point grid resolves a width-``sigma``
    kernel: :data:`~bellfield.dist.MIN_GRID` points at least, else
    :class:`ParameterError` on ``grid_n``, and :data:`MIN_KERNEL_CELLS`
    cells per width, else :class:`KernelUnresolved` on ``sigma``."""
    if grid_n < MIN_GRID:
        raise ParameterError("grid_n", f"the oracle needs at least {MIN_GRID} grid points, got {grid_n}")
    if sigma * grid_n / PI < MIN_KERNEL_CELLS:
        raise KernelUnresolved(
            "sigma",
            f"sigma={sigma:g} spans {sigma * grid_n / PI:.3g} cells of the {grid_n}-point grid; "
            f"the oracle needs at least {MIN_KERNEL_CELLS} (sigma >= {MIN_KERNEL_CELLS * PI / grid_n:.3g})",
        )


def sized_grid_n(sigma: float) -> int:
    """The oracle's default grid for a width-``sigma`` kernel:
    ceil(:data:`SIZED_KERNEL_CELLS` pi / sigma) points, clamped to
    [:data:`~bellfield.dist.MIN_GRID`, :data:`~bellfield.dist.MAX_GRID`].

    The trapezoid rule converges exponentially on a periodic integrand, so a
    few cells per width reach float64 accuracy.  A ``sigma`` that is not a
    positive number gets ``MAX_GRID``; :class:`Mrf3Params` refuses it by name.
    """
    n = SIZED_KERNEL_CELLS * PI / sigma if sigma > 0 else math.inf
    return MAX_GRID if not n < MAX_GRID else max(MIN_GRID, math.ceil(n))


class _SizedGrid(int):
    """A grid size :class:`Mrf3Params` resolved from sigma, not one the caller
    gave: a ``replace`` that passes it on sizes the grid anew."""


class UnexpectedLeadingOrder(ArithmeticError):
    """The exact sums do not lead with alpha^2 beta^3; the detector
    bookkeeping broke or the beta^3 coefficient cancelled numerically."""


@dataclass(frozen=True)
class Mrf3Params:
    """Polarizer settings plus the model's numeric knobs, checked on
    construction.

    ``beta`` and ``sigma`` only matter to the numeric (regularized / oracle)
    routes, ``grid_n`` only to the oracle (unless given, sized from
    ``sigma`` by :func:`sized_grid_n`; a ``replace`` of ``sigma`` sizes it
    anew and keeps a ``grid_n`` the caller gave); the exact route treats
    ``beta`` as formal, and ``alpha``, which cancels, is no knob.  A
    knob out of range raises :class:`ParameterError` naming it, whichever
    route will run; a finite ``sigma`` above pi/16 raises
    :class:`~bellfield.dist.SigmaTooCoarse`.  Whether the oracle's grid
    resolves the kernel is :func:`require_resolved`'s check.
    """

    theta_a: PolAngle
    theta_b: PolAngle
    beta: float = 1e-3
    sigma: float = 1e-2
    grid_n: int | None = None

    def __post_init__(self):
        if not 0 < self.beta <= MAX_BETA:
            raise ParameterError("beta", f"must lie in (0, {MAX_BETA:g}], got {self.beta}")
        if not 0 < self.sigma < math.inf:
            raise ParameterError("sigma", f"must be a positive finite number, got {self.sigma}")
        if self.grid_n is None or type(self.grid_n) is _SizedGrid:
            object.__setattr__(self, "grid_n", _SizedGrid(sized_grid_n(self.sigma)))
        if not 1 <= self.grid_n <= MAX_GRID:
            raise ParameterError("grid_n", f"must lie in [1, {MAX_GRID}], got {self.grid_n}")
        if self.sigma > MAX_SIGMA:
            raise SigmaTooCoarse(f"sigma={self.sigma:g} exceeds pi/16")

    @property
    def degenerate(self) -> bool:
        """Equal or orthogonal settings (exact mode cannot separate atoms)."""
        return self.theta_a == self.theta_b or self.theta_a == self.theta_b.perpendicular()

    def setting(self, channel: str) -> PolAngle:
        return self.theta_a if channel == "L" else self.theta_b


def var(channel: str, name: str) -> str:
    return f"{channel}_{name}"


# -- the channel, declared once --------------------------------------------------

#: One channel's binary variables: the photon on the crystal's pass path, on
#: its blocked path, and in each of the two circular modes.
CHANNEL_BITS = ("gamma_b", "gamma_b_minus", "gamma_C", "gamma_W")

#: The internal absorber's cost 2*alpha*beta: alpha to absorb, beta for the
#: conversion to circular, doubled for the two circular modes.
ABSORBER_COST = (2, "alpha", "beta")

#: (channel bits read, {assignment of those bits: product of primitives}).
Factor = tuple[tuple[str, ...], dict[tuple[int, ...], tuple]]

#: One channel's five factors, in the order every route multiplies them.  A
#: value is a product of primitives: "pass" and "block" (the entry surface's
#: split of the photon, functions of the shared angle), "alpha", "beta", or a
#: number.  The empty product is one; an assignment left out weighs zero.
CHANNEL_FACTORS: dict[str, Factor] = {
    # Crystal surface facing the source: the photon continues in the pass or
    # in the blocked polarization, never in neither or both.
    "entry": (("gamma_b", "gamma_b_minus"), {(1, 0): ("pass",), (0, 1): ("block",)}),
    # Surface facing the counter: a crystal photon leaves in exactly one
    # circular mode at cost beta; without one, nothing leaves.
    "exit": (
        ("gamma_b", "gamma_C", "gamma_W"),
        {(1, 1, 0): ("beta",), (1, 0, 1): ("beta",), (0, 0, 0): ()},
    ),
    # Counter absorbing a circular photon at cost alpha.  Double occupation
    # never survives the exit surface, so any finite value does there.
    "detector": (
        ("gamma_C", "gamma_W"),
        {(0, 0): (), (1, 0): ("alpha",), (0, 1): ("alpha",), (1, 1): ("alpha",)},
    ),
    # Internal absorber for the blocked polarization.
    "hidden_minus": (("gamma_b_minus",), {(0,): (), (1,): ABSORBER_COST}),
    # Internal absorber on the pass path; never occupied here.
    "hidden_plus": ((), {(): ()}),
}


def split_backend(theta_p: PolAngle, beta) -> dict:
    """Primitives in closed form, for the exact route and for
    :func:`~bellfield.dist.contract`.

    The pass split is a point mass at the polarizer axis plus the tail
    beta cos^2(theta - theta_p) = beta/2 + (beta/2)(cos 2theta_p cos 2theta
    + sin 2theta_p sin 2theta), the block split a point mass at the
    orthogonal axis plus beta sin^2, the same tail with its harmonic negated.
    At theta_p = -pi/2 sin 2theta_p is taken as 0 (see :mod:`~bellfield.angles`).
    A graded ``beta`` (:data:`BETA`, the exact route) gives graded
    coefficients and ``alpha`` the formal :data:`ALPHA`; a float gives float
    coefficients, the point masses widened by the contraction, and ``alpha``
    the value 1.0.
    """
    graded = isinstance(beta, GradedCoeff)
    unit, zero, alpha = (GradedCoeff.one(), GradedCoeff.zero(), ALPHA) if graded else (1.0, 0.0, 1.0)
    c = beta * (0.5 * math.cos(2 * theta_p.value))
    s = beta * (0.5 * math.sin(2 * theta_p.value)) if theta_p.value != -PI / 2 else zero
    half = beta * 0.5
    higher = (zero,) * (MAX_HARMONIC - 1)
    # One nonzero atom each and full harmonic slots: nothing to merge or check.
    return {
        "pass": _unchecked(((theta_p, unit),), half, (c, *higher), (s, *higher)),
        "block": _unchecked(((theta_p.perpendicular(), unit),), half, (-c, *higher), (-s, *higher)),
        "alpha": alpha,
        "beta": beta,
    }


def grid_backend(theta: np.ndarray, theta_p: float, beta: float, sigma: float) -> dict:
    """Primitives sampled at the photon angles ``theta`` (any shape).

    The split's point masses widen into width-``sigma`` wrapped Gaussians;
    ``beta`` is a number and ``alpha`` is 1.0, as on the float split.  Both
    tails come from one cosine: with u = (beta/2) cos 2(theta - theta_p),
    beta cos^2 = beta/2 + u and beta sin^2 = beta/2 - u, each added in place
    onto its kernel.
    """
    import numpy as np

    half = 0.5 * beta
    u = np.subtract(theta, theta_p)
    u *= 2.0
    np.cos(u, out=u)
    u *= half
    passed = wrapped_gaussian(theta, theta_p, sigma)
    passed += half + u
    blocked = wrapped_gaussian(theta, theta_p + PI / 2, sigma)
    blocked += np.subtract(half, u, out=u)
    return {"pass": passed, "block": blocked, "alpha": 1.0, "beta": beta}


def primitive_product(primitives: tuple, backend: Mapping):
    """A product of primitives valued on ``backend``, multiplied left to
    right; the empty product is one, and a single primitive is its own
    value, not a copy."""
    values = [backend.get(p, p) for p in primitives]
    return functools.reduce(operator.mul, values) if values else 1


def factor_tables(backend: Mapping) -> dict[str, Factor]:
    """Each factor's value for every assignment it lists, evaluated once."""
    return {
        name: (reads, {bits: primitive_product(prims, backend) for bits, prims in values.items()})
        for name, (reads, values) in CHANNEL_FACTORS.items()
    }


def _live_assignments() -> list[tuple[bool, tuple[tuple[str, tuple], ...]]]:
    """The channel assignments every factor lists, in lexicographic order:
    whether the counter fires in each, and each factor's (name, bits read),
    in factor order."""
    live = []
    for bits in itertools.product((0, 1), repeat=len(CHANNEL_BITS)):
        local = dict(zip(CHANNEL_BITS, bits))
        keys = tuple((name, tuple(local[r] for r in reads)) for name, (reads, _) in CHANNEL_FACTORS.items())
        if all(key in CHANNEL_FACTORS[name][1] for name, key in keys):
            live.append((bool(local["gamma_C"] or local["gamma_W"]), keys))
    return live


def _elimination_plan() -> tuple[tuple[bool, tuple[tuple, ...]], ...]:
    """The live channel assignments: whether the counter fires in each, and
    the nonempty primitive products of its factors, in factor order."""
    return tuple(
        (fires, tuple(prims for name, key in keys if (prims := CHANNEL_FACTORS[name][1][key])))
        for fires, keys in _live_assignments()
    )


#: One channel's live assignments (three of the sixteen), derived once from
#: :data:`CHANNEL_FACTORS`.
CHANNEL_PLAN = _elimination_plan()


def sum_out_channel(backend: Mapping) -> tuple:
    """Sum one channel's four bits out of its factors.

    Returns (detected, undetected): the summed weight of the scenarios in
    which the channel's counter fires, and of those in which it does not,
    as functions of the shared angle in the backend's representation.  Each
    live assignment of :data:`CHANNEL_PLAN` multiplies its factors' primitive
    products in factor order, each distinct assignment product evaluated
    once (the two detected assignments share pass * beta * alpha); the sums
    run in assignment order.  Leaving out the empty products, which are one,
    changes no value, so every backend gives what a walk over the
    :func:`factor_tables` values gives, bit for bit.
    """
    products: dict[tuple, object] = {}
    sums: tuple[list, list] = ([], [])
    for detected, factors in CHANNEL_PLAN:
        if factors not in products:
            values = [primitive_product(prims, backend) for prims in factors]
            products[factors] = functools.reduce(operator.mul, values, 1)
        sums[0 if detected else 1].append(products[factors])
    return tuple(functools.reduce(operator.add, terms) for terms in sums)


#: Distinct (setting, beta, reflected) channel sums :func:`channel_sums`
#: keeps, least recently used first out.  A Bell sweep reuses one arm (its
#: 0-degree one) between rows and the default triphoton scan cycles through
#: its 5 angles, so 8 entries keep every repeat of a default experiment;
#: settings that recur only between unrelated calls are not worth holding.
CHANNEL_SUMS_MEMO = 8


def channel_sums(theta_p: PolAngle, beta, reflected: bool = False) -> tuple:
    """``sum_out_channel(split_backend(theta_p, beta))``, each sum
    :meth:`~bellfield.dist.DistFn.reflected` if ``reflected``, memoized.

    A channel's sums depend on nothing but its setting and ``beta`` (graded
    or float), so every route that pairs channels on the split backend
    shares them: a Bell row's second arm at 0 degrees is summed out once per
    sweep, not once per row.  The memo keeps :data:`CHANNEL_SUMS_MEMO`
    entries, keyed on the exact ``theta_p.value`` with 0.0 and -0.0 apart
    (their sin coefficients differ in sign), ``beta`` by value and type, and
    ``reflected``.  The returned sums are shared between
    callers and must not be modified; a call that raises caches nothing.
    """
    value = theta_p.value
    return _memo_channel_sums(value, math.copysign(1.0, value), beta, reflected)


@functools.lru_cache(maxsize=CHANNEL_SUMS_MEMO, typed=True)
def _memo_channel_sums(value: float, sign: float, beta, reflected: bool) -> tuple:
    # value is already reduced, so PolAngle keeps it bit for bit.
    sums = sum_out_channel(split_backend(PolAngle(value), beta))
    return tuple(f.reflected() for f in sums) if reflected else sums


channel_sums.cache_clear = _memo_channel_sums.cache_clear  # type: ignore[attr-defined]
channel_sums.cache_info = _memo_channel_sums.cache_info  # type: ignore[attr-defined]


def contract_channels(sums: Sequence[tuple[DistFn, DistFn]], width: float) -> tuple:
    """Detected weight and partition of N channels fed by one source.

    ``sums`` holds each channel's (detected, undetected) sums on the
    :func:`split_backend`, as functions of its own photon's angle; the
    source constrains the angles to sum to zero (mod pi).  The detected
    weight contracts the detected sums, the partition each channel's total,
    both by :func:`~bellfield.dist.contract` (exact and graded at width 0).
    A Bell pair is N = 2 with the second channel reflected.
    """
    num = contract([detected for detected, _ in sums], width)
    den = contract([detected + undetected for detected, undetected in sums], width)
    return num, den


# -- the exact graph ---------------------------------------------------------------


def channel_features(channel: str, theta_p: PolAngle) -> tuple[NodeFeature, ...]:
    """The channel's five factors as graph features, on the graded split backend."""
    features = []
    for name, (reads, values) in factor_tables(split_backend(theta_p, BETA)).items():
        deps = tuple(var(channel, r) for r in reads)
        table = {bits: v if isinstance(v, DistFn) else DistFn.constant(v) for bits, v in values.items()}

        def fn(a: Mapping[str, int], deps=deps, table=table) -> DistFn:
            return table.get(tuple(a[d] for d in deps), DistFn.zero())

        features.append(NodeFeature(f"{channel}.{name}", deps, fn))
    return tuple(features)


def build_bell_graph(params: Mrf3Params) -> ScenarioGraph:
    """Two-channel graph: eight binary variables, five features per channel,
    and the events ``D`` (both counters fire), ``D_L`` and ``D_R``.

    The source is folded into the conditioning (both emission bits fixed to
    one), and the shared angle is the argument of the features' values.
    """

    def fires(ch: str) -> EventPredicate:
        c, w = var(ch, "gamma_C"), var(ch, "gamma_W")
        return EventPredicate(f"D_{ch}", (c, w), lambda a: bool(a[c] or a[w]))

    left, right = fires("L"), fires("R")
    both = EventPredicate("D", left.depends_on + right.depends_on, lambda a: left.holds(a) and right.holds(a))
    return ScenarioGraph(
        tuple(var(ch, g) for ch in CHANNELS for g in CHANNEL_BITS),
        tuple(f for ch in CHANNELS for f in channel_features(ch, params.setting(ch))),
        (both, left, right),
    )


# -- coincidence probability -------------------------------------------------------


class ProbabilityOutOfRange(ArithmeticError):
    """A computed probability more than 1e-9 outside [0, 1]."""


def checked_probability(value: float) -> float:
    """``value`` clamped into [0, 1] within 1e-9 of it (a near-collision
    cancellation's rounding), else :class:`ProbabilityOutOfRange`."""
    if not -1e-9 <= value <= 1 + 1e-9:
        raise ProbabilityOutOfRange(f"probability out of range: {value!r}")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class CoincidenceResult:
    probability: float
    numerator: GradedCoeff
    denominator: GradedCoeff
    mode: str  # "exact" | "regularized"

    def __post_init__(self):
        object.__setattr__(self, "probability", checked_probability(self.probability))


def coincidence_probability(params: Mrf3Params, mode: str = "exact") -> CoincidenceResult:
    """Probability of a double count, conditional on pair emission.

    Both modes multiply the two channels' summed weights and integrate over
    the shared angle: the numerator pairs the detected sums, the partition
    pairs each channel's total, both by :func:`contract_channels` with the
    right channel reflected, so that the shared angle is a sum constraint.
    Exact mode takes formal small parameters at width 0 and their joint
    limit; it requires non-degenerate settings.  Regularized mode takes a
    numeric ``beta`` at width ``sigma`` and handles equal / orthogonal settings.
    """
    if mode not in ("exact", "regularized"):
        raise ValueError(f"unknown mode: {mode!r}")
    exact = mode == "exact"
    beta, width = (BETA, 0) if exact else (params.beta, params.sigma)
    sums = (channel_sums(params.theta_a, beta), channel_sums(params.theta_b, beta, reflected=True))
    num, den = contract_channels(sums, width)
    if not exact:
        return CoincidenceResult(
            partition_ratio(num, den), GradedCoeff.constant(num), GradedCoeff.constant(den), "regularized"
        )
    # Both sides must carry alpha^2 at leading beta order 3; anything
    # else means the detector bookkeeping broke or a coefficient cancelled.
    alpha_orders = (num.min_alpha_order(), den.min_alpha_order())
    if alpha_orders != (2, 2):
        raise UnexpectedLeadingOrder(f"leading alpha orders {alpha_orders}, expected (2, 2)")
    beta_orders = (num.min_beta_order(alpha_order=2), den.min_beta_order(alpha_order=2))
    if beta_orders != (3, 3):
        raise UnexpectedLeadingOrder(
            f"leading beta orders {beta_orders} at alpha^2, expected (3, 3); "
            "near-degenerate settings cancel the beta^3 coefficient"
        )
    return CoincidenceResult(coeff_ratio_limit(num, den), num, den, "exact")


# -- brute-force oracle --------------------------------------------------------------


def partition_ratio(num: float, den: float) -> float:
    """A numeric route's detected weight over its partition, once the
    partition is checked to be nonzero and finite, as a
    :func:`checked_probability`."""
    if den == 0.0:
        raise ZeroDivisionError("partition vanished")
    if not math.isfinite(den):
        raise OverflowError("partition is not finite; a kernel this narrow overflows float64 at its peak")
    return checked_probability(num / den)


def _oracle_plan() -> tuple[tuple[bool, tuple[tuple[str, str, tuple], ...]], ...]:
    """The scenarios of both channels that every factor lists, in
    lexicographic order of their eight bits (the left channel's most
    significant): whether every counter fires, and per feature in order,
    channel by channel and factor by factor, its (channel, factor, bits) key.
    They are the pairs of live channel assignments, since the channels share
    no bit."""
    live = _live_assignments()
    channels = [[(fires, tuple((ch, name, key) for name, key in keys)) for fires, keys in live] for ch in CHANNELS]
    return tuple(
        (all(fires for fires, _ in pair), tuple(itertools.chain.from_iterable(keys for _, keys in pair)))
        for pair in itertools.product(*channels)
    )


#: The oracle's live scenarios, derived once: 9 of the 2^8.
ORACLE_PLAN = _oracle_plan()


def brute_force_oracle(params: Mrf3Params) -> CoincidenceResult:
    """Fully independent numeric evaluation of the coincidence probability.

    Enumerates the 2^8 binary scenarios, multiplies each one's relative
    probability out over the ``params.grid_n``-point angle grid, and
    integrates it by the trapezoid rule.  No graded algebra, no channel
    factorization -- this is the cross-check the other routes are measured
    against.  The grid follows sigma unless given (:func:`sized_grid_n`).

    Each factor's value table comes from the grid backend, evaluated once
    per assignment of the bits the factor reads, so the grid kernels are
    sampled four times per call.  The scenarios that some factor leaves out
    weigh zero; the others, in lexicographic order, are listed once, at
    import (:data:`ORACLE_PLAN`), with the key of each feature's value.  A
    scenario's scalar weight is the product of its scalar values in feature
    order, the products a scenario-by-scenario walk takes; one that
    underflowed to zero is skipped.  The rest multiply that weight by their
    array values over the grid, in one reused buffer and in feature order
    (the bits of ``weight * A_1 * A_2 * ...``), and add its integral to the
    sums.  Scenarios that share a product -- the same weight and the same
    array objects, as the four detected x detected ones share pass_L *
    pass_R -- form and integrate it once, for the first of them, and the
    later ones add that integral in their own turn, so the sums take the
    same bits.
    """
    import numpy as np

    require_resolved(params.sigma, params.grid_n)
    grid = grid_points(params.grid_n)
    values = {
        (ch, name, key): value
        for ch in CHANNELS
        for name, (_, table) in factor_tables(
            grid_backend(grid, params.setting(ch).value, params.beta, params.sigma)
        ).items()
        for key, value in table.items()
    }

    num = 0.0
    den = 0.0
    cell = PI / params.grid_n
    product = np.empty_like(grid)
    integrals: dict[tuple, float] = {}
    for coincident, keys in ORACLE_PLAN:
        scalar = 1.0
        arrays = []
        for key in keys:
            value = values[key]
            if isinstance(value, np.ndarray):
                arrays.append(value)
            else:
                scalar *= value
        if scalar == 0.0:
            continue
        shared = (scalar, *map(id, arrays))
        weight = integrals.get(shared)
        if weight is None:
            first, *rest = arrays
            np.multiply(first, scalar, out=product)
            for array in rest:
                product *= array
            weight = integrals[shared] = float(product.sum()) * cell
        den += weight
        if coincident:
            num += weight
    return CoincidenceResult(
        partition_ratio(num, den), GradedCoeff.constant(num), GradedCoeff.constant(den), "regularized"
    )


# -- triphoton extension -----------------------------------------------------------


@dataclass(frozen=True)
class TriphotonGraph:
    """Three crystal-polarizer channels fed by an angle-constrained source.

    The source emits three photons whose polarization angles sum to zero
    (mod pi), leaving two free angles.  Each channel is summed out on its own
    on the float split backend, and the three channels are then contracted
    along the constraint in closed form by :func:`contract_channels`, with no
    grid.
    There is no arrival-order anywhere in the structure: the prediction can
    only depend on the settings.
    """

    settings: tuple[PolAngle, PolAngle, PolAngle]
    beta: float
    sigma: float
    # No route reads it; only bench/tracer.py::_cells_measure does, until
    # that per-layer metric is dropped.
    grid_n: int

    def triple_coincidence(self) -> float:
        """Probability that all three counters fire, given the emission."""
        sums = [channel_sums(s, self.beta) for s in self.settings]
        return partition_ratio(*contract_channels(sums, self.sigma))


def build_triphoton_graph(settings: tuple[PolAngle, PolAngle, PolAngle], params: Mrf3Params) -> TriphotonGraph:
    """Assemble the three-channel graph; numeric evaluation only.

    ``params`` supplies the numeric knobs (its two polarizer fields are
    unused here).
    """
    if len(settings) != 3:
        raise ValueError("exactly three polarizer settings required")
    return TriphotonGraph(tuple(settings), beta=params.beta, sigma=params.sigma, grid_n=params.grid_n)
