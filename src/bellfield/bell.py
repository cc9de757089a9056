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
:func:`graded_backend` (point masses plus trigonometric tails, formal small
parameters) and :func:`grid_backend` (kernels sampled on an angle grid,
numeric parameters).  The channels meet only through the shared angle, so
summing each channel's bits out on its own (:func:`sum_out_channel`) is the
variable elimination the graph admits.

Three evaluation routes are provided and cross-checked:

* exact: the graded backend, eliminated per channel, multiplied and
  integrated over the shared angle; limits read off the graded
  coefficients;
* regularized: the same factorized sums on the grid backend (handles the
  degenerate equal/orthogonal polarizer settings);
* brute-force oracle: numeric parameters, full 2^8 scenario enumeration on
  the grid with no graded algebra and no channel factorization.  Each
  factor is evaluated once per assignment of the bits it reads, and every
  scenario's product is then assembled from those values.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .angles import PI, PolAngle
from .dist import (
    MAX_GRID,
    MIN_GRID,
    DistFn,
    RegularizedDistFn,
    SigmaTooCoarse,
    dist_integrate,
    dist_mul,
    grid_points,
    wrapped_gaussian,
)
from .graded import GradedCoeff, coeff_ratio_limit
from .mrf import (
    BINARY,
    SHARED_ANGLE,
    EventPredicate,
    NodeFeature,
    ScenarioGraph,
    VariableDecl,
    # Unused here, but bench/tests checks that tracing rebinds it in this module.
    tally_events,  # noqa: F401
)

CHANNELS = ("L", "R")

ALPHA = GradedCoeff.alpha()
BETA = GradedCoeff.beta()

#: Bounds on the numeric small parameters; both are costs, far below one.
MAX_ALPHA = 1.0
MAX_BETA = 0.1

class UnexpectedLeadingOrder(ArithmeticError):
    """The exact sums do not lead with alpha^2 beta^3; the detector
    bookkeeping broke or the beta^3 coefficient cancelled numerically."""


@dataclass(frozen=True)
class Mrf3Params:
    """Polarizer settings plus the model's numeric knobs.

    ``alpha``, ``beta``, ``sigma`` and ``grid_n`` only matter to the
    numeric (regularized / oracle) routes; the exact route treats the two
    small parameters as formal symbols.
    """

    theta_a: PolAngle
    theta_b: PolAngle
    alpha: float = 1e-2
    beta: float = 1e-3
    sigma: float = 1e-2
    grid_n: int = 8192

    def require_numeric(self):
        """Check the numeric knobs before any grid route allocates.

        Raises ``ValueError`` for an out-of-range ``alpha``, ``beta`` or
        ``sigma``, or for ``grid_n`` above :data:`~bellfield.dist.MAX_GRID`,
        and :class:`SigmaTooCoarse` for a kernel too wide to separate atoms.
        """
        if not (0 < self.alpha <= MAX_ALPHA):
            raise ValueError(f"alpha must lie in (0, {MAX_ALPHA:g}], got {self.alpha}")
        if not (0 < self.beta <= MAX_BETA):
            raise ValueError(f"beta must lie in (0, {MAX_BETA:g}], got {self.beta}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.sigma > PI / 16:
            raise SigmaTooCoarse(f"sigma={self.sigma:g} exceeds pi/16")
        if self.grid_n > MAX_GRID:
            raise ValueError(f"grid_n={self.grid_n} above maximum {MAX_GRID}")

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

#: The oracle's alternative exit rule: circular output without a crystal
#: photon, at weight beta.  It does not move the result at leading order.
EXIT_WITHOUT_CRYSTAL: Factor = (
    CHANNEL_FACTORS["exit"][0],
    {**CHANNEL_FACTORS["exit"][1], (0, 1, 0): ("beta",), (0, 0, 1): ("beta",)},
)


def graded_backend(theta_p: PolAngle, beta: GradedCoeff = BETA) -> dict:
    """Primitives for the exact route.

    The pass split is a point mass at the polarizer axis plus a
    beta-suppressed cos^2 tail, the block split a point mass at the
    orthogonal axis plus a sin^2 tail; ``alpha`` stays formal.
    """
    return {
        "pass": DistFn.atom(theta_p) + DistFn.cos_squared(theta_p, beta),
        "block": DistFn.atom(theta_p.perpendicular()) + DistFn.sin_squared(theta_p, beta),
        "alpha": ALPHA,
        "beta": beta,
    }


def grid_backend(theta: np.ndarray, theta_p: float, alpha: float, beta: float, sigma: float) -> dict:
    """Primitives sampled at the photon angles ``theta`` (any shape).

    The split's point masses widen into width-``sigma`` wrapped Gaussians;
    ``alpha`` and ``beta`` are numbers.
    """
    return {
        "pass": wrapped_gaussian(theta, theta_p, sigma) + beta * np.cos(theta - theta_p) ** 2,
        "block": wrapped_gaussian(theta, theta_p + PI / 2, sigma) + beta * np.sin(theta - theta_p) ** 2,
        "alpha": alpha,
        "beta": beta,
    }


def primitive_product(primitives: tuple, backend: Mapping):
    """A product of primitives valued on ``backend``; the empty product is one."""
    return functools.reduce(operator.mul, (backend.get(p, p) for p in primitives), 1)


def factor_tables(backend: Mapping, factors: Mapping[str, Factor] = CHANNEL_FACTORS) -> dict[str, Factor]:
    """Each factor's value for every assignment it lists, evaluated once."""
    return {
        name: (reads, {bits: primitive_product(prims, backend) for bits, prims in values.items()})
        for name, (reads, values) in factors.items()
    }


def sum_out_channel(backend: Mapping) -> tuple:
    """Sum one channel's four bits out of its factor table.

    Returns (detected, undetected): the summed weight of the scenarios in
    which the channel's counter fires, and of those in which it does not,
    as functions of the shared angle in the backend's representation.
    """
    tables = factor_tables(backend).values()
    sums: tuple[list, list] = ([], [])
    for bits in itertools.product((0, 1), repeat=len(CHANNEL_BITS)):
        local = dict(zip(CHANNEL_BITS, bits))
        values = [table.get(tuple(local[r] for r in reads)) for reads, table in tables]
        if all(v is not None for v in values):
            detected = local["gamma_C"] or local["gamma_W"]
            sums[0 if detected else 1].append(functools.reduce(operator.mul, values))
    return tuple(functools.reduce(operator.add, terms) for terms in sums)


# -- the exact graph ---------------------------------------------------------------


def channel_features(channel: str, theta_p: PolAngle) -> tuple[NodeFeature, ...]:
    """The channel's five factors as graph features, on the graded backend."""
    features = []
    for name, (reads, values) in factor_tables(graded_backend(theta_p)).items():
        deps = tuple(var(channel, r) for r in reads)
        table = {bits: v if isinstance(v, DistFn) else DistFn.constant(v) for bits, v in values.items()}

        def fn(a: Mapping[str, int], deps=deps, table=table) -> DistFn:
            return table.get(tuple(a[d] for d in deps), DistFn.zero())

        features.append(NodeFeature(f"{channel}.{name}", deps, fn))
    return tuple(features)


def detection_predicate(channel: str) -> EventPredicate:
    c, w = var(channel, "gamma_C"), var(channel, "gamma_W")
    return EventPredicate(f"D_{channel}", (c, w), lambda a: bool(a[c] or a[w]))


def coincidence_predicate() -> EventPredicate:
    deps = tuple(var(ch, g) for ch in CHANNELS for g in ("gamma_C", "gamma_W"))

    def fn(a: Mapping[str, int]) -> bool:
        return bool((a[var("L", "gamma_C")] or a[var("L", "gamma_W")]) and (
            a[var("R", "gamma_C")] or a[var("R", "gamma_W")]
        ))

    return EventPredicate("D", deps, fn)


def build_bell_graph(params: Mrf3Params) -> ScenarioGraph:
    """Two-channel graph: eight binary variables plus the shared angle.

    The source is folded into the conditioning (both emission bits fixed to
    one, one shared angle), leaving five features per channel.
    """
    variables = [VariableDecl("theta", SHARED_ANGLE)]
    features: list[NodeFeature] = []
    for ch in CHANNELS:
        for g in CHANNEL_BITS:
            variables.append(VariableDecl(var(ch, g), BINARY))
        features.extend(channel_features(ch, params.setting(ch)))
    predicates = (coincidence_predicate(), detection_predicate("L"), detection_predicate("R"))
    return ScenarioGraph(tuple(variables), tuple(features), predicates)


def channel_sums(params: Mrf3Params, channel: str) -> tuple[DistFn, DistFn]:
    """Summed relative probability of the channel's detection / no-detection
    scenarios, as exact functions of the shared angle.

    Detection happens two ways (one per circular mode), each weighing
    ``(pass split) * beta * alpha``; the single no-detection scenario weighs
    ``(blocked split) * 2 * alpha * beta``.
    """
    return sum_out_channel(graded_backend(params.setting(channel)))


# -- coincidence probability -------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceResult:
    probability: float
    numerator: GradedCoeff
    denominator: GradedCoeff
    mode: str  # "exact" | "regularized"

    def __post_init__(self):
        if not (-1e-9 <= self.probability <= 1 + 1e-9):
            raise ValueError(f"probability out of range: {self.probability}")
        object.__setattr__(self, "probability", min(max(self.probability, 0.0), 1.0))


def _numeric_grid(params: Mrf3Params) -> np.ndarray:
    """The angle grid of the one-photon-angle numeric routes, once the
    numeric knobs are checked."""
    params.require_numeric()
    if params.grid_n < MIN_GRID:
        raise ValueError(f"grid_n={params.grid_n} below minimum {MIN_GRID}")
    return grid_points(params.grid_n)


def coincidence_probability(params: Mrf3Params, mode: str = "exact") -> CoincidenceResult:
    """Probability of a double count, conditional on pair emission.

    Both modes multiply the two channels' summed weights and integrate over
    the shared angle: the numerator pairs the detected sums, the partition
    pairs each channel's total.  Exact mode does so on the graded backend,
    with formal small parameters, and takes their joint limit; it requires
    non-degenerate settings.  Regularized mode does so on the grid backend
    and handles the equal / orthogonal special cases.
    """
    if mode == "exact":
        (pl, ml), (pr, mr) = (channel_sums(params, ch) for ch in CHANNELS)
        num = dist_integrate(dist_mul(pl, pr))
        den = dist_integrate(dist_mul(pl + ml, pr + mr))
        # Both sides must carry alpha^2 at leading beta order 3; anything
        # else means the detector bookkeeping broke or a coefficient cancelled.
        alpha_orders = (num.min_alpha_order(), den.min_alpha_order())
        if alpha_orders != (2, 2):
            raise UnexpectedLeadingOrder(f"leading alpha orders {alpha_orders}, expected (2, 2)")
        beta_orders = (min(num.at_alpha_order(2)), min(den.at_alpha_order(2)))
        if beta_orders != (3, 3):
            raise UnexpectedLeadingOrder(
                f"leading beta orders {beta_orders} at alpha^2, expected (3, 3); "
                "near-degenerate settings cancel the beta^3 coefficient"
            )
        return CoincidenceResult(coeff_ratio_limit(num, den), num, den, "exact")
    if mode == "regularized":
        grid = _numeric_grid(params)
        (pl, ml), (pr, mr) = (
            sum_out_channel(
                grid_backend(grid, params.setting(ch).value, params.alpha, params.beta, params.sigma)
            )
            for ch in CHANNELS
        )
        cell = PI / params.grid_n
        num = float((pl * pr).sum()) * cell
        den = float(((pl + ml) * (pr + mr)).sum()) * cell
        return CoincidenceResult(
            partition_ratio(num, den),
            GradedCoeff.constant(num),
            GradedCoeff.constant(den),
            "regularized",
        )
    raise ValueError(f"unknown mode: {mode!r}")


# -- brute-force oracle --------------------------------------------------------------


def partition_ratio(num: float, den: float) -> float:
    """A grid route's detected weight over its partition, once the partition
    is checked to be nonzero and finite."""
    if den == 0.0:
        raise ZeroDivisionError("partition vanished")
    if not math.isfinite(den):
        raise OverflowError("partition is not finite; the kernels are not resolved by the grid")
    return num / den


def brute_force_oracle(params: Mrf3Params, exit_beta_without_crystal: bool = False) -> CoincidenceResult:
    """Fully independent numeric evaluation of the coincidence probability.

    Enumerates all 2^8 binary scenarios, builds each one's relative
    probability as a :class:`RegularizedDistFn` product over the angle
    grid, and integrates.  No graded algebra, no channel factorization --
    this is the cross-check the other routes are measured against.

    Each factor's value table comes from the grid backend, evaluated once
    per assignment of the bits the factor reads, so the grid kernels are
    sampled four times per call.  The bits each factor reads are resolved
    to positions in the scenario's bit tuple once; every scenario then
    looks its factor values up and multiplies them in feature order.
    ``exit_beta_without_crystal`` swaps in :data:`EXIT_WITHOUT_CRYSTAL`; it
    exists to demonstrate numerically that the variant does not move the
    result at leading order.
    """
    grid = _numeric_grid(params)
    factors = dict(CHANNEL_FACTORS)
    if exit_beta_without_crystal:
        factors["exit"] = EXIT_WITHOUT_CRYSTAL
    # Position of each channel bit in a scenario's bit tuple.
    slot = {var(ch, g): k for k, (ch, g) in enumerate(itertools.product(CHANNELS, CHANNEL_BITS))}
    tables = [
        (tuple(slot[var(ch, r)] for r in reads), table)
        for ch in CHANNELS
        for reads, table in factor_tables(
            grid_backend(grid, params.setting(ch).value, params.alpha, params.beta, params.sigma),
            factors,
        ).values()
    ]
    counters = [(slot[var(ch, "gamma_C")], slot[var(ch, "gamma_W")]) for ch in CHANNELS]

    num = 0.0
    den = 0.0
    for bits in itertools.product((0, 1), repeat=len(slot)):
        scalar = 1.0
        arrays: list[np.ndarray] = []
        for positions, table in tables:
            val = table.get(tuple(bits[k] for k in positions), 0.0)
            if isinstance(val, np.ndarray):
                arrays.append(val)
            else:
                scalar *= val
                if scalar == 0.0:
                    break
        if scalar == 0.0:
            continue
        product = RegularizedDistFn(np.full_like(grid, scalar))
        for arr in arrays:
            product = product * RegularizedDistFn(arr)
        weight = product.integral()
        den += weight
        if all(bits[c] or bits[w] for c, w in counters):
            num += weight
    return CoincidenceResult(
        partition_ratio(num, den), GradedCoeff.constant(num), GradedCoeff.constant(den), "regularized"
    )


# -- triphoton extension -----------------------------------------------------------


def constrained_sum(*samples: np.ndarray) -> float:
    """Sum of the photons' sample products along the source constraint.

    The samples lie on ``grid_points(n)``; the source's photon angles sum to
    0 (mod pi), so the sum runs over the index tuples with
    i_0 + ... + i_{N-1} = 0 (mod n) of prod_j f_j[i_j], for any number N of
    photons.  It folds the photons in one at a time by circular convolution:
    convolving with ``f`` written out twice and keeping the middle n entries
    wraps the indices mod n.  Memory is O(n), time O(N n^2); it is symmetric
    in its arguments.
    """
    n = len(samples[0])
    acc = samples[0]
    for f in samples[1:]:
        acc = np.convolve(acc, np.concatenate((f, f)))[n : 2 * n]
    return float(acc[0])


@dataclass(frozen=True)
class TriphotonGraph:
    """Three crystal-polarizer channels fed by an angle-constrained source.

    The source emits three photons whose polarization angles sum to zero
    (mod pi), leaving two free angles.  Each channel is summed out on its own
    over the 1-D axis ``photon_angles`` (from :func:`triphoton_angles`), and
    the three channels are then contracted along the constraint by the
    circular convolution of :func:`constrained_sum`, in O(n) memory.  There
    is no arrival-order anywhere in the structure: the prediction can only
    depend on the settings.
    """

    settings: tuple[PolAngle, PolAngle, PolAngle]
    alpha: float
    beta: float
    sigma: float
    grid_n: int
    photon_angles: np.ndarray = field(repr=False, compare=False)

    FREE_ANGLES = 2

    def triple_coincidence(self) -> float:
        """Probability that all three counters fire, given the emission."""
        sums = [
            sum_out_channel(grid_backend(self.photon_angles, s.value, self.alpha, self.beta, self.sigma))
            for s in self.settings
        ]
        cell = (PI / self.grid_n) ** 2
        num = constrained_sum(*(detected for detected, _ in sums))
        den = constrained_sum(*(detected + undetected for detected, undetected in sums))
        return partition_ratio(num * cell, den * cell)


def triphoton_angles(params: Mrf3Params) -> np.ndarray:
    """The 1-D axis every triphoton channel is sampled on, once
    :meth:`Mrf3Params.require_numeric` has checked the numeric knobs
    (``grid_n`` included, so nothing is allocated for a grid over
    :data:`~bellfield.dist.MAX_GRID`)."""
    params.require_numeric()
    return grid_points(params.grid_n)


def build_triphoton_graph(settings: tuple[PolAngle, PolAngle, PolAngle], params: Mrf3Params) -> TriphotonGraph:
    """Assemble the three-channel graph; numeric-grid evaluation only.

    ``params`` supplies the numeric knobs (its two polarizer fields are
    unused here); :func:`triphoton_angles` checks them and lays out the axis.
    """
    if len(settings) != 3:
        raise ValueError("exactly three polarizer settings required")
    return TriphotonGraph(
        settings=tuple(settings),
        alpha=params.alpha,
        beta=params.beta,
        sigma=params.sigma,
        grid_n=params.grid_n,
        photon_angles=triphoton_angles(params),
    )
