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
as :class:`~bellfield.dist.DistFn` values whose coefficients are graded for
the formal small parameters and floats for numeric ones) and
:func:`grid_backend` (the point masses widened into width-sigma kernels and
sampled on an angle grid).  The channels meet only through the shared
angle, so summing each channel's bits out on its own
(:func:`sum_out_channel`) is the variable elimination the graph admits.
The live assignments and their primitive products are derived once, at
import (:data:`CHANNEL_PLAN`); a call only values them on its backend.

Three evaluation routes are provided and cross-checked:

* exact: the graded split backend (``alpha`` and ``beta`` formal),
  eliminated per channel by :func:`sum_out_channel`; the channel
  sums are integrated against each other over the shared angle without
  forming their product (:func:`~bellfield.dist.dist_inner`), and limits
  are read off the graded coefficients;
* regularized: the same factorized sums on the float split backend,
  contracted in closed form by :func:`contract_channels` with no grid
  (handles the degenerate equal/orthogonal polarizer settings);
* brute-force oracle: numeric parameters, full 2^8 scenario enumeration on
  the grid backend with no graded algebra and no channel factorization.
  Each factor is evaluated once per assignment of the bits it reads; the
  scalar weights of all 2^8 scenarios are then one vector, the product of
  the factors' scalar tables indexed by every scenario's bits
  (:data:`SCENARIOS`, derived at import), and only the scenarios with a
  nonzero weight multiply their grid values out, one after another in one
  reused buffer, and integrate them, each distinct product once.  The grid
  must resolve the kernel (:func:`require_resolved`).

The triphoton graph contracts three channels of the float split backend
along the source's angle constraint, with the same :func:`contract_channels`;
the modified-polarizer model of :mod:`bellfield.quantum` contracts each arm's
pass and block splits through it too, as (detected, undetected).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .angles import PI, PolAngle
from .dist import (
    MAX_GRID,
    MAX_HARMONIC,
    MAX_SIGMA,
    MIN_GRID,
    DistFn,
    SigmaTooCoarse,
    contract,
    dist_inner,
    grid_points,
    wrapped_gaussian,
    _unchecked,
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

#: Fewest grid cells per kernel width, sigma / (pi / grid_n), on the oracle.
#: The trapezoid mass of the width-sigma/sqrt(2) product kernel misses one by
#: at most about 2 exp(-(sigma * grid_n)^2): 8e-13 at 1.7 cells, 1e-4 at one cell.
MIN_KERNEL_CELLS = 1.7


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


class UnexpectedLeadingOrder(ArithmeticError):
    """The exact sums do not lead with alpha^2 beta^3; the detector
    bookkeeping broke or the beta^3 coefficient cancelled numerically."""


@dataclass(frozen=True)
class Mrf3Params:
    """Polarizer settings plus the model's numeric knobs, checked on
    construction.

    ``alpha``, ``beta`` and ``sigma`` only matter to the numeric
    (regularized / oracle) routes, ``grid_n`` only to the oracle; the exact
    route treats the two small parameters as formal symbols.  A knob out of
    range raises :class:`ParameterError` naming it, whichever route will
    run; a finite ``sigma`` above pi/16 raises
    :class:`~bellfield.dist.SigmaTooCoarse`.  Whether the oracle's grid
    resolves the kernel is :func:`require_resolved`'s check.
    """

    theta_a: PolAngle
    theta_b: PolAngle
    alpha: float = 1e-2
    beta: float = 1e-3
    sigma: float = 1e-2
    grid_n: int = 8192

    def __post_init__(self):
        if not 0 < self.alpha <= MAX_ALPHA:
            raise ParameterError("alpha", f"must lie in (0, {MAX_ALPHA:g}], got {self.alpha}")
        if not 0 < self.beta <= MAX_BETA:
            raise ParameterError("beta", f"must lie in (0, {MAX_BETA:g}], got {self.beta}")
        if not 0 < self.sigma < math.inf:
            raise ParameterError("sigma", f"must be a positive finite number, got {self.sigma}")
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

#: The oracle's alternative exit rule: circular output without a crystal
#: photon, at weight beta.  It does not move the result at leading order.
EXIT_WITHOUT_CRYSTAL: Factor = (
    CHANNEL_FACTORS["exit"][0],
    {**CHANNEL_FACTORS["exit"][1], (0, 1, 0): ("beta",), (0, 0, 1): ("beta",)},
)


def split_backend(theta_p: PolAngle, alpha, beta) -> dict:
    """Primitives in closed form, for the exact route and for
    :func:`~bellfield.dist.contract`.

    The pass split is a point mass at the polarizer axis plus the tail
    beta cos^2(theta - theta_p) = beta/2 + (beta/2)(cos 2theta_p cos 2theta
    + sin 2theta_p sin 2theta), the block split a point mass at the
    orthogonal axis plus beta sin^2, the same tail with its harmonic negated.
    ``alpha`` and ``beta`` are the formal :data:`ALPHA` and :data:`BETA`
    (graded coefficients, the exact route) or numbers (float coefficients,
    the point masses widened by the contraction).
    """
    unit, zero = (GradedCoeff.one(), GradedCoeff.zero()) if isinstance(beta, GradedCoeff) else (1.0, 0.0)
    c = beta * (0.5 * math.cos(2 * theta_p.value))
    s = beta * (0.5 * math.sin(2 * theta_p.value))
    half = beta * 0.5
    higher = (zero,) * (MAX_HARMONIC - 1)
    # One nonzero atom each and full harmonic slots: nothing to merge or check.
    return {
        "pass": _unchecked(((theta_p, unit),), half, (c, *higher), (s, *higher)),
        "block": _unchecked(((theta_p.perpendicular(), unit),), half, (-c, *higher), (-s, *higher)),
        "alpha": alpha,
        "beta": beta,
    }


def grid_backend(theta: np.ndarray, theta_p: float, alpha: float, beta: float, sigma: float) -> dict:
    """Primitives sampled at the photon angles ``theta`` (any shape).

    The split's point masses widen into width-``sigma`` wrapped Gaussians;
    ``alpha`` and ``beta`` are numbers.  Both tails come from one cosine:
    with u = (beta/2) cos 2(theta - theta_p), beta cos^2 = beta/2 + u and
    beta sin^2 = beta/2 - u, each added in place onto its kernel.
    """
    half = 0.5 * beta
    u = np.subtract(theta, theta_p)
    u *= 2.0
    np.cos(u, out=u)
    u *= half
    passed = wrapped_gaussian(theta, theta_p, sigma)
    passed += half + u
    blocked = wrapped_gaussian(theta, theta_p + PI / 2, sigma)
    blocked += np.subtract(half, u, out=u)
    return {"pass": passed, "block": blocked, "alpha": alpha, "beta": beta}


def primitive_product(primitives: tuple, backend: Mapping):
    """A product of primitives valued on ``backend``, multiplied left to
    right; the empty product is one, and a single primitive is its own
    value, not a copy."""
    values = [backend.get(p, p) for p in primitives]
    return functools.reduce(operator.mul, values) if values else 1


def factor_tables(backend: Mapping, factors: Mapping[str, Factor] = CHANNEL_FACTORS) -> dict[str, Factor]:
    """Each factor's value for every assignment it lists, evaluated once."""
    return {
        name: (reads, {bits: primitive_product(prims, backend) for bits, prims in values.items()})
        for name, (reads, values) in factors.items()
    }


def _elimination_plan(factors: Mapping[str, Factor]) -> tuple[tuple[bool, tuple[tuple, ...]], ...]:
    """The channel assignments every factor lists, in lexicographic order:
    whether the counter fires in each, and the nonempty primitive products
    of its factors, in factor order."""
    plan = []
    for bits in itertools.product((0, 1), repeat=len(CHANNEL_BITS)):
        local = dict(zip(CHANNEL_BITS, bits))
        values = [table.get(tuple(local[r] for r in reads)) for reads, table in factors.values()]
        if all(v is not None for v in values):
            plan.append((bool(local["gamma_C"] or local["gamma_W"]), tuple(v for v in values if v)))
    return tuple(plan)


#: One channel's live assignments (three of the sixteen), derived once from
#: :data:`CHANNEL_FACTORS`.
CHANNEL_PLAN = _elimination_plan(CHANNEL_FACTORS)


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


def contract_channels(sums: Sequence[tuple[DistFn, DistFn]], sigma: float) -> tuple[float, float]:
    """Detected weight and partition of N channels fed by one source.

    ``sums`` holds each channel's (detected, undetected) sums on the float
    :func:`split_backend`, as functions of its own photon's angle; the
    source constrains the angles to sum to zero (mod pi).  The detected weight contracts the
    detected sums, the partition each channel's total, both in closed form
    by :func:`~bellfield.dist.contract`.  A Bell pair shares one angle: it is
    N = 2 with the second channel :meth:`~bellfield.dist.DistFn.reflected`.
    """
    num = contract([detected for detected, _ in sums], sigma)
    den = contract([detected + undetected for detected, undetected in sums], sigma)
    return num, den


# -- the exact graph ---------------------------------------------------------------


def channel_features(channel: str, theta_p: PolAngle) -> tuple[NodeFeature, ...]:
    """The channel's five factors as graph features, on the graded split backend."""
    features = []
    for name, (reads, values) in factor_tables(split_backend(theta_p, ALPHA, BETA)).items():
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


def coincidence_probability(params: Mrf3Params, mode: str = "exact") -> CoincidenceResult:
    """Probability of a double count, conditional on pair emission.

    Both modes multiply the two channels' summed weights and integrate over
    the shared angle: the numerator pairs the detected sums, the partition
    pairs each channel's total.  Exact mode does so on the split backend
    with formal small parameters and :func:`~bellfield.dist.dist_inner`
    (no product is formed), and takes their joint limit; it requires
    non-degenerate settings.  Regularized mode does so on the split backend
    with numeric parameters, in closed form with no grid (the right channel
    reflected, so the shared angle is a sum constraint), and handles the
    equal / orthogonal special cases.
    """
    if mode not in ("exact", "regularized"):
        raise ValueError(f"unknown mode: {mode!r}")
    alpha, beta = (ALPHA, BETA) if mode == "exact" else (params.alpha, params.beta)
    (pl, ml), (pr, mr) = (sum_out_channel(split_backend(params.setting(ch), alpha, beta)) for ch in CHANNELS)
    if mode == "exact":
        num = dist_inner(pl, pr)
        den = dist_inner(pl + ml, pr + mr)
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
    num, den = contract_channels(((pl, ml), (pr.reflected(), mr.reflected())), params.sigma)
    return CoincidenceResult(
        partition_ratio(num, den),
        GradedCoeff.constant(num),
        GradedCoeff.constant(den),
        "regularized",
    )


# -- brute-force oracle --------------------------------------------------------------


def partition_ratio(num: float, den: float) -> float:
    """A grid route's detected weight over its partition, once the partition
    is checked to be nonzero and finite."""
    if den == 0.0:
        raise ZeroDivisionError("partition vanished")
    if not math.isfinite(den):
        raise OverflowError("partition is not finite; a kernel this narrow overflows float64 at its peak")
    return num / den


#: Position of each channel bit in a scenario's bit tuple, channel by channel.
SCENARIO_SLOTS = {var(ch, g): k for k, (ch, g) in enumerate(itertools.product(CHANNELS, CHANNEL_BITS))}

#: Every scenario's bits, one row each, the first slot most significant, so
#: the rows run in lexicographic order.
SCENARIOS = (np.arange(1 << len(SCENARIO_SLOTS))[:, None] >> np.arange(len(SCENARIO_SLOTS) - 1, -1, -1)) & 1

#: The scenarios the numerator counts: every channel's counter fires.
COINCIDENT = np.all(
    [
        SCENARIOS[:, SCENARIO_SLOTS[var(ch, "gamma_C")]] | SCENARIOS[:, SCENARIO_SLOTS[var(ch, "gamma_W")]]
        for ch in CHANNELS
    ],
    axis=0,
)


def brute_force_oracle(params: Mrf3Params, exit_beta_without_crystal: bool = False) -> CoincidenceResult:
    """Fully independent numeric evaluation of the coincidence probability.

    Enumerates all 2^8 binary scenarios, multiplies each one's relative
    probability out over the angle grid, and integrates it by the trapezoid
    rule.  No graded algebra, no channel factorization -- this is the
    cross-check the other routes are measured against.

    Each factor's value table comes from the grid backend, evaluated once
    per assignment of the bits the factor reads, so the grid kernels are
    sampled four times per call.  The scalar weights of all 2^8 scenarios
    are one float vector: each factor's scalars form a dense table over the
    bits it reads (an array value counts one there, an unlisted assignment
    zero), indexed by every scenario's bits (:data:`SCENARIOS`) and
    multiplied in feature order, the products a scenario-by-scenario walk
    takes.  Only the scenarios with a nonzero weight, in lexicographic
    order, then multiply that weight by their array values over the grid,
    in one reused buffer and in feature order (the bits of
    ``weight * A_1 * A_2 * ...``), and add its integral to the sums.
    Scenarios that share a product -- the same weight and the same array
    objects, as the four detected x detected ones share pass_L * pass_R --
    form and integrate it once, for the first of them, and the later ones
    add that integral in their own turn, so the sums take the same bits.
    ``exit_beta_without_crystal`` swaps in :data:`EXIT_WITHOUT_CRYSTAL`; it
    exists to demonstrate numerically that the variant does not move the
    result at leading order.
    """
    require_resolved(params.sigma, params.grid_n)
    grid = grid_points(params.grid_n)
    factors = dict(CHANNEL_FACTORS)
    if exit_beta_without_crystal:
        factors["exit"] = EXIT_WITHOUT_CRYSTAL
    tables = [
        (tuple(SCENARIO_SLOTS[var(ch, r)] for r in reads), table)
        for ch in CHANNELS
        for reads, table in factor_tables(
            grid_backend(grid, params.setting(ch).value, params.alpha, params.beta, params.sigma),
            factors,
        ).values()
    ]

    # Each factor's scalar weight, dense over the bits it reads: an array value
    # weighs one here (it joins the scenario's product below), an unlisted
    # assignment zero.  Multiplied in feature order, as scenario by scenario.
    # Only the factors with an array value are looked up again per scenario.
    weights = np.ones(len(SCENARIOS))
    array_tables = []
    for positions, table in tables:
        dense = np.zeros((2,) * len(positions))
        for key, val in table.items():
            dense[key] = 1.0 if isinstance(val, np.ndarray) else val
        weights *= dense[tuple(SCENARIOS[:, k] for k in positions)]
        if any(isinstance(val, np.ndarray) for val in table.values()):
            array_tables.append((positions, table))

    num = 0.0
    den = 0.0
    cell = PI / params.grid_n
    product = np.empty_like(grid)
    integrals: dict[tuple, float] = {}
    for s in np.flatnonzero(weights):
        bits = SCENARIOS[s].tolist()
        values = (table[tuple(bits[k] for k in positions)] for positions, table in array_tables)
        arrays = [val for val in values if isinstance(val, np.ndarray)]
        key = (float(weights[s]), *map(id, arrays))
        weight = integrals.get(key)
        if weight is None:
            first, *rest = arrays
            np.multiply(first, weights[s], out=product)
            for val in rest:
                product *= val
            weight = integrals[key] = float(product.sum()) * cell
        den += weight
        if COINCIDENT[s]:
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
    alpha: float
    beta: float
    sigma: float
    # No route reads it; only bench/tracer.py::_cells_measure does, until
    # that per-layer metric is dropped.
    grid_n: int

    def triple_coincidence(self) -> float:
        """Probability that all three counters fire, given the emission."""
        sums = [sum_out_channel(split_backend(s, self.alpha, self.beta)) for s in self.settings]
        return partition_ratio(*contract_channels(sums, self.sigma))


def build_triphoton_graph(settings: tuple[PolAngle, PolAngle, PolAngle], params: Mrf3Params) -> TriphotonGraph:
    """Assemble the three-channel graph; numeric evaluation only.

    ``params`` supplies the numeric knobs (its two polarizer fields are
    unused here).
    """
    if len(settings) != 3:
        raise ValueError("exactly three polarizer settings required")
    return TriphotonGraph(
        settings=tuple(settings),
        alpha=params.alpha,
        beta=params.beta,
        sigma=params.sigma,
        grid_n=params.grid_n,
    )
