"""Crystal-polarizer scenario model of the two-photon coincidence experiment.

Each channel of the experiment is modeled by five objects: the crystal
entry surface (which splits an incoming linear photon between the pass
polarization and the blocked, internally-reflected one), the exit surface
(which converts a passing photon into one of two circular modes at cost
``beta`` each), the external counter (which absorbs a circular photon at
cost ``alpha``), and two internal absorbers for the reflected light (the
one on the blocked path absorbs at cost ``2*alpha*beta``; the one on the
pass path is never occupied here).

Three evaluation routes are provided and cross-checked:

* exact: formal small parameters, point-mass-plus-smooth distributions,
  summed by the forward fold (variable elimination over the feature
  order), limits read off the graded coefficients;
* regularized: numeric parameters, factorized per-channel sums sampled on a
  grid (handles the degenerate equal/orthogonal polarizer settings);
* brute-force oracle: numeric parameters, full 2^8 scenario enumeration on
  the grid with no graded algebra and no channel factorization.  Each
  factor is evaluated once per assignment of the bits it reads, and every
  scenario's product is then assembled from those values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .angles import PI, PolAngle
from .dist import (
    MIN_GRID,
    DistFn,
    RegularizedDistFn,
    SigmaTooCoarse,
    grid_points,
    regularize,
    wrapped_gaussian,
)
from .graded import GradedCoeff
from .mrf import (
    BINARY,
    SHARED_ANGLE,
    EventPredicate,
    NodeFeature,
    ScenarioGraph,
    VariableDecl,
    forward_fold,
    # Unused here, but bench/tests checks that tracing rebinds it in this module.
    tally_events,  # noqa: F401
)

CHANNELS = ("L", "R")

ALPHA = GradedCoeff.alpha()
BETA = GradedCoeff.beta()

#: Upper bound on 2-D grid cells for triphoton evaluation.
DEFAULT_CELL_BUDGET = 1 << 22


class GridTooCoarse(ValueError):
    """The requested 2-D grid exceeds the evaluation budget; the grid for
    multi-angle runs must stay far coarser than the 1-D oracle's."""


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
        if not (0 < self.alpha):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (0 < self.beta <= 0.1):
            raise ValueError(f"beta must lie in (0, 0.1], got {self.beta}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.sigma > PI / 16:
            raise SigmaTooCoarse(f"sigma={self.sigma:g} exceeds pi/16")

    @property
    def degenerate(self) -> bool:
        """Equal or orthogonal settings (exact mode cannot separate atoms)."""
        return self.theta_a == self.theta_b or self.theta_a == self.theta_b.perpendicular()

    def setting(self, channel: str) -> PolAngle:
        return self.theta_a if channel == "L" else self.theta_b


def var(channel: str, name: str) -> str:
    return f"{channel}_{name}"


# -- node features (exact, graded) ---------------------------------------------


def feature_source() -> NodeFeature:
    """The entangled-pair source, conditioned on both photons existing.

    Both emitted photons share one polarization angle; the graph carries
    that angle as its single shared variable, so under the conditioning the
    source contributes a constant factor of one.  If a caller supplies
    explicit emission bits and either is zero, the scenario is excluded.
    """

    def fn(a: Mapping[str, int]) -> DistFn:
        if a.get("gamma_minus_L", 1) == 1 and a.get("gamma_minus_R", 1) == 1:
            return DistFn.one()
        return DistFn.zero()

    return NodeFeature("source", (), fn)


def feature_external_detector(channel: str) -> NodeFeature:
    """Counter that absorbs a circular photon at thermodynamic cost alpha."""
    c, w = var(channel, "gamma_C"), var(channel, "gamma_W")

    def fn(a: Mapping[str, int]) -> DistFn:
        if a[c] == 0 and a[w] == 0:
            return DistFn.one()
        return DistFn.constant(ALPHA)

    return NodeFeature(f"{channel}.detector", (c, w), fn)


def feature_hidden_detector(channel: str) -> NodeFeature:
    """Internal absorber for the blocked polarization.

    Absorbing costs the conversion-to-circular factor beta times alpha,
    doubled for the two circular options.  The angle measure is carried by
    the graph's single shared-angle integral.
    """
    bm = var(channel, "gamma_b_minus")

    def fn(a: Mapping[str, int]) -> DistFn:
        if a[bm] == 0:
            return DistFn.one()
        return DistFn.constant(GradedCoeff.constant(2) * ALPHA * BETA)

    return NodeFeature(f"{channel}.hidden_minus", (bm,), fn)


def feature_hidden_pass_absorber(channel: str) -> NodeFeature:
    """Internal absorber on the pass path; never occupied in these runs."""

    def fn(a: Mapping[str, int]) -> DistFn:
        return DistFn.one()

    return NodeFeature(f"{channel}.hidden_plus", (), fn)


def feature_entry_surface(channel: str, theta_p: PolAngle) -> NodeFeature:
    """Crystal surface facing the source.

    An incoming linear photon at the shared angle either continues in the
    pass polarization (point mass at the polarizer axis, plus a
    beta-suppressed cos^2 tail) or in the blocked one (point mass at the
    orthogonal axis, sin^2 tail).  Taking neither or both paths is
    impossible.
    """
    b, bm = var(channel, "gamma_b"), var(channel, "gamma_b_minus")
    pass_fn = DistFn.atom(theta_p) + DistFn.cos_squared(theta_p, BETA)
    block_fn = DistFn.atom(theta_p.perpendicular()) + DistFn.sin_squared(theta_p, BETA)

    def fn(a: Mapping[str, int]) -> DistFn:
        if a[b] == 1 and a[bm] == 0:
            return pass_fn
        if a[b] == 0 and a[bm] == 1:
            return block_fn
        return DistFn.zero()

    return NodeFeature(f"{channel}.entry", (b, bm), fn)


def feature_exit_surface(channel: str) -> NodeFeature:
    """Crystal surface facing the counter.

    A photon leaving through the crystal converts to exactly one circular
    mode at cost beta.  Circular output without a crystal photon, a photon
    that never exits, and double occupation of the circular modes all carry
    zero weight.
    """
    b, c, w = var(channel, "gamma_b"), var(channel, "gamma_C"), var(channel, "gamma_W")

    def fn(a: Mapping[str, int]) -> DistFn:
        out = a[c] + a[w]
        if out == 2:
            return DistFn.zero()
        if a[b] == 1:
            return DistFn.constant(BETA) if out == 1 else DistFn.zero()
        return DistFn.one() if out == 0 else DistFn.zero()

    return NodeFeature(f"{channel}.exit", (b, c, w), fn)


def channel_features(channel: str, theta_p: PolAngle) -> tuple[NodeFeature, ...]:
    return (
        feature_entry_surface(channel, theta_p),
        feature_exit_surface(channel),
        feature_external_detector(channel),
        feature_hidden_detector(channel),
        feature_hidden_pass_absorber(channel),
    )


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
        for g in ("gamma_b", "gamma_b_minus", "gamma_C", "gamma_W"):
            variables.append(VariableDecl(var(ch, g), BINARY))
        features.extend(channel_features(ch, params.setting(ch)))
    predicates = (coincidence_predicate(), detection_predicate("L"), detection_predicate("R"))
    return ScenarioGraph(tuple(variables), tuple(features), predicates)


# -- closed-form channel sums -----------------------------------------------------


def channel_sums(params: Mrf3Params, channel: str) -> tuple[DistFn, DistFn]:
    """Summed relative probability of the channel's detection / no-detection
    scenarios, as functions of the shared angle.

    Detection happens two ways (one per circular mode), each weighing
    ``(pass split) * beta * alpha``; the single no-detection scenario weighs
    ``(blocked split) * 2 * alpha * beta``.  Their sum collapses to
    ``2*alpha*beta * (point masses at both axes + beta)``.
    """
    theta_p = params.setting(channel)
    two_ab = GradedCoeff.constant(2) * ALPHA * BETA
    plus = (DistFn.atom(theta_p) + DistFn.cos_squared(theta_p, BETA)).scale(two_ab)
    minus = (DistFn.atom(theta_p.perpendicular()) + DistFn.sin_squared(theta_p, BETA)).scale(two_ab)
    return plus, minus


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

    Exact mode sums the full graph by forward fold with formal small
    parameters and takes their joint limit; it requires non-degenerate
    settings.
    Regularized mode evaluates the factorized channel sums numerically on a
    grid and handles the equal / orthogonal special cases.
    """
    if mode == "exact":
        graph = build_bell_graph(params)
        fold = forward_fold(graph, graph.features, (graph.predicate("D"),))
        num, den = fold.unnormalized["D"], fold.partition
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
        return CoincidenceResult(fold.probabilities["D"], num, den, "exact")
    if mode == "regularized":
        params.require_numeric()
        sums = {}
        for ch in CHANNELS:
            plus, minus = channel_sums(params, ch)
            sums[ch] = tuple(
                regularize(d.substitute(params.alpha, params.beta), params.sigma, params.grid_n)
                for d in (plus, minus)
            )
        (pl, ml), (pr, mr) = sums["L"], sums["R"]
        num = (pl * pr).integral()
        den = ((pl + ml) * (pr + mr)).integral()
        return CoincidenceResult(
            num / den,
            GradedCoeff.constant(num),
            GradedCoeff.constant(den),
            "regularized",
        )
    raise ValueError(f"unknown mode: {mode!r}")


# -- brute-force oracle --------------------------------------------------------------


_CHANNEL_BITS = ("gamma_b", "gamma_b_minus", "gamma_C", "gamma_W")

#: The channel bits each of the five numeric factors reads, in the order
#: :func:`_numeric_channel_features` returns them.
FACTOR_DEPS: dict[str, tuple[str, ...]] = {
    "entry": ("gamma_b", "gamma_b_minus"),
    "exit": ("gamma_b", "gamma_C", "gamma_W"),
    "detector": ("gamma_C", "gamma_W"),
    "hidden_minus": ("gamma_b_minus",),
    "hidden_plus": (),
}


def _numeric_channel_features(
    theta_p: float,
    alpha: float,
    beta: float,
    sigma: float,
    exit_beta_without_crystal: bool = False,
) -> list[Callable[[Mapping[str, int], np.ndarray], "np.ndarray | float"]]:
    """Numeric evaluators for one channel's five factors.

    ``theta`` is the photon-angle sample array (any shape).  Scalar-valued
    factors return plain floats.  ``exit_beta_without_crystal`` toggles an
    alternative exit rule (circular output without a crystal photon at
    weight beta); it exists to demonstrate numerically that the variant
    does not move the result at leading order.
    """

    def entry(a, theta):
        gb, gbm = a["gamma_b"], a["gamma_b_minus"]
        if gb == gbm:
            return 0.0
        if gb == 1:
            return wrapped_gaussian(theta, theta_p, sigma) + beta * np.cos(theta - theta_p) ** 2
        return (
            wrapped_gaussian(theta, theta_p + PI / 2, sigma)
            + beta * np.sin(theta - theta_p) ** 2
        )

    def exit_surface(a, theta):
        out = a["gamma_C"] + a["gamma_W"]
        if out == 2:
            return 0.0
        if a["gamma_b"] == 1:
            return beta if out == 1 else 0.0
        if out == 1:
            return beta if exit_beta_without_crystal else 0.0
        return 1.0

    def detector(a, theta):
        return 1.0 if (a["gamma_C"] == 0 and a["gamma_W"] == 0) else alpha

    def hidden_minus(a, theta):
        return 1.0 if a["gamma_b_minus"] == 0 else 2.0 * alpha * beta

    def hidden_plus(a, theta):
        return 1.0

    return [entry, exit_surface, detector, hidden_minus, hidden_plus]


def brute_force_oracle(params: Mrf3Params, exit_beta_without_crystal: bool = False) -> CoincidenceResult:
    """Fully independent numeric evaluation of the coincidence probability.

    Enumerates all 2^8 binary scenarios, builds each one's relative
    probability as a :class:`RegularizedDistFn` product over the angle
    grid, and integrates.  No graded algebra, no channel factorization --
    this is the cross-check the other routes are measured against.

    Each factor is evaluated once per assignment of the bits it reads
    (:data:`FACTOR_DEPS`), so the grid kernels are sampled four times per
    call; every scenario then looks its factor values up and multiplies
    them in feature order.
    """
    params.require_numeric()
    if params.grid_n < MIN_GRID:
        raise ValueError(f"grid_n={params.grid_n} below minimum {MIN_GRID}")
    grid = grid_points(params.grid_n)
    # tables[ch] holds one {bits read: value} table per factor, in feature order.
    tables = {}
    for ch in CHANNELS:
        fns = _numeric_channel_features(
            params.setting(ch).value, params.alpha, params.beta, params.sigma, exit_beta_without_crystal
        )
        tables[ch] = [
            (deps, {
                bits: fn(dict(zip(deps, bits)), grid)
                for bits in itertools.product((0, 1), repeat=len(deps))
            })
            for deps, fn in zip(FACTOR_DEPS.values(), fns)
        ]

    num = 0.0
    den = 0.0
    for bits in itertools.product((0, 1), repeat=8):
        assign = {
            var(ch, g): bits[4 * i + j]
            for i, ch in enumerate(CHANNELS)
            for j, g in enumerate(_CHANNEL_BITS)
        }
        scalar = 1.0
        arrays: list[np.ndarray] = []
        for ch in CHANNELS:
            local = {g: assign[var(ch, g)] for g in _CHANNEL_BITS}
            for deps, table in tables[ch]:
                val = table[tuple(local[d] for d in deps)]
                if isinstance(val, np.ndarray):
                    arrays.append(val)
                else:
                    scalar *= val
                    if scalar == 0.0:
                        break
            if scalar == 0.0:
                break
        if scalar == 0.0:
            continue
        product = RegularizedDistFn(np.full_like(grid, scalar), params.sigma)
        for arr in arrays:
            product = product * RegularizedDistFn(arr, params.sigma)
        weight = product.integral()
        den += weight
        detected = all(
            assign[var(ch, "gamma_C")] or assign[var(ch, "gamma_W")] for ch in CHANNELS
        )
        if detected:
            num += weight
    if den == 0.0:
        raise ZeroDivisionError("oracle partition vanished")
    return CoincidenceResult(
        num / den, GradedCoeff.constant(num), GradedCoeff.constant(den), "regularized"
    )


# -- triphoton extension -----------------------------------------------------------


@dataclass(frozen=True)
class GridFeature:
    """A per-channel factor evaluated numerically on an angle-sample array."""

    name: str
    depends_on: tuple[str, ...]
    fn: Callable[[Mapping[str, int], np.ndarray], "np.ndarray | float"]


@dataclass(frozen=True)
class TriphotonGraph:
    """Three crystal-polarizer channels fed by an angle-constrained source.

    The source emits three photons whose polarization angles sum to zero
    (mod pi), leaving two free angles; evaluation integrates over a 2-D
    grid in those.  There is no arrival-order anywhere in the structure:
    the prediction can only depend on the settings.
    """

    settings: tuple[PolAngle, PolAngle, PolAngle]
    alpha: float
    beta: float
    sigma: float
    grid_n: int
    variables: tuple[str, ...]
    features: tuple[GridFeature, ...]

    FREE_ANGLES = 2

    def _photon_angles(self) -> list[np.ndarray]:
        axis = grid_points(self.grid_n)
        u = axis[:, None]
        v = axis[None, :]
        return [np.broadcast_to(u, (self.grid_n, self.grid_n)),
                np.broadcast_to(v, (self.grid_n, self.grid_n)),
                (-u - v) % PI]

    def _channel_sums(self, idx: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        feats = [f for f in self.features if f.name.startswith(f"c{idx}.")]
        plus = np.zeros_like(theta)
        minus = np.zeros_like(theta)
        for bits in itertools.product((0, 1), repeat=4):
            local = dict(zip(_CHANNEL_BITS, bits))
            value: np.ndarray | float = 1.0
            for f in feats:
                factor = f.fn(local, theta)
                if isinstance(factor, float) and factor == 0.0:
                    value = 0.0
                    break
                value = value * factor
            if isinstance(value, float) and value == 0.0:
                continue
            if local["gamma_C"] or local["gamma_W"]:
                plus = plus + value
            else:
                minus = minus + value
        return plus, minus

    def triple_coincidence(self) -> float:
        """Probability that all three counters fire, given the emission."""
        thetas = self._photon_angles()
        sums = [self._channel_sums(i, thetas[i]) for i in range(3)]
        num = sums[0][0] * sums[1][0] * sums[2][0]
        den_arr = np.ones_like(num)
        for plus, minus in sums:
            den_arr = den_arr * (plus + minus)
        cell = (PI / self.grid_n) ** 2
        num_val = float(num.sum()) * cell
        den_val = float(den_arr.sum()) * cell
        if den_val == 0.0:
            raise ZeroDivisionError("triphoton partition vanished")
        return num_val / den_val


def build_triphoton_graph(
    settings: tuple[PolAngle, PolAngle, PolAngle],
    params: Mrf3Params,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> TriphotonGraph:
    """Assemble the three-channel graph; numeric-grid evaluation only.

    ``params`` supplies the numeric knobs (its two polarizer fields are
    unused here).  The 2-D grid must fit the cell budget.
    """
    if len(settings) != 3:
        raise ValueError("exactly three polarizer settings required")
    params.require_numeric()
    if params.grid_n**2 > cell_budget:
        raise GridTooCoarse(
            f"grid_n={params.grid_n} means {params.grid_n**2} cells, over budget {cell_budget}"
        )
    variables = tuple(f"c{i}_{g}" for i in range(3) for g in _CHANNEL_BITS)
    features = []
    for i in range(3):
        fns = _numeric_channel_features(
            settings[i].value, params.alpha, params.beta, params.sigma
        )
        for (name, deps), fn in zip(FACTOR_DEPS.items(), fns):
            features.append(GridFeature(f"c{i}.{name}", tuple(f"c{i}_{d}" for d in deps), fn))
    return TriphotonGraph(
        settings=tuple(settings),
        alpha=params.alpha,
        beta=params.beta,
        sigma=params.sigma,
        grid_n=params.grid_n,
        variables=variables,
        features=tuple(features),
    )
