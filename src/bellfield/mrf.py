"""Scenario-graph reference: enumeration tally and forward fold.

A graph declares binary variables, node feature functions, and named event
predicates.  A scenario assigns every binary variable; the shared angle
stays symbolic as the argument of the :class:`~bellfield.dist.DistFn`
values the features return.  :func:`tally_events` sums every scenario's
integrated feature product once, per predicate and in total;
:func:`forward_fold` gets the same sums by eliminating variables as they
die.  Event probabilities are their ratios in the small-parameter limit.

Enumeration is exhaustive -- the graphs of interest have at most ten binary
variables, and exactness at that scale beats clever inference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .dist import DistFn, dist_integrate, dist_mul
from .graded import GradedCoeff, coeff_ratio_limit

Assignment = Mapping[str, int]


class ZeroPartition(ArithmeticError):
    """Every scenario has zero relative probability; nothing to normalize."""


@dataclass(frozen=True)
class Scenario:
    """A complete assignment of the graph's binary variables."""

    assignment: Mapping[str, int]

    def __getitem__(self, name: str) -> int:
        return self.assignment[name]


@dataclass(frozen=True)
class NodeFeature:
    """A node's relative-probability factor.

    ``fn`` maps a (partial) assignment covering ``depends_on`` to a DistFn
    over the shared angle; angle-independent features return constant
    DistFns.
    """

    name: str
    depends_on: tuple[str, ...]
    fn: Callable[[Assignment], DistFn]

    def eval(self, assignment: Assignment) -> DistFn:
        return self.fn(assignment)


@dataclass(frozen=True)
class EventPredicate:
    """A deterministic truth function over scenarios.

    ``depends_on`` declares which variables the function reads; it is what
    lets the forward fold keep those variables alive until the end.
    """

    name: str
    depends_on: tuple[str, ...]
    fn: Callable[[Assignment], bool]

    def holds(self, assignment: Assignment) -> bool:
        return bool(self.fn(assignment))


@dataclass(frozen=True)
class ScenarioGraph:
    binary_names: tuple[str, ...]
    features: tuple[NodeFeature, ...]
    predicates: tuple[EventPredicate, ...] = ()

    def __post_init__(self):
        if len(set(self.binary_names)) != len(self.binary_names):
            raise ValueError("duplicate variable names")
        fnames = [f.name for f in self.features]
        if len(set(fnames)) != len(fnames):
            raise ValueError("duplicate feature names")
        declared = set(self.binary_names)
        for f in self.features:
            missing = set(f.depends_on) - declared
            if missing:
                raise ValueError(f"feature {f.name!r} depends on undeclared {sorted(missing)}")
        for p in self.predicates:
            missing = set(p.depends_on) - declared
            if missing:
                raise ValueError(f"predicate {p.name!r} depends on undeclared {sorted(missing)}")

    def predicate(self, name: str) -> EventPredicate:
        for p in self.predicates:
            if p.name == name:
                return p
        raise KeyError(name)

    def scenarios(self) -> Iterator[Scenario]:
        names = self.binary_names
        for bits in itertools.product((0, 1), repeat=len(names)):
            yield Scenario(dict(zip(names, bits)))


def relative_probability(graph: ScenarioGraph, scenario: Scenario) -> DistFn:
    """Product of all node features under the scenario's assignment."""
    out = DistFn.one()
    for feat in graph.features:
        out = dist_mul(out, feat.eval(scenario.assignment))
        if out.is_zero:
            break  # annihilated; remaining factors cannot revive it
    return out


def tally_events(
    graph: ScenarioGraph, preds: Sequence[EventPredicate]
) -> tuple[dict[str, GradedCoeff], GradedCoeff]:
    """One enumeration pass: per-predicate unnormalized sums plus the partition."""
    totals = {p.name: GradedCoeff.zero() for p in preds}
    partition = GradedCoeff.zero()
    for scenario in graph.scenarios():
        weight = dist_integrate(relative_probability(graph, scenario))
        if weight.is_zero:
            continue
        partition = partition + weight
        for p in preds:
            if p.holds(scenario.assignment):
                totals[p.name] = totals[p.name] + weight
    return totals, partition


# -- forward fold ---------------------------------------------------------------


@dataclass(frozen=True)
class FoldResult:
    partition: GradedCoeff
    unnormalized: dict[str, GradedCoeff]
    probabilities: dict[str, float]


def forward_fold(
    graph: ScenarioGraph,
    node_order: Sequence[NodeFeature],
    predicates: Sequence[EventPredicate] | None = None,
) -> FoldResult:
    """Fold features in the given order, marginalizing variables as they die.

    Equivalent to processing the experiment's events forward in time: a
    running table over the live variables holds the accumulated product (a
    DistFn in the shared angle), new variables branch the table, and
    variables no remaining feature or predicate reads are summed out.  The
    final per-predicate probabilities equal the global-product answer for
    every ordering, because the factor product reassociates freely.
    """
    order = list(node_order)
    if sorted(f.name for f in order) != sorted(f.name for f in graph.features):
        raise ValueError("node_order must be a permutation of the graph's features")

    preds = tuple(predicates) if predicates is not None else graph.predicates
    pred_support: set[str] = set()
    for p in preds:
        pred_support |= set(p.depends_on)

    live: tuple[str, ...] = ()
    table: dict[tuple[int, ...], DistFn] = {(): DistFn.one()}
    introduced: set[str] = set()

    def extend(new_vars: Sequence[str]):
        nonlocal live, table
        for var in new_vars:
            table = {
                key + (bit,): fn
                for key, fn in table.items()
                for bit in (0, 1)
            }
            live = live + (var,)
            introduced.add(var)

    def marginalize(keep: set[str]):
        nonlocal live, table
        kept_idx = [i for i, v in enumerate(live) if v in keep]
        if len(kept_idx) == len(live):
            return
        new_table: dict[tuple[int, ...], DistFn] = {}
        for key, fn in table.items():
            nk = tuple(key[i] for i in kept_idx)
            new_table[nk] = new_table[nk] + fn if nk in new_table else fn
        live = tuple(live[i] for i in kept_idx)
        table = new_table

    for i, feat in enumerate(order):
        extend([v for v in feat.depends_on if v not in live])
        table = {
            key: dist_mul(fn, feat.eval(dict(zip(live, key))))
            for key, fn in table.items()
        }
        # An empty table is fine: the partition check below reports it.
        table = {k: fn for k, fn in table.items() if not fn.is_zero}
        needed = set(pred_support)
        for later in order[i + 1 :]:
            needed |= set(later.depends_on)
        marginalize(needed)

    # Predicate-support variables no feature ever read still branch the table.
    extend([v for v in graph.binary_names if v in pred_support and v not in introduced])

    # Binary variables never touched by features or predicates each double Z.
    untouched = len([v for v in graph.binary_names if v not in introduced])
    factor = GradedCoeff.constant(2**untouched)

    integrated = {key: dist_integrate(fn) * factor for key, fn in table.items()}
    partition = GradedCoeff.zero()
    for val in integrated.values():
        partition = partition + val
    if partition.is_zero:
        raise ZeroPartition("all scenarios have zero relative probability")

    unnormalized: dict[str, GradedCoeff] = {}
    for p in preds:
        total = GradedCoeff.zero()
        for key, val in integrated.items():
            if p.holds(dict(zip(live, key))):
                total = total + val
        unnormalized[p.name] = total
    probabilities = {
        name: coeff_ratio_limit(val, partition) for name, val in unnormalized.items()
    }
    return FoldResult(partition=partition, unnormalized=unnormalized, probabilities=probabilities)
