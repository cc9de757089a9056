import math
import random
from fractions import Fraction

import pytest

from bellfield.angles import PolAngle
from bellfield.dist import MAX_HARMONIC, DistFn, dist_integrate
from bellfield.graded import GradedCoeff, coeff_ratio_limit
from bellfield.mrf import (
    EventPredicate,
    NodeFeature,
    Scenario,
    ScenarioGraph,
    ZeroPartition,
    forward_fold,
    relative_probability,
    tally_events,
)

PI_FRAC = Fraction(math.pi)

ALWAYS = EventPredicate("always", (), lambda a: True)
NEVER = EventPredicate("never", (), lambda a: False)


def cos_squared(center: PolAngle, scale: Fraction) -> DistFn:
    """``scale * cos^2(theta - center)``, that is scale/2 + (scale/2) cos 2(theta - center)."""
    tail = [GradedCoeff.constant(scale / 2 * Fraction(f(2 * center.value))) for f in (math.cos, math.sin)]
    rest = [GradedCoeff.zero()] * (MAX_HARMONIC - 1)
    return DistFn(c0=GradedCoeff.constant(scale / 2), cos_coeffs=tail[:1] + rest, sin_coeffs=tail[1:] + rest)


def constant_feature(name, value, depends=()):
    return NodeFeature(name, tuple(depends), lambda a, v=value: DistFn.constant(v))


def single_var_graph(feature_value=1):
    return ScenarioGraph(("x",), (constant_feature("f", feature_value),))


def probability(graph, pred) -> float:
    """The predicate's probability from one enumeration pass."""
    totals, partition = tally_events(graph, (pred,))
    return coeff_ratio_limit(totals[pred.name], partition)


class TestEnumeration:
    def test_single_constant_feature_relative_probability(self):
        g = single_var_graph()
        out = relative_probability(g, Scenario({"x": 0}))
        assert out == DistFn.one()

    def test_zero_feature_annihilates(self):
        g = ScenarioGraph(("x",), (constant_feature("f", 1), constant_feature("g", 0)))
        assert relative_probability(g, Scenario({"x": 1})).is_zero

    def test_false_predicate_sums_to_zero(self):
        totals, _ = tally_events(single_var_graph(), (NEVER,))
        assert totals["never"].is_zero

    def test_constant_graph_partition(self):
        # two scenarios, each integrating c over the half-turn domain
        c = 3
        _, z = tally_events(single_var_graph(c), ())
        assert z == GradedCoeff.constant(2 * c) * PI_FRAC

    def test_always_one_feature_partition(self):
        g = single_var_graph()
        assert forward_fold(g, g.features, ()).partition == GradedCoeff.constant(2) * PI_FRAC

    def test_zero_partition_raises(self):
        g = single_var_graph(0)
        assert tally_events(g, ())[1].is_zero
        with pytest.raises(ZeroPartition):
            forward_fold(g, g.features, ())

    def test_probability_normalization(self):
        g = single_var_graph(5)
        assert probability(g, ALWAYS) == 1.0
        assert probability(g, NEVER) == 0.0

    def test_predicate_splits_partition(self):
        g = ScenarioGraph(("x",), (NodeFeature("f", ("x",), lambda a: DistFn.constant(3 if a["x"] else 1)),))
        picks_one = EventPredicate("x1", ("x",), lambda a: a["x"] == 1)
        assert probability(g, picks_one) == pytest.approx(0.75)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGraph(("x", "x"), ())

    def test_undeclared_dependency_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGraph(("x",), (constant_feature("f", 1, depends=("y",)),))


# -- random graphs ------------------------------------------------------------

_ATOM_SLOTS = [0.2, 0.7, 1.2, 1.9, 2.6]


def make_random_graph(rng: random.Random):
    n_vars = rng.randint(1, 3)
    names = [f"v{i}" for i in range(n_vars)]
    features = []
    n_feats = rng.randint(1, 4)
    slots = list(_ATOM_SLOTS)
    rng.shuffle(slots)
    for i in range(n_feats):
        deps = tuple(n for n in names if rng.random() < 0.6)
        kind = rng.random()
        if kind < 0.6:
            table = {
                bits: GradedCoeff.constant(Fraction(rng.randint(0, 4)))
                for bits in _all_bits(len(deps))
            }

            def fn(a, deps=deps, table=table):
                return DistFn.constant(table[tuple(a[d] for d in deps)])

        elif kind < 0.8:
            loc = PolAngle(slots.pop())
            w = Fraction(rng.randint(1, 3))

            def fn(a, deps=deps, loc=loc, w=w):
                on = all(a[d] for d in deps) if deps else True
                return DistFn.atom(loc, GradedCoeff.constant(w)) if on else DistFn.one()

        else:
            center = PolAngle(rng.uniform(0, 3))
            scale = Fraction(rng.randint(1, 2))

            def fn(a, deps=deps, center=center, scale=scale):
                on = all(a[d] for d in deps) if deps else True
                return cos_squared(center, scale) if on else DistFn.one()

        features.append(NodeFeature(f"f{i}", deps, fn))
    pred_var = rng.choice(names)
    pred = EventPredicate("P", (pred_var,), lambda a, v=pred_var: a[v] == 1)
    return ScenarioGraph(tuple(names), tuple(features), (pred,))


def _all_bits(n):
    out = [()]
    for _ in range(n):
        out = [b + (x,) for b in out for x in (0, 1)]
    return out


@pytest.mark.parametrize("seed", range(12))
def test_complement_identity_exact(seed):
    g = make_random_graph(random.Random(seed))
    p = g.predicates[0]
    not_p = EventPredicate("notP", p.depends_on, lambda a: not p.fn(a))
    totals, partition = tally_events(g, (p, not_p))
    assert totals["P"] + totals["notP"] == partition  # exact term-by-term


@pytest.mark.parametrize("seed", range(12))
def test_probability_in_unit_interval(seed):
    g = make_random_graph(random.Random(seed + 100))
    totals, partition = tally_events(g, g.predicates)
    if partition.is_zero:
        return
    assert 0.0 <= coeff_ratio_limit(totals["P"], partition) <= 1.0


@pytest.mark.parametrize("seed", range(12))
def test_forward_fold_matches_enumeration(seed):
    rng = random.Random(seed + 200)
    g = make_random_graph(rng)
    totals, partition = tally_events(g, g.predicates)
    order = list(g.features)
    rng.shuffle(order)
    if partition.is_zero:
        with pytest.raises(ZeroPartition):
            forward_fold(g, order)
        return
    result = forward_fold(g, order)
    assert result.probabilities["P"] == pytest.approx(coeff_ratio_limit(totals["P"], partition), abs=1e-12)
    # fraction-exact reassociation
    assert result.partition == partition
    assert result.unnormalized == totals


def test_forward_fold_single_feature_graph():
    g = single_var_graph(4)
    result = forward_fold(g, g.features, predicates=(ALWAYS,))
    # fold over the lone feature equals the integrated relative probability
    # summed over the two assignments of the untouched variable
    assert result.partition == GradedCoeff.constant(8) * PI_FRAC
    assert result.probabilities["always"] == 1.0


def test_forward_fold_requires_permutation():
    g = single_var_graph()
    with pytest.raises(ValueError):
        forward_fold(g, [])


def test_tally_events_matches_separate_sums():
    g = make_random_graph(random.Random(7))
    p = g.predicates[0]
    totals, partition = tally_events(g, (p,))
    weights = [(s, dist_integrate(relative_probability(g, s))) for s in g.scenarios()]
    assert totals["P"] == sum((w for s, w in weights if p.holds(s.assignment)), GradedCoeff.zero())
    assert partition == sum((w for _, w in weights), GradedCoeff.zero())
