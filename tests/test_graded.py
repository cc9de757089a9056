import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bellfield.graded import DivergentLimit, GradedCoeff, coeff_ratio_limit

B = GradedCoeff.beta()


def richardson_beta_limit(num: GradedCoeff, den: GradedCoeff) -> float:
    """Numeric oracle: evaluate the ratio at shrinking beta, then
    extrapolate the leading linear-in-beta error away."""
    betas = [1e-3, 1e-4, 1e-5]
    vals = [num.eval(b) / den.eval(b) for b in betas]
    extrap = []
    for (b1, f1), (b2, f2) in zip(zip(betas, vals), zip(betas[1:], vals[1:])):
        extrap.append(f2 + (f2 - f1) * b2 / (b1 - b2))
    # first-order extrapolation leaves an O(beta^2) residue
    assert abs(extrap[0] - extrap[1]) < 1e-6, "oracle did not converge"
    return extrap[-1]


class TestRatioLimit:
    def test_partition_style_ratio_matches_numeric_oracle(self):
        c = 0.7
        num = GradedCoeff({3: 8 * c})
        den = GradedCoeff({3: 16, 4: 4 * math.pi})
        oracle = richardson_beta_limit(num, den)
        assert oracle == pytest.approx(c / 2, abs=1e-9)
        assert coeff_ratio_limit(num, den) == pytest.approx(oracle, abs=1e-9)
        assert coeff_ratio_limit(num, den) == pytest.approx(c / 2, abs=1e-15)
        # higher orders on either side leave the limit as it is
        assert coeff_ratio_limit(num + GradedCoeff({5: 100}), den + GradedCoeff({6: -7})) == coeff_ratio_limit(num, den)

    def test_identity_ratio(self):
        x = GradedCoeff({3: 1})
        assert coeff_ratio_limit(x, x) == 1.0

    def test_higher_order_numerator_vanishes(self):
        assert coeff_ratio_limit(GradedCoeff({4: 1}), GradedCoeff({3: 1})) == 0.0

    def test_zero_numerator(self):
        assert coeff_ratio_limit(GradedCoeff.zero(), GradedCoeff({3: 5})) == 0.0

    def test_divergent_limit(self):
        with pytest.raises(DivergentLimit):
            coeff_ratio_limit(GradedCoeff({2: 1}), GradedCoeff({3: 1}))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            coeff_ratio_limit(GradedCoeff.one(), GradedCoeff.zero())

    scalars = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**200), 2**200))

    @settings(max_examples=500, deadline=None)
    @given(scalars, scalars)
    @example(0.0, -3.0)
    @example(-0.0, 5e-324)
    @example(2**53 + 1, 3)
    @example(-5e-324, 1e308)
    def test_constant_ratio_is_the_correctly_rounded_quotient(self, a, b):
        # two constants divide as float(Fraction(a) / Fraction(b)): the same
        # double, sign of zero included, or the same OverflowError
        assume(b != 0)
        num, den = GradedCoeff.constant(a), GradedCoeff.constant(b)
        try:
            want = float(Fraction(a) / Fraction(b))
        except OverflowError:
            with pytest.raises(OverflowError):
                coeff_ratio_limit(num, den)
            return
        assert float.hex(coeff_ratio_limit(num, den)) == float.hex(want)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        assert GradedCoeff({1: 0}).is_zero

    def test_products_keep_every_degree(self):
        g = GradedCoeff({6: 1}) * GradedCoeff({5: 1})
        assert g.terms == {11: Fraction(1)}
        assert (GradedCoeff({0: 1, 4: 2}) * GradedCoeff({4: 1, 8: 3})).terms == {4: 1, 8: 5, 12: 6}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            GradedCoeff({-1: 1})

    def test_float_conversion_is_lossless(self):
        g = GradedCoeff({0: 0.1})
        assert g.constant_value() == Fraction(0.1)  # the float's exact value

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GradedCoeff({0: float("nan")})

    def test_zero_and_one_are_shared(self):
        assert GradedCoeff.zero() is GradedCoeff.zero()
        assert GradedCoeff.one() is GradedCoeff.one()
        assert GradedCoeff.one().terms == {0: Fraction(1)}

    def test_eval(self):
        g = GradedCoeff({3: 8, 4: 4})
        assert g.eval(0.1) == pytest.approx(8 * 1e-3 + 4 * 1e-4)

    @given(st.dictionaries(st.integers(0, 5), st.integers(-5, 5).filter(bool), min_size=1, max_size=4))
    def test_orders(self, terms):
        # the lowest beta exponent, and its term alone leads
        g = GradedCoeff(terms)
        assert g.min_beta_order() == min(terms)
        assert g.leading_terms() == {min(terms): Fraction(terms[min(terms)])}
        with pytest.raises(ValueError):
            GradedCoeff.zero().min_beta_order()
        assert GradedCoeff.zero().leading_terms() == {}


# Exponents up to 5, so that the products of two operands merge terms.
small_terms = st.dictionaries(
    st.integers(0, 5),
    st.integers(-5, 5),
    max_size=4,
)
graded = st.builds(GradedCoeff, small_terms)


class TestRingAxioms:
    @given(graded, graded)
    def test_addition_commutes(self, x, y):
        assert x + y == y + x

    @given(graded, graded)
    def test_multiplication_commutes(self, x, y):
        assert x * y == y * x

    @given(graded, graded, graded)
    def test_addition_associates(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(graded, graded, graded)
    def test_multiplication_associates(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(graded, graded, graded)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(graded)
    def test_additive_identity_and_inverse(self, x):
        assert x + GradedCoeff.zero() == x
        assert (x - x).is_zero

    @given(graded)
    def test_multiplicative_identity(self, x):
        assert x * GradedCoeff.one() == x

    @given(graded, st.integers(-3, 3))
    def test_scalar_coercion(self, x, c):
        assert x * c == x * GradedCoeff.constant(c)
        assert x + c == x + GradedCoeff.constant(c)


# Exponents up to 12, so chained products reach high degrees and merge
# terms, and small rationals, so sums cancel term by term.
wide_graded = st.builds(
    GradedCoeff,
    st.dictionaries(
        st.integers(0, 12),
        st.fractions(-3, 3, max_denominator=4),
        max_size=5,
    ),
)
operand = st.one_of(
    wide_graded,
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=4),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)


# An independent reference: the same polynomials as plain {key: Fraction}
# dicts.


def ref_terms(x) -> dict:
    """``x`` (a GradedCoeff or a scalar operand) as a reference dict."""
    if isinstance(x, GradedCoeff):
        return x.terms
    return {0: Fraction(x)} if x else {}


def ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def ref_neg(p: dict) -> dict:
    return {k: -c for k, c in p.items()}


def ref_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for j1, c1 in p.items():
        for j2, c2 in q.items():
            out[j1 + j2] = out.get(j1 + j2, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


class TestStoredTerms:
    """The arithmetic builds its results without re-validating them; they
    must still hold exactly what the validated constructor would keep, and
    the terms the reference computes."""

    # A chain of eight products of wide operands reaches degree 108 and can
    # take longer than Hypothesis's default deadline; the examples stay as many.
    @settings(deadline=None)
    @given(wide_graded, st.lists(st.tuples(st.sampled_from("+-*"), operand), max_size=8))
    def test_arithmetic_chains_keep_the_invariants(self, x, steps):
        ops = {"+": lambda u, v: u + v, "-": lambda u, v: u - v, "*": lambda u, v: u * v}
        ref_ops = {"+": ref_add, "-": lambda p, q: ref_add(p, ref_neg(q)), "*": ref_mul}
        ref = x.terms
        for op, y in steps:
            q = ref_terms(y)
            for result, want in (
                (ops[op](x, y), ref_ops[op](ref, q)),
                (ops[op](y, x), ref_ops[op](q, ref)),
                (-x, ref_neg(ref)),
            ):
                terms = result.terms
                assert terms == want
                assert all(type(c) is Fraction and c != 0 for c in terms.values())
                assert result == GradedCoeff(terms)
            x, ref = ops[op](x, y), ref_ops[op](ref, q)

    @given(wide_graded, wide_graded)
    def test_equal_values_built_differently_are_equal_and_hash_alike(self, x, y):
        for same in ((x + y) - y, y + x - y, x * 2 * Fraction(1, 2), x * 0.5 * 2, x * 3 * Fraction(1, 3), -(-x)):
            assert same == x
            assert hash(same) == hash(x)
            assert same.terms == x.terms

    @given(st.fractions(-3, 3, max_denominator=4).filter(bool), st.fractions(-3, 3, max_denominator=4).filter(bool))
    def test_cancelling_cross_term_of_a_product_is_dropped(self, c, d):
        # (c + dB)(c - dB): the beta terms -cd and +dc cancel
        assert ((c + d * B) * (c - d * B)).terms == {0: c * c, 2: -d * d}


class TestBoundary:
    """Coefficients at the edges of what the boundary accepts."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_value_error(self, bad):
        x = GradedCoeff({1: 1})
        with pytest.raises(ValueError):
            GradedCoeff({0: bad})
        with pytest.raises(ValueError):
            GradedCoeff.constant(bad)
        for op in (lambda: x + bad, lambda: bad + x, lambda: x - bad, lambda: bad - x, lambda: x * bad, lambda: bad * x):
            with pytest.raises(ValueError):
                op()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_equals_no_polynomial(self, bad):
        for g in (GradedCoeff.zero(), GradedCoeff.one(), GradedCoeff.beta() + 2):
            assert (g == bad) is False and (bad == g) is False
            assert (g != bad) is True
        assert GradedCoeff.one() not in [1.5, bad]
        assert GradedCoeff.one() in [bad, 1.0]

    @pytest.mark.parametrize("bad", [1j, 1 + 0j, "1"])
    def test_complex_or_str_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            GradedCoeff({0: bad})
        with pytest.raises(TypeError):
            GradedCoeff.term(bad, 1)

    def test_complex_arithmetic_raises_type_error(self):
        x = GradedCoeff({1: 1})
        for op in (lambda: x + 1j, lambda: 1j + x, lambda: x * 1j, lambda: 1j * x, lambda: x - 1j):
            with pytest.raises(TypeError):
                op()

    def test_negative_zero_is_dropped(self):
        assert GradedCoeff({0: -0.0, 1: 0.0}).is_zero
        assert (GradedCoeff.beta() * -0.0).is_zero
        assert GradedCoeff.beta() + -0.0 == GradedCoeff.beta()

    @pytest.mark.parametrize("x", [5e-324, -5e-324, 1e308, -1e308, 0.1, 2.0**-1074 * 3, 1 / 3])
    def test_floats_round_trip_exactly(self, x):
        assert GradedCoeff({3: x}).terms == {3: Fraction(x)}
        assert GradedCoeff.constant(x).constant_value() == Fraction(x)
        assert float(GradedCoeff.constant(x).constant_value()) == x
        assert (GradedCoeff.beta() * x).terms == {1: Fraction(x)}

    def test_tiny_times_huge_stays_exact(self):
        g = GradedCoeff.constant(5e-324) * 1e308
        assert g.constant_value() == Fraction(5e-324) * Fraction(1e308)

    def test_bools_read_as_zero_and_one(self):
        assert GradedCoeff({0: True}) == GradedCoeff.one()
        assert GradedCoeff({0: True}).terms == {0: Fraction(1)}
        assert type(GradedCoeff.constant(True).terms[0]) is Fraction
        assert GradedCoeff({0: False}).is_zero
        assert GradedCoeff.beta() * True == GradedCoeff.beta()
        assert (GradedCoeff.beta() * False).is_zero

    def test_queries_hand_out_fractions(self):
        g = GradedCoeff({3: 0.25, 4: Fraction(-2, 6), 0: 3})
        values = [*g.terms.values(), *g.leading_terms().values()]
        assert all(type(c) is Fraction for c in values)
        assert g.terms == {0: Fraction(3), 3: Fraction(1, 4), 4: Fraction(-1, 3)}
        assert g.leading_terms() == {0: Fraction(3)}
        assert GradedCoeff.constant(Fraction(6, -4)).constant_value() == Fraction(-3, 2)
        assert GradedCoeff.zero().constant_value() == 0


# Every scalar type the arithmetic accepts.  Unbounded floats reach the
# subnormals, both zeros and the largest exponents; the examples pin them.
scalar = st.one_of(
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10**12),
)


def assert_stored_form(g: GradedCoeff) -> None:
    """The pairs ``g`` holds: reduced ints, positive denominators, no zero."""
    for n, d in g._terms.values():
        assert type(n) is int and type(d) is int
        assert n != 0 and d > 0 and math.gcd(n, d) == 1


class TestScalarOperands:
    """A scalar operand enters the arithmetic as one reduced pair, with no
    polynomial built around it; each operation must still give what the
    same operation with the scalar's constant polynomial gives."""

    @settings(max_examples=300, deadline=None)
    @given(wide_graded, scalar)
    @example(GradedCoeff({0: 1, 3: Fraction(-1, 3)}), 5e-324)
    @example(GradedCoeff({0: Fraction(1, 2)}), -0.5)
    @example(GradedCoeff({1: 3}), -0.0)
    @example(GradedCoeff({0: 2.0**-1074 * 3}), 1.7976931348623157e308)
    @example(GradedCoeff(), True)
    @example(GradedCoeff({0: -1}), True)
    @example(GradedCoeff({4: 0.75}), Fraction(4, 3))
    def test_equals_the_operation_with_the_constant(self, g, s):
        c = GradedCoeff.constant(s)
        for got, want in (
            (g * s, g * c),
            (s * g, c * g),
            (g + s, g + c),
            (s + g, c + g),
            (g - s, g - c),
            (s - g, c - g),
        ):
            assert type(got) is GradedCoeff
            assert got == want
            assert got.terms == want.terms == GradedCoeff(got.terms).terms
            assert hash(got) == hash(want)
            assert_stored_form(got)

    @pytest.mark.parametrize("bad", [1j, "1", None, [1], Decimal(1)])
    def test_unsupported_operand_raises_type_error(self, bad):
        g = GradedCoeff.beta() + 1
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(g, bad)
            with pytest.raises(TypeError):
                op(bad, g)
        assert (g == bad) is False


class TestHashContract:
    """Equal values hash alike: a constant polynomial hashes as the scalar
    it equals, so the two are one set member or dict key."""

    @settings(max_examples=300)
    @given(scalar)
    @example(2)
    @example(True)
    @example(False)
    @example(-0.0)
    @example(0.5)
    @example(Fraction(6, 3))
    def test_a_constant_hashes_like_its_scalar(self, s):
        g = GradedCoeff.constant(s)
        assert g == s and s == g
        assert hash(g) == hash(s)
        assert len({g, s}) == 1

    def test_zero_hashes_like_zero(self):
        assert hash(GradedCoeff.zero()) == hash(0)
        assert {GradedCoeff.zero(), 0, 0.0, False, Fraction(0)} == {0}
