import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bellfield.graded import (
    MAX_TOTAL_DEGREE,
    DivergentLimit,
    GradedCoeff,
    MismatchedAlphaOrder,
    coeff_ratio_limit,
)

A = GradedCoeff.alpha()
B = GradedCoeff.beta()


def richardson_beta_limit(num: GradedCoeff, den: GradedCoeff) -> float:
    """Numeric oracle: evaluate the ratio at alpha=1 and shrinking beta,
    then extrapolate the leading linear-in-beta error away."""
    betas = [1e-3, 1e-4, 1e-5]
    vals = [num.eval(1.0, b) / den.eval(1.0, b) for b in betas]
    extrap = []
    for (b1, f1), (b2, f2) in zip(zip(betas, vals), zip(betas[1:], vals[1:])):
        extrap.append(f2 + (f2 - f1) * b2 / (b1 - b2))
    # first-order extrapolation leaves an O(beta^2) residue
    assert abs(extrap[0] - extrap[1]) < 1e-6, "oracle did not converge"
    return extrap[-1]


class TestRatioLimit:
    def test_partition_style_ratio_matches_numeric_oracle(self):
        c = 0.7
        num = GradedCoeff({(2, 3): 8 * c})
        den = GradedCoeff({(2, 3): 16, (2, 4): 4 * math.pi})
        oracle = richardson_beta_limit(num, den)
        assert oracle == pytest.approx(c / 2, abs=1e-9)
        assert coeff_ratio_limit(num, den) == pytest.approx(oracle, abs=1e-9)
        assert coeff_ratio_limit(num, den) == pytest.approx(c / 2, abs=1e-15)

    def test_identity_ratio(self):
        x = GradedCoeff({(2, 3): 1})
        assert coeff_ratio_limit(x, x) == 1.0

    def test_higher_order_numerator_vanishes(self):
        assert coeff_ratio_limit(GradedCoeff({(2, 4): 1}), GradedCoeff({(2, 3): 1})) == 0.0

    def test_zero_numerator(self):
        assert coeff_ratio_limit(GradedCoeff.zero(), GradedCoeff({(2, 3): 5})) == 0.0

    def test_mismatched_alpha_order(self):
        with pytest.raises(MismatchedAlphaOrder):
            coeff_ratio_limit(GradedCoeff({(1, 3): 1}), GradedCoeff({(2, 3): 1}))

    def test_divergent_limit(self):
        with pytest.raises(DivergentLimit):
            coeff_ratio_limit(GradedCoeff({(2, 2): 1}), GradedCoeff({(2, 3): 1}))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            coeff_ratio_limit(GradedCoeff.one(), GradedCoeff.zero())

    def test_alpha_restriction_drops_higher_alpha_terms(self):
        # an alpha^3 admixture must not disturb the alpha^2 limit
        num = GradedCoeff({(2, 3): 4, (3, 2): 100})
        den = GradedCoeff({(2, 3): 8, (3, 5): -7})
        assert coeff_ratio_limit(num, den) == 0.5


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        assert GradedCoeff({(1, 1): 0}).is_zero

    def test_truncation_at_construction(self):
        g = GradedCoeff({(6, 5): 3, (5, 5): 4, (1, 1): 2})  # degree 11 > 10
        assert g.terms == {(5, 5): Fraction(4), (1, 1): Fraction(2)}

    def test_truncation_in_product(self):
        g = GradedCoeff({(3, 3): 1}) * GradedCoeff({(3, 2): 1})
        assert g.is_zero  # degree 11 > 10
        assert (GradedCoeff({(3, 2): 1}) * GradedCoeff({(2, 3): 1})).terms == {(5, 5): Fraction(1)}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            GradedCoeff({(-1, 0): 1})

    def test_float_conversion_is_lossless(self):
        g = GradedCoeff({(0, 0): 0.1})
        assert g.constant_value() == Fraction(0.1)  # the float's exact value

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GradedCoeff({(0, 0): float("nan")})

    def test_eval(self):
        g = GradedCoeff({(2, 3): 8, (2, 4): 4})
        assert g.eval(0.5, 0.1) == pytest.approx(8 * 0.25 * 1e-3 + 4 * 0.25 * 1e-4)

    def test_orders(self):
        g = GradedCoeff({(2, 3): 8, (1, 4): 4})
        assert g.min_alpha_order() == 1
        assert g.min_beta_order() == 3
        assert g.at_alpha_order(2) == {3: Fraction(8)}


small_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
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
    def test_multiplication_associates_within_truncation(self, x, y, z):
        # exponents <= 2 per variable keep every product within degree 8
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


# Exponents up to 6 per variable, so products cross MAX_TOTAL_DEGREE, and
# small rationals, so sums cancel term by term.
wide_graded = st.builds(
    GradedCoeff,
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
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


class TestStoredTerms:
    """The arithmetic builds its results without re-validating them; they
    must still hold exactly what the validated constructor would keep."""

    @given(wide_graded, st.lists(st.tuples(st.sampled_from("+-*"), operand), max_size=8))
    def test_arithmetic_chains_keep_the_invariants(self, x, steps):
        ops = {"+": lambda u, v: u + v, "-": lambda u, v: u - v, "*": lambda u, v: u * v}
        for op, y in steps:
            for result in (ops[op](x, y), ops[op](y, x), -x):
                terms = result.terms
                assert all(type(c) is Fraction and c != 0 for c in terms.values())
                assert all(i + j <= MAX_TOTAL_DEGREE for i, j in terms)
                assert result == GradedCoeff(terms)
            x = ops[op](x, y)

    @given(st.fractions(-3, 3, max_denominator=4).filter(bool), st.fractions(-3, 3, max_denominator=4).filter(bool))
    def test_cancelling_cross_term_of_a_product_is_dropped(self, c, d):
        # (cA + dB)(cA - dB): the alpha*beta terms -cd and +dc cancel
        assert ((c * A + d * B) * (c * A - d * B)).terms == {(2, 0): c * c, (0, 2): -d * d}
