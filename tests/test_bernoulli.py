from fractions import Fraction as F

import pytest

from frobgen.bernoulli import RatPoly, bernoulli_number, bernoulli_poly, beta_poly
from frobgen.closedform import _exact_div, power_sums_below

# B_0 .. B_6, coefficients by increasing exponent.
BERNOULLI_TABLE = {
    0: [F(1)],
    1: [F(-1, 2), F(1)],
    2: [F(1, 6), F(-1), F(1)],
    3: [F(0), F(1, 2), F(-3, 2), F(1)],
    4: [F(-1, 30), F(0), F(1), F(-2), F(1)],
    5: [F(0), F(-1, 6), F(0), F(5, 3), F(-5, 2), F(1)],
    6: [F(1, 42), F(0), F(-1, 2), F(0), F(5, 2), F(-3), F(1)],
}


class TestBernoulliPoly:
    @pytest.mark.parametrize("n", sorted(BERNOULLI_TABLE))
    def test_table(self, n):
        assert bernoulli_poly(n).coefficients == tuple(BERNOULLI_TABLE[n])

    def test_convention_b1(self):
        # the generating function z e^{xz} / (e^z - 1) forces B_1(0) = -1/2
        assert bernoulli_number(1) == F(-1, 2)
        assert bernoulli_poly(1).evaluate(0) == F(-1, 2)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
    def test_odd_constant_term_is_zero(self, n):
        assert bernoulli_poly(n).coeff(0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_poly(-1)


class TestBetaPoly:
    def test_beta1_is_x(self):
        assert beta_poly(1).coefficients == (F(0), F(1))

    def test_examples(self):
        assert beta_poly(2).evaluate(3) == 3  # 0 + 1 + 2
        assert beta_poly(3).evaluate(5) == 30  # 0 + 1 + 4 + 9 + 16

    @pytest.mark.parametrize("k", range(1, 9))
    def test_power_sum_identity(self, k):
        poly = beta_poly(k)
        for x in range(1, 51):
            assert poly.evaluate(x) == sum(j ** (k - 1) for j in range(x))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            beta_poly(0)


class TestBetaValue:
    """beta_k at integers, as the closed forms get it: S_{k-1}(x) from
    power_sums_below, in plain integers."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_polynomial_and_power_sum(self, k):
        for x in range(61):
            value = power_sums_below(x, k - 1)[k - 1]
            assert type(value) is int
            assert value == beta_poly(k).evaluate(x)
            assert value == sum(j ** (k - 1) for j in range(x))

    def test_nonzero_remainder_raises(self):
        assert _exact_div(6, 2) == 3
        with pytest.raises(AssertionError):
            _exact_div(3, 2)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            power_sums_below(3, -1)


class TestRatPoly:
    def test_trailing_zeros_trimmed(self):
        assert RatPoly([1, 2, 0, 0]).degree == 1

    def test_zero_degree_none(self):
        assert RatPoly([]).degree is None
        assert RatPoly([0, 0]).degree is None

    def test_evaluate_fraction(self):
        p = RatPoly([F(1, 6), F(-1), F(1)])
        assert p.evaluate(F(1, 2)) == F(1, 6) - F(1, 2) + F(1, 4)

    def test_text(self):
        assert bernoulli_poly(2).to_text() == "x^2 - x + 1/6"

    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ([0, F(-3, 2)], "-3/2 x"),
            ([F(1, 6), 0, -1, 2], "2 x^3 - x^2 + 1/6"),
            ([5], "5"),
            ([], "0"),
            ([-1, 1], "x - 1"),
        ],
        ids=["negative-fraction-linear", "skips-zero", "constant", "zero", "unit-minus-constant"],
    )
    def test_text_branches(self, coeffs, text):
        assert RatPoly(coeffs).to_text() == text
