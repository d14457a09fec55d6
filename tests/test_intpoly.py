import json
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import frobgen
from frobgen.closedform import PairParams
from frobgen.errors import BoundTooLarge, NotDivisible
from frobgen.genfun import p_k_poly
from frobgen.intpoly import (
    IntPoly,
    _terms_text,
    cyclotomic,
    poly_exact_div,
    zero_one_csv,
    zero_one_json,
    zero_one_text,
)

from helpers import totient


def brute_mul(p: IntPoly, q: IntPoly) -> IntPoly:
    """Expansion by explicit exponent pairs, independent of IntPoly.__mul__."""
    out: dict[int, int] = {}
    for e1, c1 in p.terms():
        for e2, c2 in q.terms():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return IntPoly(out)


polys = st.builds(
    IntPoly,
    st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-9, max_value=9),
        max_size=8,
    ),
)
nonzero_polys = polys.filter(lambda p: bool(p))
zero_one_polys = st.builds(
    lambda exps: IntPoly(dict.fromkeys(exps, 1)),
    st.sets(st.integers(min_value=0, max_value=40) | st.integers(min_value=0, max_value=10**12)),
)


def substitute_power(p: IntPoly, k: int) -> IntPoly:
    """p(z^k)."""
    return IntPoly({e * k: c for e, c in p.terms()})


def test_every_exported_name_resolves():
    missing = [name for name in frobgen.__all__ if not hasattr(frobgen, name)]
    assert missing == []


class TestMul:
    def test_difference_of_squares(self):
        got = IntPoly({0: 1, 1: -1}) * IntPoly({0: 1, 1: 1})
        assert got == IntPoly({0: 1, 2: -1})

    def test_identity(self):
        p = IntPoly({0: 2, 7: -3, 19: 1})
        assert p * IntPoly.one() == p

    def test_geometric_product_expansion(self):
        # (1 + z^3 + ... + z^12)(1 + z^5 + z^10): 15-term 0/1 poly of degree 22
        p = IntPoly({0: 1, 3: 1, 6: 1, 9: 1, 12: 1})
        q = IntPoly({0: 1, 5: 1, 10: 1})
        got = p * q
        assert got == brute_mul(p, q)
        assert len(got) == 15
        assert got.degree == 22
        assert got.is_zero_one()

    @given(polys, polys)
    def test_commutative(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys, polys)
    def test_matches_bruteforce(self, p, q):
        assert p * q == brute_mul(p, q)

    @given(nonzero_polys, nonzero_polys)
    def test_degree_adds(self, p, q):
        assert (p * q).degree == p.degree + q.degree


class TestOneMinusPow:
    # 1 - z^0 = 0: both terms sit at exponent 0 and cancel
    @pytest.mark.parametrize(
        "n,expected", [(0, IntPoly()), (15, IntPoly({0: 1, 15: -1}))], ids=["zero", "fifteen"]
    )
    def test_one_minus_pow(self, n, expected):
        assert IntPoly.one_minus_pow(n) == expected


class TestExactDiv:
    def test_geometric_factorization(self):
        got = poly_exact_div(IntPoly.one_minus_pow(15), IntPoly.one_minus_pow(5))
        assert got == IntPoly({0: 1, 5: 1, 10: 1})

    def test_linear(self):
        got = poly_exact_div(IntPoly.one_minus_pow(2), IntPoly.one_minus_pow(1))
        assert got == IntPoly({0: 1, 1: 1})

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            poly_exact_div(IntPoly.one_minus_pow(3), IntPoly.one_minus_pow(2))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_exact_div(IntPoly.one(), IntPoly())

    @given(polys, nonzero_polys)
    def test_mul_div_roundtrip(self, p, d):
        assert poly_exact_div(p * d, d) == p


class TestCyclotomic:
    def test_first_two(self):
        assert cyclotomic(1) == IntPoly({1: 1, 0: -1})
        assert cyclotomic(2) == IntPoly({1: 1, 0: 1})

    def test_phi_15(self):
        # z^8 - z^7 + z^5 - z^4 + z^3 - z + 1
        expected = IntPoly({8: 1, 7: -1, 5: 1, 4: -1, 3: 1, 1: -1, 0: 1})
        assert cyclotomic(15) == expected

    def test_phi_15_against_roots(self):
        # independent construction from primitive 15th roots of unity
        import cmath
        from math import gcd

        n = 15
        coeffs = [complex(1)]
        for j in range(1, n + 1):
            if gcd(j, n) == 1:
                root = cmath.exp(2j * cmath.pi * j / n)
                new = [complex(0)] * (len(coeffs) + 1)
                for e, c in enumerate(coeffs):
                    new[e + 1] += c
                    new[e] -= root * c
                coeffs = new
        rounded = {}
        for e, c in enumerate(coeffs):
            assert abs(c.imag) < 1e-6 and abs(c.real - round(c.real)) < 1e-6
            if round(c.real):
                rounded[e] = round(c.real)
        assert cyclotomic(15) == IntPoly(rounded)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    @pytest.mark.parametrize("n", range(1, 101))
    def test_degree_is_totient(self, n):
        assert cyclotomic(n).degree == totient(n)

    @pytest.mark.parametrize("n", range(1, 101))
    def test_product_over_divisors(self, n):
        prod = IntPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod *= cyclotomic(d)
        assert prod == IntPoly({n: 1, 0: -1})

    # Identities of cyclotomic polynomials that the Moebius product does not
    # use, checked with IntPoly products.
    @pytest.mark.parametrize("n,p", [(9, 3), (105, 5), (2310, 7)])
    def test_index_times_a_dividing_prime(self, n, p):
        # Phi_np(z) = Phi_n(z^p) when p | n
        assert cyclotomic(n * p) == substitute_power(cyclotomic(n), p)

    @pytest.mark.parametrize("m,p", [(210, 11), (1155, 2), (2310, 13)])
    def test_index_times_a_new_prime(self, m, p):
        # Phi_mp(z) Phi_m(z) = Phi_m(z^p) when p does not divide m
        assert cyclotomic(m * p) * cyclotomic(m) == substitute_power(cyclotomic(m), p)

    def test_ceiling_applies_to_library_calls(self, monkeypatch):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "100")
        with pytest.raises(BoundTooLarge, match="bound 210 exceeds"):
            cyclotomic(210)
        assert cyclotomic(100).degree == totient(100)


class TestSerialization:
    def test_text_examples(self):
        assert IntPoly({0: 1, 15: -1}).to_text() == "1 - z^15"
        assert IntPoly({1: 1, 2: 1, 4: 1, 7: 1}).to_text() == "z + z^2 + z^4 + z^7"
        assert IntPoly().to_text() == "0"
        assert IntPoly({0: -2, 1: 3}).to_text() == "-2 + 3z"

    @pytest.mark.parametrize(
        "terms,text",
        [({1: -1}, "-z"), ({2: 3}, "3z^2"), ({0: -1, 4: -7}, "-1 - 7z^4")],
        ids=["negative-unit-linear", "magnitude-power", "negative-constant-then-minus"],
    )
    def test_text_branches(self, terms, text):
        assert IntPoly(terms).to_text() == text

    @given(polys)
    def test_json_roundtrip(self, p):
        assert IntPoly.from_json(p.to_json()) == p

    @given(polys)
    def test_json_reemit_identity(self, p):
        text = p.to_json()
        assert IntPoly.from_json(text).to_json() == text

    def test_json_big_coefficients(self):
        p = IntPoly({3: 10**40, 0: -(10**45)})
        assert IntPoly.from_json(p.to_json()) == p

    @given(polys)
    @example(IntPoly())
    @example(IntPoly({0: -1, 4: -7}))
    @example(IntPoly({0: -(10**299) - 3, 2: 10**299, 300: 7 * 10**299}))
    def test_json_is_the_json_dumps_form(self, p):
        # to_json writes its text directly; json.dumps gives the same bytes
        dumped = json.dumps({"terms": [[e, str(c)] for e, c in p.terms()]}, separators=(",", ":"))
        assert p.to_json() == dumped


    @given(zero_one_polys | polys)
    @example(IntPoly())
    @example(IntPoly({0: 1}))
    @example(IntPoly({1: 1}))
    @example(IntPoly({9: 1}))
    @example(IntPoly({0: 1, 1: 1}))
    @example(IntPoly({0: 1, 2: 1}))
    @example(IntPoly({1: 1, 2: 1, 10**12: 1}))
    def test_forms_equal_the_term_by_term_forms(self, p):
        # a nonzero 0/1 polynomial is written through one % template; the
        # text, json and csv it gives are those of one term at a time
        terms = p.terms()
        assert p.to_text() == _terms_text(terms, "z")
        assert p.to_json() == '{"terms":[' + ",".join(map('[%d,"%d"]'.__mod__, terms)) + "]}"
        assert p.to_csv() == "\n".join(["exp,coeff", *[f"{e},{c}" for e, c in terms]]) + "\n"

    @given(st.sets(st.integers(0, 10**6), max_size=40))
    @example(set())
    @example({0})
    @example({1})
    @example({0, 1, 2})
    def test_zero_one_printers(self, exps):
        # the printers over a sorted exponent tuple give the term-by-term
        # forms, and IntPoly's own
        p = IntPoly(dict.fromkeys(exps, 1))
        exps = tuple(sorted(exps))
        assert zero_one_text(exps) == _terms_text(p.terms(), "z") == p.to_text()
        assert zero_one_json(exps) == (
            '{"terms":[' + ",".join(f'[{e},"1"]' for e in exps) + "]}"
        ) == p.to_json()
        assert zero_one_csv(exps) == "exp,coeff\n" + "".join(f"{e},1\n" for e in exps)
        assert zero_one_csv(exps) == p.to_csv()


class TestInvariants:
    @given(polys)
    def test_no_zero_coefficients_stored(self, p):
        assert all(c != 0 for _, c in p.terms())

    def test_zero_degree_is_none(self):
        assert IntPoly().degree is None
        assert (IntPoly.one() - IntPoly.one()).degree is None

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            IntPoly({-1: 1})

    @pytest.mark.parametrize(
        "terms",
        [{2: 1.5}, {2: Fraction(1, 2)}, {2: 2.0}, {2: "3"}, {2: True}, {2: False}],
        ids=["float", "fraction", "integral-float", "str", "true", "false"],
    )
    def test_non_integer_coefficient_rejected(self, terms):
        # each would serialize outside the schema, e.g. {"terms":[[2,"1.5"]]}
        with pytest.raises(ValueError, match="coefficient"):
            IntPoly(terms)

    @pytest.mark.parametrize("exp", [True, False, 1.0, "1"])
    def test_non_integer_exponent_rejected(self, exp):
        with pytest.raises(ValueError, match="exponent"):
            IntPoly([(exp, 1)])

    def test_builders_keep_the_schema(self):
        # the unchecked path serves only maps the package built itself
        p = p_k_poly(PairParams(3, 5), 1)
        for q in (p, -p, p + p, p * p, p * 3, p * 0, cyclotomic(6)):
            for e, c in q.terms():
                assert type(e) is int and e >= 0
                assert type(c) is int and c != 0
            assert IntPoly.from_json(q.to_json()) == q

    def test_evaluate_exact(self):
        p = IntPoly({0: 1, 100: 1})
        assert p.evaluate(2) == 2**100 + 1
