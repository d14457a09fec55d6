import io
import random
import tracemalloc
from contextlib import redirect_stdout
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobgen import closedform, dp, oracle
from frobgen.cli import main
from frobgen.closedform import PairParams, closed_report, count_k, frobenius_k, structured_r_k
from frobgen.errors import BoundTooLarge, NotPrime, WrongArity
from frobgen.genfun import (
    IndicatorSeries,
    _representable,
    cyclotomic_identity_check,
    denham_term_count,
    numerator_h,
    p_k_exponents,
    p_k_poly,
    rational_series,
    s_k_indicator,
)
from frobgen.intpoly import IntPoly
from frobgen.oracle import GapSet, enumerate_exact_k, rep_table, validate_params

from helpers import brute_counts, coprime_pairs


@st.composite
def coprime_pair(draw, max_b: int = 40) -> tuple[int, int]:
    b = draw(st.integers(1, max_b))
    a = draw(st.integers(1, b).filter(lambda a: gcd(a, b) == 1))
    return (a, b) if draw(st.booleans()) else (b, a)


@st.composite
def coin_set(draw, max_coin: int = 40) -> tuple[int, ...]:
    """1 to 5 coins in 1..max_coin with gcd 1, repeats and a coin of 1 allowed:
    drawn coins divided by their gcd."""
    coins = draw(st.lists(st.integers(1, max_coin), min_size=1, max_size=5))
    g = gcd(*coins)
    return tuple(c // g for c in coins)


class TestPkPoly:
    def test_gap_polynomial(self):
        assert p_k_poly(PairParams(3, 5), 0) == IntPoly({1: 1, 2: 1, 4: 1, 7: 1})

    def test_ones_collapse(self):
        assert p_k_poly(PairParams(1, 1), 1) == IntPoly.one()

    def test_degree_is_frobenius_number(self):
        got = p_k_poly(PairParams(3, 5), 1)
        assert len(got) == 15
        assert got.degree == 22
        assert got.is_zero_one()

    @pytest.mark.parametrize("a,b", coprime_pairs(12))
    def test_support_is_oracle_set(self, a, b):
        params = validate_params([a, b])
        p = PairParams(a, b)
        for k in range(4):
            poly = p_k_poly(p, k)
            assert poly.is_zero_one()
            assert poly.support() == enumerate_exact_k(params, k).elements
            assert poly.evaluate(1) == count_k(p, k).value
            g = frobenius_k(p, k).value
            assert poly.degree == g

    @pytest.mark.parametrize("b", range(2, 41))
    def test_gaps_by_reflection_match_brute_force(self, b):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            counts = brute_counts((a, b), a * b)
            gaps = tuple(j for j, c in enumerate(counts) if c == 0)
            assert p_k_poly(PairParams(a, b), 0).support() == gaps
            assert p_k_poly(PairParams(b, a), 0).support() == gaps

    @pytest.mark.parametrize("b", range(2, 41))
    def test_product_form_matches_brute_force(self, b):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            counts = brute_counts((a, b), 4 * a * b)  # R_3 ends at 4ab - a - b
            for k in (1, 2, 3):
                exact = tuple(j for j, c in enumerate(counts) if c == k)
                for pair in (PairParams(a, b), PairParams(b, a)):
                    poly = p_k_poly(pair, k)
                    assert poly.is_zero_one()
                    assert poly.support() == exact

    def test_colliding_rows_raise(self):
        # (2, 4) is not coprime, so two rows of the product share an exponent
        pair = PairParams(3, 5)
        object.__setattr__(pair, "a", 2)
        object.__setattr__(pair, "b", 4)
        with pytest.raises(AssertionError, match="outside"):
            p_k_poly(pair, 1)

    @given(
        coprime_pair(12),
        st.integers(1, 4),
        st.sampled_from(["plain", "json", "csv"]),
        st.data(),
    )
    def test_coefficient_two_refused_before_output(self, ab, k, fmt, data):
        # a 2 in place of any of the ab ones of the product form: genfun
        # --k raises before writing a byte, in every format
        a, b = ab
        real = closedform._grid_bytes
        at = data.draw(st.integers(0, a * b - 1))

        def two_at(p):
            coeffs = bytearray(real(p))
            coeffs[[i for i, c in enumerate(coeffs) if c][at]] = 2
            return bytes(coeffs)

        out = io.StringIO()
        argv = ["genfun", "--params", f"{a},{b}", "--k", str(k), "--format", fmt]
        with patch.object(closedform, "_grid_bytes", two_at), redirect_stdout(out):
            with pytest.raises(AssertionError, match="outside"):
                main(argv)
        assert out.getvalue() == ""

    def test_product_form_makes_no_sparse_product(self, monkeypatch):
        def no_mul(self, other):
            raise AssertionError("p_k_poly multiplied IntPolys")

        monkeypatch.setattr(IntPoly, "__mul__", no_mul)
        monkeypatch.setattr(IntPoly, "__rmul__", no_mul)
        for k in (1, 2, 5):
            assert len(p_k_poly(PairParams(7, 10), k)) == 70

    def test_gap_polynomial_calls_no_oracle(self, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("p_k_poly(pair, 0) called the oracle")

        monkeypatch.setattr("frobgen.genfun.enumerate_exact_k", no_oracle)
        got = p_k_poly(PairParams(5, 7), 0)
        assert got == IntPoly(dict.fromkeys([1, 2, 3, 4, 6, 8, 9, 11, 13, 16, 18, 23], 1))

    def test_ceiling_bounds_the_builders(self, monkeypatch):
        # the top position laid out is g_0 for k = 0 and 2ab - a - b for k >= 1
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "136")
        p = PairParams(7, 11)  # g_0 = 59, 2ab - a - b = 136
        assert p_k_poly(p, 0).degree == 59
        assert len(p_k_poly(p, 5)) == 77
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "135")
        with pytest.raises(BoundTooLarge) as exc:
            p_k_poly(p, 1)
        assert exc.value.bound == 136
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "58")
        with pytest.raises(BoundTooLarge) as exc:
            p_k_poly(p, 0)
        assert exc.value.bound == 59

    def test_shift_structure(self):
        # p_k is p_1 translated by ab(k-1)
        p = PairParams(4, 7)
        base = p_k_poly(p, 1).support()
        for k in (2, 3, 4):
            shifted = tuple(j + 28 * (k - 1) for j in base)
            assert p_k_poly(p, k).support() == shifted

    def test_partition_of_low_counts(self):
        # each j is in exactly one exactly-k support once k reaches r(j)
        a, b, kmax = 3, 5, 6
        bound = 5 * a * b
        counts = rep_table(validate_params([a, b]), bound)
        supports = [set(p_k_poly(PairParams(a, b), k).support()) for k in range(kmax + 1)]
        for j, c in enumerate(counts):
            if c <= kmax:
                assert sum(j in s for s in supports) == 1


class TestPkExponents:
    @given(coprime_pair(), st.integers(0, 5))
    @example((1, 1), 0)
    @example((1, 2), 0)
    @example((40, 39), 5)
    def test_exactly_k_set(self, ab, k):
        a, b = ab
        exps = p_k_exponents(PairParams(a, b), k)
        assert exps == p_k_poly(PairParams(a, b), k).support()
        counts = brute_counts((a, b), (k + 1) * a * b)  # g_k = (k + 1)ab - a - b
        assert exps == tuple(j for j, c in enumerate(counts) if c == k)

    @pytest.mark.parametrize(
        "fmt,text", [("plain", "0\n"), ("json", '{"terms":[]}\n'), ("csv", "exp,coeff\n")]
    )
    def test_empty_p_k_prints(self, capsys, fmt, text):
        # (1, 2) represents every n >= 0: p_0 is the zero polynomial
        assert p_k_exponents(PairParams(1, 2), 0) == ()
        assert main(["genfun", "--params", "1,2", "--k", "0", "--format", fmt]) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_ceiling(self, k, monkeypatch):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "10")
        with pytest.raises(BoundTooLarge):
            p_k_exponents(PairParams(5, 7), k)

    def test_negative_k(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            p_k_exponents(PairParams(5, 7), -1)


class TestIndicator:
    def test_golden_boundary(self):
        series = s_k_indicator(PairParams(5, 7), 0, 24)
        assert series.bits[23] == 0
        assert series.bits[24] == 1

    def test_shift_rule(self):
        series = s_k_indicator(PairParams(3, 5), 1, 15)
        assert series.bits[15] == 1

    def test_zero_bound(self):
        assert tuple(s_k_indicator(PairParams(2, 3), 0, 0).bits) == (1,)

    @pytest.mark.parametrize("a,b", coprime_pairs(10))
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_oracle_counts(self, a, b, k):
        bound = 4 * a * b
        counts = rep_table(validate_params([a, b]), bound)
        series = s_k_indicator(PairParams(a, b), k, bound)
        for j in range(bound + 1):
            assert series.bits[j] == (1 if counts[j] > k else 0)

    def test_everything_past_frobenius_bound(self):
        a, b, k = 4, 9, 2
        g = (k + 1) * a * b - a - b
        series = s_k_indicator(PairParams(a, b), k, g + 40)
        assert all(series.bits[j] == 1 for j in range(g + 1, g + 41))

    @pytest.mark.parametrize("b", range(2, 41))
    def test_edges_match_brute_force(self, b):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            counts = brute_counts((a, b), 4 * a * b)  # g_3 + a + b = 4ab
            for k in range(4):
                g_k = (k + 1) * a * b - a - b
                for bound in {0, a * b * k - 1, a * b * k, a * b * k + 1, g_k + a + b}:
                    if bound < 0:
                        continue
                    bits = tuple(int(c > k) for c in counts[: bound + 1])
                    assert tuple(s_k_indicator(PairParams(a, b), k, bound).bits) == bits
                    assert tuple(s_k_indicator(PairParams(b, a), k, bound).bits) == bits

    @pytest.mark.parametrize("k", [1, 6, 1000])
    def test_ceiling_applies_to_the_bound_given(self, k, monkeypatch):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "100")
        assert len(s_k_indicator(PairParams(3, 5), k, 100).bits) == 101
        with pytest.raises(BoundTooLarge) as exc:
            s_k_indicator(PairParams(3, 5), k, 1000)
        assert exc.value.bound == 1000

    def test_memory_one_byte_per_entry(self):
        # the bits stay the bytes they are built from: 2 MB here, where a
        # tuple of ints would add 8 bytes of pointer per entry
        tracemalloc.start()
        try:
            series = s_k_indicator(PairParams(3, 5), 1, 2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series.bits) == 2_000_001
        assert peak < 8_000_000

    def test_json(self):
        series = s_k_indicator(PairParams(2, 3), 0, 4)
        assert series.to_bitstring() == "10111"
        assert "\"bits\":[1,0,1,1,1]" in series.to_json()

    @given(st.lists(st.integers(0, 1), max_size=300).map(bytes), st.integers(0, 3))
    @example(b"", 0)
    @example(b"\x00", 1)
    @example(b"\x01", 2)
    def test_json_is_the_joined_form(self, bits, k):
        # the bits array written by one strided copy is the bitstring
        # joined by commas
        series = IndicatorSeries((3, 5), k, len(bits) - 1, bits)
        joined = ",".join(series.to_bitstring())
        assert series.to_json() == (
            f'{{"params":[3,5],"k":{k},"bound":{len(bits) - 1},"bits":[{joined}]}}'
        )


class TestNoOracleInTwoCoinBuilders:
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 7), (5, 7)])
    def test_builders_and_closed_forms_never_scan(self, a, b, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("a two-coin builder called the oracle")

        monkeypatch.setattr(oracle, "_stream", no_oracle)
        monkeypatch.setattr(dp, "rep_counts", no_oracle)
        p = PairParams(a, b)
        for k in range(4):
            assert p_k_poly(p, k).is_zero_one()
            assert len(s_k_indicator(p, k, 3 * a * b).bits) == 3 * a * b + 1
            if k >= 1:
                assert len(structured_r_k(p, k)) == a * b
            for stat in ("g", "c", "s", "g<=", "c<=", "s<="):
                closed_report(p, stat, k)
            for m in range(2 if k == 0 else 5):
                closed_report(p, "s^m", k, m)


def _reference_h(params):
    """h by the identity the package used before the dense product:
    (1 + z + ... + z^(a_1 - 1)) prod_{i>=2} (1 - z^(a_i)) - p_0 prod_i (1 - z^(a_i))."""
    denoms = params.denominations
    h = IntPoly(dict.fromkeys(range(denoms[0]), 1))
    for a in denoms[1:]:
        h *= IntPoly.one_minus_pow(a)
    full = IntPoly(dict.fromkeys(enumerate_exact_k(params, 0).elements, 1))
    for a in denoms:
        full *= IntPoly.one_minus_pow(a)
    return h - full


class TestNumerator:
    @pytest.mark.parametrize("a,b", coprime_pairs(12))
    def test_pairs_give_one_minus_z_ab(self, a, b):
        h = numerator_h(validate_params([a, b]))
        assert h == IntPoly.one_minus_pow(a * b)

    def test_unit_coin(self):
        assert numerator_h(validate_params([1])) == IntPoly.one()

    def test_triple_3_5_7(self):
        h = numerator_h(validate_params([3, 5, 7]))
        assert len(h) in (4, 6)

    def test_random_sets_match_the_reference_identity(self):
        rng = random.Random(4242)
        done = 0
        while done < 80:
            denoms = [rng.randint(1, 40) for _ in range(rng.randint(2, 5))]
            if gcd(*denoms) != 1:
                continue
            done += 1
            params = validate_params(denoms)
            assert numerator_h(params) == _reference_h(params), denoms

    def test_makes_no_sparse_product(self, monkeypatch):
        def no_mul(self, other):
            raise AssertionError("numerator_h multiplied IntPolys")

        monkeypatch.setattr(IntPoly, "__mul__", no_mul)
        monkeypatch.setattr(IntPoly, "__rmul__", no_mul)
        assert numerator_h(validate_params([3, 5])) == IntPoly.one_minus_pow(15)
        assert numerator_h(validate_params([12, 21, 28])) == IntPoly({0: 1, 84: -2, 168: 1})
        assert len(numerator_h(validate_params([3, 5, 7]))) in (4, 6)

    def test_makes_no_dense_product(self, monkeypatch):
        def no_product(table, exponents):
            raise AssertionError("numerator_h multiplied a dense table by binomials")

        monkeypatch.setattr(dp, "multiply_binomials", no_product)
        monkeypatch.setattr("frobgen.genfun.multiply_binomials", no_product, raising=False)
        assert numerator_h(validate_params([3, 5])) == IntPoly.one_minus_pow(15)
        assert numerator_h(validate_params([12, 21, 28])) == IntPoly({0: 1, 84: -2, 168: 1})
        assert numerator_h(validate_params([3, 3, 5])) == IntPoly({0: 1, 3: -1, 15: -1, 18: 1})
        params = validate_params([4, 4, 6, 9])
        assert numerator_h(params) == _reference_h(params)

    @given(coin_set())
    @example((1,))
    @example((3, 3, 5))
    @example((12, 21, 28))
    @example((1, 5, 9))
    @example((4, 4, 6, 9))
    def test_apery_numerator_matches_the_reference(self, denoms):
        # repeated coins and a coin of 1 included: h against the identity,
        # with and without a given gap set, and h / prod_i (1 - z^(a_i))
        # re-expanded to the gap indicator up to g_0 + sum(a_i)
        params = validate_params(list(denoms))
        gaps = enumerate_exact_k(params, 0)
        h = numerator_h(params)
        assert h == _reference_h(params)
        assert numerator_h(params, gaps) == h
        bound = (gaps.elements[-1] if gaps.elements else -1) + sum(denoms)
        gap_set = set(gaps.elements)
        expected = [0 if j in gap_set else 1 for j in range(bound + 1)]
        assert rational_series(h, params, bound) == expected

    def test_series_bound_refused_before_allocating(self, monkeypatch):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "100")
        h = IntPoly.one_minus_pow(15)
        params = validate_params([3, 5])
        assert len(rational_series(h, params, 100)) == 101
        tracemalloc.start()
        try:
            with pytest.raises(BoundTooLarge):
                rational_series(h, params, 1_000_000)  # 8 MB of list if allocated
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_series_reexpansion(self):
        params = validate_params([4, 6, 9])
        h = numerator_h(params)
        gaps = enumerate_exact_k(params, 0)
        bound = gaps.elements[-1] + sum(params)
        series = rational_series(h, params, bound)
        gap_set = set(gaps.elements)
        assert all(v == (0 if j in gap_set else 1) for j, v in enumerate(series))


    @pytest.mark.parametrize(
        "denoms",
        [(1, 2), (2, 3), (3, 5), (7, 10), (1, 2, 3), (3, 5, 7), (4, 6, 9), (12, 21, 28)],
        ids=lambda d: "-".join(map(str, d)),
    )
    def test_given_gap_set_gives_the_same_h(self, denoms):
        params = validate_params(list(denoms))
        gaps = enumerate_exact_k(params, 0)
        assert numerator_h(params, gaps) == numerator_h(params)

    def test_given_gap_set_skips_the_scan(self, monkeypatch):
        params = validate_params([4, 6, 9])
        gaps = enumerate_exact_k(params, 0)

        def no_scan(*args, **kwargs):
            raise AssertionError("numerator_h scanned for a gap set it was given")

        monkeypatch.setattr("frobgen.genfun.enumerate_exact_k", no_scan)
        assert len(numerator_h(params, gaps)) in (4, 6)

    @pytest.mark.parametrize(
        "bad",
        [
            GapSet(validate_params([3, 7]), 0, (1, 2, 4, 5, 8, 11), complete=True),
            GapSet(validate_params([3, 5]), 1, (0, 3, 5, 6), complete=True),
            GapSet(validate_params([3, 5]), 0, (1, 2, 4), complete=False),
        ],
        ids=["other-params", "k-1", "incomplete"],
    )
    def test_bad_gap_set_raises(self, bad):
        with pytest.raises(ValueError):
            numerator_h(validate_params([3, 5]), bad)

    @pytest.mark.parametrize(
        "gaps,degree",
        [((1, 2, 4, 9), 9), ((1, 2), 4), ((1, 4), 2), ((), 1), ((1, 3, 4), 2)],
        ids=["extra-gap", "missing-last", "missing-middle", "empty", "swapped"],
    )
    def test_wrong_gap_set_raises(self, gaps, degree):
        # certified-looking sets that are not the gaps (1, 2, 4) of (3, 5, 7):
        # the representable-set bitset disagrees with each at the given
        # degree.  "swapped" has as many elements as the bitset has zeros, so
        # only the check that each element reads 0 catches it
        params = validate_params([3, 5, 7])
        with pytest.raises(AssertionError, match=f"at degree {degree}$"):
            numerator_h(params, GapSet(params, 0, gaps, complete=True))

    def test_makes_no_denumerant_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("numerator_h built a denumerant table")

        monkeypatch.setattr(dp, "rep_counts", no_table)
        monkeypatch.setattr(oracle, "rep_table", no_table)
        monkeypatch.setattr("frobgen.genfun.rep_table", no_table, raising=False)
        assert numerator_h(validate_params([1])) == IntPoly.one()
        assert numerator_h(validate_params([3, 5])) == IntPoly.one_minus_pow(15)
        assert numerator_h(validate_params([12, 21, 28])) == IntPoly({0: 1, 84: -2, 168: 1})
        assert numerator_h(validate_params([3, 3, 5])) == IntPoly({0: 1, 3: -1, 15: -1, 18: 1})
        params = validate_params([4, 4, 6, 9])
        assert numerator_h(params) == _reference_h(params)

    @settings(deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=5), st.integers(0, 50))
    @example([1], 50)
    @example([1, 1, 1, 1, 1], 50)
    @example([3, 3, 5], 50)
    @example([4, 4, 6, 9], 50)
    @example([40], 0)
    def test_bitset_marks_the_positive_counts(self, coins, top):
        # coins need not be coprime here: the bitset only sums them
        flags = _representable(tuple(coins), top)
        assert flags == bytes(c > 0 for c in brute_counts(tuple(coins), top))

    @settings(deadline=None)
    @given(coin_set(), st.data())
    def test_mutated_gap_set_raises_at_the_first_difference(self, denoms, data):
        # one gap dropped, or one representable j <= g_0 + sum(a_i) added:
        # the symmetric difference is that one degree
        params = validate_params(list(denoms))
        gaps = enumerate_exact_k(params, 0).elements
        top = (gaps[-1] if gaps else -1) + sum(denoms)
        if gaps and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(gaps) - 1))
            degree, mutated = gaps[i], gaps[:i] + gaps[i + 1 :]
        else:
            gap_set = set(gaps)
            degree = data.draw(st.sampled_from([j for j in range(top + 1) if j not in gap_set]))
            mutated = tuple(sorted(gaps + (degree,)))
        with pytest.raises(AssertionError, match=f"at degree {degree}$"):
            numerator_h(params, GapSet(params, 0, mutated, complete=True))

    @pytest.mark.parametrize("denoms", [(3, 5, 7), (311, 313, 317)], ids=["3-5-7", "311-313-317"])
    def test_ceiling_refuses_before_allocating(self, denoms, monkeypatch):
        # the bound is g_0 + sum(a_i): one under it is refused with nothing
        # table-sized allocated (at 311, 313, 317 the bitset alone is 33,595
        # bytes), and at exactly it h is given
        params = validate_params(list(denoms))
        gaps = enumerate_exact_k(params, 0)
        top = gaps.elements[-1] + sum(denoms)
        expected = numerator_h(params, gaps)
        monkeypatch.setenv("FROBGEN_MAX_BOUND", str(top - 1))
        tracemalloc.start()
        try:
            with pytest.raises(BoundTooLarge):
                numerator_h(params, gaps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096
        monkeypatch.setenv("FROBGEN_MAX_BOUND", str(top))
        assert numerator_h(params, gaps) == expected


class TestDenham:
    def test_redundant_generator(self):
        # 5 = 2 + 3, so the semigroup is that of (2,3): h = (1-z^6)(1-z^5)
        assert denham_term_count(validate_params([2, 3, 5])) == 4
        h = numerator_h(validate_params([2, 3, 5]))
        assert h == IntPoly.one_minus_pow(6) * IntPoly.one_minus_pow(5)

    def test_unit_in_triple(self):
        assert denham_term_count(validate_params([1, 2, 3])) == 4
        h = numerator_h(validate_params([1, 2, 3]))
        assert h == IntPoly.one_minus_pow(2) * IntPoly.one_minus_pow(3)

    def test_genuine_triple(self):
        assert denham_term_count(validate_params([3, 5, 7])) in (4, 6)

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            denham_term_count(validate_params([3, 5]))

    def test_collided_complete_intersections_count_with_multiplicity(self):
        # both relations of <12,21,28> have degree 84 (7*12 = 4*21 = 3*28),
        # so h = (1-z^84)^2 = 1 - 2z^84 + z^168: three distinct monomials
        # but four with multiplicity
        h = numerator_h(validate_params([12, 21, 28]))
        assert h == IntPoly({0: 1, 84: -2, 168: 1})
        assert denham_term_count(validate_params([12, 21, 28])) == 4
        assert denham_term_count(validate_params([6, 10, 15])) == 4
        assert denham_term_count(validate_params([1, 1, 1])) == 4

    def test_random_sample_stays_in_dichotomy(self):
        rng = random.Random(1105)
        seen = set()
        trials = 0
        while trials < 60:
            triple = tuple(sorted(rng.randint(1, 40) for _ in range(3)))
            from math import gcd

            if gcd(gcd(triple[0], triple[1]), triple[2]) != 1:
                continue
            trials += 1
            seen.add(denham_term_count(validate_params(list(triple))))
        assert seen <= {4, 6}
        assert 6 in seen  # the sample is large enough to hit both branches


class TestCyclotomicIdentity:
    @pytest.mark.parametrize("a,b", [(3, 5), (2, 3), (2, 7), (5, 11)])
    def test_prime_pairs(self, a, b):
        assert cyclotomic_identity_check(PairParams(a, b)) is True

    def test_composite_rejected(self):
        with pytest.raises(NotPrime) as exc:
            cyclotomic_identity_check(PairParams(4, 3))
        assert exc.value.value == 4

    def test_equal_primes_rejected(self):
        # gcd(p, p) != 1 so this cannot even form a pair
        from frobgen.errors import NotCoprime

        with pytest.raises(NotCoprime):
            PairParams(3, 3)
