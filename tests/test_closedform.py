from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobgen.closedform import (
    PairParams,
    at_most_stats,
    closed_report,
    count_k,
    frobenius_k,
    power_sum_k,
    structured_r_k,
    sum_k,
)
from frobgen.errors import NonPositive, NotCoprime, UnsupportedK
from frobgen.oracle import enumerate_at_most_k, enumerate_exact_k, validate_params

from helpers import coprime_pairs


class TestPairParams:
    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            PairParams(4, 6)

    def test_non_positive(self):
        with pytest.raises(NonPositive):
            PairParams(0, 5)

    def test_order_immaterial(self):
        assert PairParams(7, 5).as_params().denominations == (5, 7)

    @pytest.mark.parametrize("a,b", [(True, 3), (3, True)])
    def test_bool_rejected(self, a, b):
        with pytest.raises(NonPositive):
            PairParams(a, b)


class TestFrobenius:
    def test_golden(self):
        assert frobenius_k(PairParams(5, 7), 0).value == 23

    def test_unit_pair_empty(self):
        report = frobenius_k(PairParams(1, 7), 0)
        assert report.value is None
        assert report.empty

    def test_k1(self):
        assert frobenius_k(PairParams(3, 5), 1).value == 22

    def test_degenerate_ones(self):
        # literal evaluation stays correct: g_k(1,1) = k - 1
        assert frobenius_k(PairParams(1, 1), 0).value is None
        assert frobenius_k(PairParams(1, 1), 3).value == 2


class TestCount:
    def test_golden(self):
        assert count_k(PairParams(5, 7), 0).value == 12

    def test_k1(self):
        assert count_k(PairParams(3, 5), 1).value == 15

    def test_degenerate_ones(self):
        assert count_k(PairParams(1, 1), 3).value == 1


class TestSum:
    @pytest.mark.parametrize(
        "a,b,k,expected", [(3, 5, 0, 14), (3, 5, 1, 165), (2, 3, 0, 1)]
    )
    def test_examples(self, a, b, k, expected):
        assert sum_k(PairParams(a, b), k).value == expected


class TestPowerSum:
    @pytest.mark.parametrize("m,expected", [(0, 15), (1, 165), (2, 2335)])
    def test_3_5_k1(self, m, expected):
        assert power_sum_k(PairParams(3, 5), 1, m).value == expected

    def test_hand_checked_terms(self):
        # k=1 kills every term with a (k-1) factor; the three survivors are
        # a^2 b1(a) b3(b), 2ab b2(a) b2(b), b^2 b3(a) b1(b) = 810 + 900 + 625
        assert power_sum_k(PairParams(3, 5), 1, 2).value == 810 + 900 + 625

    def test_k0_delegates_for_small_m(self):
        assert power_sum_k(PairParams(3, 5), 0, 0).value == 4
        assert power_sum_k(PairParams(3, 5), 0, 1).value == 14

    def test_k0_m2_unsupported(self):
        with pytest.raises(UnsupportedK):
            power_sum_k(PairParams(3, 5), 0, 2)

    def test_matches_count_and_sum(self):
        for a, b in [(2, 3), (3, 5), (4, 9), (1, 5)]:
            p = PairParams(a, b)
            for k in range(1, 5):
                assert power_sum_k(p, k, 0).value == count_k(p, k).value
                assert power_sum_k(p, k, 1).value == sum_k(p, k).value

    @pytest.mark.parametrize("a,b", [(3, 5), (2, 7), (4, 9)])
    @pytest.mark.parametrize("m", range(5))
    def test_polynomial_in_k(self, a, b, m):
        # for fixed (a, b, m) the power sum is degree m in k with leading
        # coefficient (ab)^(m+1): constant m-th finite difference
        p = PairParams(a, b)
        values = [power_sum_k(p, k, m).value for k in range(1, m + 6)]
        diffs = values
        for _ in range(m):
            diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        assert all(d == factorial(m) * (a * b) ** (m + 1) for d in diffs)


class TestPowerSumHighOrders:
    @given(st.sampled_from(coprime_pairs(15)), st.integers(1, 3), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, pair, k, m):
        exact = enumerate_exact_k(validate_params(list(pair)), k)
        p = PairParams(*pair)
        assert [power_sum_k(p, k, i).value for i in range(m + 1)] == exact.power_sums(m)


class TestAtMost:
    def test_3_5_k0(self):
        g, c, s = at_most_stats(PairParams(3, 5), 0)
        assert (g.value, c.value, s.value) == (7, 4, 14)

    def test_3_5_k1(self):
        g, c, s = at_most_stats(PairParams(3, 5), 1)
        assert (g.value, c.value, s.value) == (22, 19, 179)

    def test_golden_pair(self):
        g, c, s = at_most_stats(PairParams(5, 7), 0)
        assert (g.value, c.value, s.value) == (23, 12, 114)

    def test_accumulation_of_exact_k(self):
        # c<= and s<= accumulate the exact-k values; g<= equals g_k
        for a, b in [(3, 5), (2, 7), (5, 7)]:
            p = PairParams(a, b)
            for k in range(4):
                g, c, s = at_most_stats(p, k)
                assert c.value == sum(count_k(p, i).value for i in range(k + 1))
                assert s.value == sum(sum_k(p, i).value for i in range(k + 1))
                assert g.value == frobenius_k(p, k).value


class TestClosedReport:
    @pytest.mark.parametrize(
        "stat,m,value",
        [
            ("g", None, 22),
            ("c", None, 15),
            ("s", None, 165),
            ("s^m", 2, 2335),
            ("g<=", None, 22),
            ("c<=", None, 19),
            ("s<=", None, 179),
        ],
    )
    def test_each_name(self, stat, m, value):
        report = closed_report(PairParams(3, 5), stat, 1, m)
        assert (report.stat, report.params, report.k, report.m) == (stat, (3, 5), 1, m)
        assert (report.value, report.provenance) == (value, "closed-form")

    @pytest.mark.parametrize("stat,m", [("median", None), ("sm", 2), ("s^m", None)])
    def test_unknown_name_or_missing_m(self, stat, m):
        with pytest.raises(ValueError):
            closed_report(PairParams(3, 5), stat, 1, m)


class TestStructured:
    def test_3_5_k1(self):
        gs = structured_r_k(PairParams(3, 5), 1)
        assert len(gs) == 15
        assert gs.elements[0] == 0
        assert gs.elements == enumerate_exact_k(validate_params([3, 5]), 1).elements

    def test_3_5_k2_shifted(self):
        gs = structured_r_k(PairParams(3, 5), 2)
        assert gs.elements[0] == 15
        assert gs.maximum == 37
        r1 = structured_r_k(PairParams(3, 5), 1)
        assert gs.elements == tuple(j + 15 for j in r1.elements)

    def test_ones(self):
        assert structured_r_k(PairParams(1, 1), 1).elements == (0,)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            structured_r_k(PairParams(3, 5), 0)

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 5), (4, 9), (5, 7)])
    def test_every_element_has_exactly_k_reps(self, a, b):
        params = validate_params([a, b])
        for k in (1, 2, 3):
            gs = structured_r_k(PairParams(a, b), k)
            assert gs.elements == enumerate_exact_k(params, k).elements


class TestSweepAgainstOracle:
    @pytest.mark.parametrize("a,b", coprime_pairs(15))
    def test_g_c_s_match_oracle(self, a, b):
        p = PairParams(a, b)
        params = validate_params([a, b])
        for k in range(4):
            exact = enumerate_exact_k(params, k)
            assert frobenius_k(p, k).value == exact.maximum
            assert count_k(p, k).value == len(exact)
            assert sum_k(p, k).value == exact.power_sum(1)

    @pytest.mark.parametrize("a,b", coprime_pairs(12))
    def test_power_sums_match_oracle(self, a, b):
        p = PairParams(a, b)
        params = validate_params([a, b])
        for k in (1, 2, 3):
            exact = enumerate_exact_k(params, k)
            for m in range(7):
                assert power_sum_k(p, k, m).value == exact.power_sum(m)

    @pytest.mark.parametrize("a,b", coprime_pairs(10))
    def test_at_most_matches_oracle(self, a, b):
        p = PairParams(a, b)
        params = validate_params([a, b])
        for k in range(4):
            at_most = enumerate_at_most_k(params, k)
            g, c, s = at_most_stats(p, k)
            assert g.value == at_most.maximum
            assert c.value == len(at_most)
            assert s.value == at_most.power_sum(1)
