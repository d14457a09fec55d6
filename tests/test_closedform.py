import pickle
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobgen import closedform
from frobgen.closedform import (
    PairParams,
    _closed_row,
    _grid_bytes,
    _p_k_bytes,
    _power_sums_by_k,
    _zero_one,
    at_most_stats,
    closed_report,
    count_k,
    frobenius_k,
    power_sum_k,
    power_sums_k,
    structured_r_k,
    sum_k,
)
from frobgen.errors import NonPositive, NotCoprime, UnsupportedK
from frobgen.genfun import p_k_exponents, p_k_poly
from frobgen.oracle import enumerate_at_most_k, enumerate_exact_k, validate_params

from helpers import brute_counts, coprime_pairs


class TestPairParams:
    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            PairParams(4, 6)

    def test_non_positive(self):
        with pytest.raises(NonPositive):
            PairParams(0, 5)

    def test_order_immaterial(self):
        assert PairParams(7, 5).as_params().denominations == (5, 7)

    def test_keeps_its_params(self):
        pair = PairParams(7, 5)
        assert pair.as_params() is pair.as_params()
        assert repr(pair) == "PairParams(a=7, b=5)"
        assert pair == PairParams(7, 5) and hash(pair) == hash(PairParams(7, 5))
        assert pair != PairParams(5, 7)

    @pytest.mark.parametrize("a,b", [(True, 3), (3, True)])
    def test_bool_rejected(self, a, b):
        with pytest.raises(NonPositive):
            PairParams(a, b)

    @pytest.mark.parametrize(
        "a,b,error,field,value",
        [
            (True, 3, NonPositive, "value", True),
            (0, 3, NonPositive, "value", 0),
            (-3, 5, NonPositive, "value", -3),
            (2.5, 3, NonPositive, "value", 2.5),
            (4, 6, NotCoprime, "gcd", 2),
            (3, 3, NotCoprime, "gcd", 3),
        ],
    )
    def test_errors_match_validate_params(self, a, b, error, field, value):
        for build in (PairParams, lambda a, b: validate_params([a, b])):
            with pytest.raises(error) as exc:
                build(a, b)
            got = getattr(exc.value, field)
            assert type(got) is type(value) and got == value


class TestFrobenius:
    def test_golden(self):
        assert frobenius_k(PairParams(5, 7), 0).value == 23

    def test_unit_pair_empty(self):
        report = frobenius_k(PairParams(1, 7), 0)
        assert report.value is None
        assert report.to_json_dict()["empty"]

    def test_unit_pair_empty_csv(self):
        report = frobenius_k(PairParams(1, 7), 0)
        assert report.to_csv().splitlines() == [
            "stat,params,k,m,value,provenance",
            "g,1 7,0,,-1,closed-form",
        ]

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


class TestPairState:
    """A PairParams is its two checked coins: a used instance gives what
    fresh ones give, and keeps nothing beyond a, b and their Params."""

    @given(
        pair=st.sampled_from(coprime_pairs(20)),
        steps=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 9)), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_reused_instance_matches_fresh_ones(self, pair, steps):
        # the fixed tail takes m both up and down on one instance
        reused = PairParams(*pair)
        for k, m in [*steps, (2, 3), (1, 7), (3, 0), (5, 9), (4, 2), (1, 4)]:
            assert p_k_poly(reused, k) == p_k_poly(PairParams(*pair), k)
            assert power_sums_k(reused, k, m) == power_sums_k(PairParams(*pair), k, m)
            assert power_sum_k(reused, k, m) == power_sum_k(PairParams(*pair), k, m)
            assert _power_sums_by_k(reused, k, m) == _power_sums_by_k(PairParams(*pair), k, m)

    def test_returned_sums_are_the_callers(self):
        pair = PairParams(3, 5)
        power_sums_k(pair, 1, 4)[2] += 1
        power_sums_k(pair, 2, 4)[0] = 0
        _power_sums_by_k(pair, 2, 4)[0][1] += 1
        assert power_sums_k(pair, 1, 4) == power_sums_k(PairParams(3, 5), 1, 4)
        assert power_sum_k(pair, 1, 2).value == 2335

    def test_values_unchanged_once_built(self):
        used = PairParams(7, 5)
        fresh = PairParams(7, 5)
        p_k_poly(used, 3)
        power_sums_k(used, 2, 6)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "PairParams(a=7, b=5)"
        back = pickle.loads(pickle.dumps(used))
        assert back == used and hash(back) == hash(used) and repr(back) == repr(used)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert power_sums_k(back, 2, 6) == power_sums_k(used, 2, 6)
        assert vars(back) == vars(fresh) and back.as_params() == fresh.as_params()

    def test_use_keeps_nothing(self):
        p = PairParams(7, 5)
        for k in range(4):
            _p_k_bytes(p, k)
        power_sums_k(p, 2, 6)
        _power_sums_by_k(p, 3, 6)
        p_k_exponents(p, 3)
        structured_r_k(p, 2)
        assert set(vars(p)) == {"a", "b", "_params"}


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
        # the binomial terms t = 2, 1, 0 of R_1's order-2 sum:
        # a^2 S_2(b) S_0(a), 2 a S_1(b) b S_1(a), S_0(b) b^2 S_2(a) = 810 + 900 + 625
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
    @given(st.sampled_from(coprime_pairs(15)), st.integers(1, 4), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, pair, k, m):
        # the single orders and the one-table form against the oracle's sums
        exact = enumerate_exact_k(validate_params(list(pair)), k)
        p = PairParams(*pair)
        assert [power_sum_k(p, k, i).value for i in range(m + 1)] == exact.power_sums(m)
        assert power_sums_k(p, k, m) == exact.power_sums(m)


class TestPowerSumsTable:
    @given(st.sampled_from(coprime_pairs(40)), st.integers(1, 8), st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_single_order_is_the_tables(self, pair, k, m):
        # compute's s^m against the table verify checks, stepped by ab
        p = PairParams(*pair)
        assert power_sum_k(p, k, m).value == _power_sums_by_k(p, k, m)[k - 1][m]

    def test_order_is_immaterial(self):
        assert power_sums_k(PairParams(5, 3), 2, 6) == power_sums_k(PairParams(3, 5), 2, 6)

    @pytest.mark.parametrize("k,m", [(0, 2), (1, -1), (-1, 0)])
    def test_refused(self, k, m):
        with pytest.raises(ValueError):
            power_sums_k(PairParams(3, 5), k, m)


class TestPowerSumsByK:
    """The table of every k's power sums, each k stepped from the last by ab."""

    @given(st.sampled_from(coprime_pairs(40)), st.integers(0, 8), st.integers(0, 9))
    @settings(max_examples=80, deadline=None)
    def test_is_power_sums_k_at_every_k(self, pair, kmax, m):
        table = _power_sums_by_k(PairParams(*pair), kmax, m)
        fresh = PairParams(*pair)
        assert table == [power_sums_k(fresh, k, m) for k in range(1, kmax + 1)]

    @given(st.sampled_from(coprime_pairs(8)), st.integers(1, 5), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, pair, kmax, m):
        a, b = pair
        counts = brute_counts(pair, (kmax + 1) * a * b)  # past g_kmax
        assert _power_sums_by_k(PairParams(a, b), kmax, m) == [
            [sum(j**i for j, c in enumerate(counts) if c == k) for i in range(m + 1)]
            for k in range(1, kmax + 1)
        ]


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


    @given(pair=st.sampled_from(coprime_pairs(40)))
    @settings(max_examples=60, deadline=None)
    def test_running_totals_of_brute_counts(self, pair):
        a, b = pair
        counts = brute_counts(pair, 7 * a * b)  # R_6 ends at 7ab - a - b
        p = PairParams(a, b)
        g_le, c_le, s_le = None, 0, 0
        for k in range(7):
            exact = [j for j, c in enumerate(counts) if c == k]
            if exact:
                g_le = max(exact) if g_le is None else max(g_le, max(exact))
            c_le += len(exact)
            s_le += sum(exact)
            g, c, s = at_most_stats(p, k)
            assert (g.value, c.value, s.value) == (g_le, c_le, s_le)
            assert (g.stat, c.stat, s.stat) == ("g<=", "c<=", "s<=")


    @pytest.mark.parametrize("a,b", [(1, 1), (1, 4), (3, 5), (7, 10)])
    def test_reports_wrap_the_integers(self, a, b):
        p = PairParams(a, b)
        for k in range(4):
            row = _closed_row(p, k)
            assert tuple(r.value for r in at_most_stats(p, k)) == row[3:]
            names = ("g", "c", "s", "g<=", "c<=", "s<=")
            assert tuple(closed_report(p, stat, k).value for stat in names) == row


class TestGridBytes:
    @pytest.mark.parametrize(
        "coeffs,ones,expected",
        [
            (b"", 0, True),
            (b"\x00\x01\x00\x00", 1, True),
            (b"\x01\x00\x01", 2, True),
            (b"\x01\x00\x01", 3, False),
            (b"\x01\x02\x01", 2, False),
            (b"\x01\x02", 1, False),
            (b"\x00\xff", 0, False),
        ],
    )
    def test_zero_one(self, coeffs, ones, expected):
        assert _zero_one(coeffs, ones) is expected

    @pytest.mark.parametrize(
        "fault",
        [
            lambda real: real.replace(b"\x01", b"\x02", 1),  # a coefficient 2
            lambda real: real[:-1] + b"\x00",  # two sums on one exponent
        ],
        ids=("coefficient-2", "collision"),
    )
    def test_strict_accessor_refuses_what_verify_reads(self, fault, monkeypatch):
        monkeypatch.setattr(closedform, "_grid_bytes", lambda p: fault(_grid_bytes(p)))
        p = PairParams(3, 5)
        with pytest.raises(AssertionError, match="outside"):
            _p_k_bytes(p, 1)
        with pytest.raises(AssertionError, match="outside"):
            structured_r_k(p, 2)
        assert _p_k_bytes(p, 1, strict=False) == (0, fault(_grid_bytes(p)))

    def test_laid_out_bytes_are_kept_as_laid_out(self):
        # (2, 4) is not coprime: its 8 sums {2i + 4j} take 6 exponents, and
        # the bytes mark those 6 with no check
        p = PairParams(3, 5)
        object.__setattr__(p, "a", 2)
        object.__setattr__(p, "b", 4)
        assert _p_k_bytes(p, 1, strict=False) == (0, b"\x01\x00" * 5 + b"\x01")
        with pytest.raises(AssertionError, match="outside"):
            _p_k_bytes(p, 1)


# the refusal messages of the closed entries
K_NEGATIVE = "k must be >= 0"
K_OR_M_NEGATIVE = "k and m must be >= 0"
NO_M = "s^m needs an order m"
K0_M2 = "no closed form implemented for power sums with k=0, m=2; use the oracle"


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

    @pytest.mark.parametrize(
        "call,error,message",
        [
            pytest.param(lambda p: frobenius_k(p, -1), ValueError, K_NEGATIVE, id="frobenius_k-k"),
            pytest.param(lambda p: count_k(p, -1), ValueError, K_NEGATIVE, id="count_k-k"),
            pytest.param(lambda p: sum_k(p, -1), ValueError, K_NEGATIVE, id="sum_k-k"),
            pytest.param(
                lambda p: at_most_stats(p, -1), ValueError, K_NEGATIVE, id="at_most_stats-k"
            ),
            pytest.param(
                lambda p: power_sum_k(p, -1, 1), ValueError, K_OR_M_NEGATIVE, id="power_sum_k-k"
            ),
            pytest.param(
                lambda p: power_sum_k(p, 1, -1), ValueError, K_OR_M_NEGATIVE, id="power_sum_k-m"
            ),
            pytest.param(
                lambda p: power_sum_k(p, 0, 2), UnsupportedK, K0_M2, id="power_sum_k-k0-m2"
            ),
            *[
                pytest.param(
                    lambda p, stat=stat: closed_report(p, stat, -1),
                    ValueError,
                    K_NEGATIVE,
                    id=f"closed_report-{stat}-k",
                )
                for stat in ("g", "c", "s", "g<=", "c<=", "s<=")
            ],
            pytest.param(
                lambda p: closed_report(p, "s^m", -1, 1),
                ValueError,
                K_OR_M_NEGATIVE,
                id="closed_report-s^m-k",
            ),
            pytest.param(
                lambda p: closed_report(p, "s^m", 1, -1),
                ValueError,
                K_OR_M_NEGATIVE,
                id="closed_report-s^m-m",
            ),
            # a missing m is refused before k is read
            pytest.param(
                lambda p: closed_report(p, "s^m", -1), ValueError, NO_M, id="closed_report-no-m"
            ),
            # an unknown name is refused before k (and m) are read
            pytest.param(
                lambda p: closed_report(p, "median", -1, -1),
                ValueError,
                "unknown statistic 'median'",
                id="closed_report-unknown",
            ),
            pytest.param(
                lambda p: closed_report(p, "s^m", 0, 2),
                UnsupportedK,
                K0_M2,
                id="closed_report-k0-m2",
            ),
        ],
    )
    def test_refusal(self, call, error, message):
        with pytest.raises(error) as info:
            call(PairParams(3, 5))
        assert type(info.value) is error
        assert str(info.value) == message


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


    @pytest.mark.parametrize("a,b", coprime_pairs(12))
    def test_is_the_support_of_p_k(self, a, b):
        for pair in (PairParams(a, b), PairParams(b, a)):
            for k in (1, 2, 3):
                assert structured_r_k(pair, k).elements == p_k_poly(pair, k).support()


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
