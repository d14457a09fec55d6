import json
import os
import tracemalloc
from functools import reduce
from itertools import chain
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobgen import dp, oracle
from frobgen.closedform import PairParams, _p_k_bytes, structured_r_k
from frobgen.errors import (
    BoundTooLarge,
    EmptyList,
    IncompleteSet,
    Indeterminate,
    InfiniteSet,
    NonPositive,
    NotCoprime,
    ValidationError,
)
from frobgen.oracle import (
    MAX_BOUND_ENV,
    GapSet,
    Params,
    _run_set,
    enumerate_at_most_k,
    enumerate_by_count,
    enumerate_exact_k,
    oracle_report,
    oracle_stats,
    rep_table,
    validate_params,
)

from helpers import brute_counts, coprime_pairs


class TestValidateParams:
    def test_pair(self):
        assert validate_params([5, 7]).denominations == (5, 7)

    def test_sorts_input(self):
        assert validate_params([7, 5, 11]).denominations == (5, 7, 11)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime) as exc:
            validate_params([4, 6])
        assert exc.value.gcd == 2

    def test_unit_coin(self):
        assert validate_params([1]).denominations == (1,)

    def test_empty(self):
        with pytest.raises(EmptyList):
            validate_params([])

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive(self, bad):
        with pytest.raises(NonPositive) as exc:
            validate_params([bad, 3])
        assert exc.value.value == bad

    def test_bool_rejected(self):
        with pytest.raises(ValidationError):
            validate_params([True, 2])
        with pytest.raises(ValidationError):
            Params((True, 2))

    def test_repeats_allowed(self):
        assert validate_params([1, 1]).denominations == (1, 1)

    def test_any_iterable(self):
        # the list is read once: a one-shot iterator is not mistaken for empty
        assert validate_params(iter([5, 3])).denominations == (3, 5)
        assert validate_params(a for a in (7, 5, 11)).denominations == (5, 7, 11)

    def test_generator_not_coprime(self):
        with pytest.raises(NotCoprime) as exc:
            validate_params(a for a in (4, 6))
        assert exc.value.gcd == 2

    def test_params_sorts_itself(self):
        assert Params((5, 3)) == Params((3, 5))
        assert Params([7, 5, 11]).denominations == (5, 7, 11)
        assert hash(Params((5, 3))) == hash(Params((3, 5)))

    @pytest.mark.parametrize(
        "raw,error",
        [((), EmptyList), ((0, 3), NonPositive), ((3, 2.5), NonPositive), ((6, 4), NotCoprime)],
    )
    def test_params_is_the_validator(self, raw, error):
        for build in (Params, validate_params):
            with pytest.raises(error):
                build(raw)


class TestRepTable:
    def test_golden_largest_gap(self):
        table = rep_table(validate_params([5, 7]), 23)
        assert table[23] == 0

    def test_empty_representation(self):
        for params in ([5, 7], [2, 3, 11], [1]):
            assert rep_table(validate_params(params), 0)[0] == 1

    def test_two_representations(self):
        table = rep_table(validate_params([3, 5]), 15)
        assert table[15] == 2

    @pytest.mark.parametrize("denoms", [(5, 7), (2, 3, 7), (1, 1), (4, 9, 11)])
    def test_matches_bruteforce(self, denoms):
        params = validate_params(list(denoms))
        assert rep_table(params, 45) == tuple(brute_counts(denoms, 45))

    def test_bound_too_large(self, monkeypatch):
        monkeypatch.setenv(MAX_BOUND_ENV, "999")
        with pytest.raises(BoundTooLarge):
            rep_table(validate_params([5, 7]), 1000)

    def test_env_ceiling(self, monkeypatch):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "50")
        with pytest.raises(BoundTooLarge):
            rep_table(validate_params([5, 7]), 51)


class TestCountLaws:
    @pytest.mark.parametrize("a,b", [(2, 3), (3, 5), (5, 7), (4, 9), (1, 6)])
    def test_shift_law(self, a, b):
        # r(j) <= 1 below ab; r(j) = r(j - ab) + 1 from ab on
        bound = 5 * a * b
        counts = rep_table(validate_params([a, b]), bound)
        for j in range(a * b):
            assert counts[j] <= 1
        for j in range(a * b, bound + 1):
            assert counts[j] == counts[j - a * b] + 1

    @given(
        st.tuples(st.integers(1, 20), st.integers(1, 20)).filter(
            lambda t: gcd(*t) == 1
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_under_one_more_coin(self, pair):
        params = validate_params(list(pair))
        bound = 3 * pair[0] * pair[1] + 10
        counts = rep_table(params, bound)
        for a in params:
            for j in range(bound - a + 1):
                assert counts[j + a] >= counts[j]

    @pytest.mark.parametrize("a,b", [(3, 5), (5, 7), (2, 9)])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_membership_shift_equivalence(self, a, b, k):
        # j in S_k  <=>  j - ab in S_{k-1}, for j >= ab
        bound = 6 * a * b
        counts = rep_table(validate_params([a, b]), bound)
        for j in range(a * b, bound + 1):
            assert (counts[j] > k) == (counts[j - a * b] > k - 1)


class TestEnumerateExact:
    def test_golden_gaps(self):
        gaps = enumerate_exact_k(validate_params([5, 7]), 0)
        assert len(gaps) == 12
        assert gaps.maximum == 23
        assert gaps.complete

    def test_r1_of_3_5(self):
        got = enumerate_exact_k(validate_params([3, 5]), 1)
        # product structure: {0, 3, 6, 9, 12} + {0, 5, 10}
        expected = tuple(sorted(i * 3 + j * 5 for i in range(5) for j in range(3)))
        assert got.elements == expected
        assert len(got) == 15
        assert got.maximum == 22

    def test_unit_coin_analytics(self):
        one = validate_params([1])
        assert enumerate_exact_k(one, 0).elements == ()
        assert enumerate_exact_k(one, 0).complete
        assert enumerate_exact_k(one, 3).elements == ()
        assert enumerate_exact_k(one, 3).complete
        with pytest.raises(InfiniteSet):
            enumerate_exact_k(one, 1)

    def test_two_unit_coins(self):
        # r(j) = j + 1, so the only integer with exactly 3 representations is 2
        got = enumerate_exact_k(validate_params([1, 1]), 3)
        assert got.elements == (2,)
        assert got.complete

    def test_bounded_mode_partial(self):
        got = enumerate_exact_k(validate_params([5, 7]), 0, bound=10)
        assert got.elements == (1, 2, 3, 4, 6, 8, 9)
        assert not got.complete

    def test_bounded_mode_complete_when_window_fits(self):
        got = enumerate_exact_k(validate_params([5, 7]), 0, bound=35)
        assert got.complete
        assert got.maximum == 23

    def test_every_element_has_exactly_k_counts(self):
        for a, b in [(3, 5), (4, 7), (2, 11)]:
            for k in range(4):
                gs = enumerate_exact_k(validate_params([a, b]), k)
                counts = brute_counts((a, b), max(gs.elements, default=0))
                for j in gs.elements:
                    assert counts[j] == k

    def test_three_denominations(self):
        gaps = enumerate_exact_k(validate_params([3, 5, 7]), 0)
        assert gaps.elements == (1, 2, 4)
        assert gaps.complete

    def test_determinism(self):
        params = validate_params([4, 9])
        assert enumerate_exact_k(params, 2) == enumerate_exact_k(params, 2)


class TestEnumerateAtMost:
    def test_at_most_zero_equals_exact_zero(self):
        params = validate_params([5, 7])
        assert (
            enumerate_at_most_k(params, 0).elements
            == enumerate_exact_k(params, 0).elements
        )

    def test_union_of_r0_and_r1(self):
        params = validate_params([3, 5])
        got = enumerate_at_most_k(params, 1)
        r0 = enumerate_exact_k(params, 0).elements
        r1 = enumerate_exact_k(params, 1).elements
        assert got.elements == tuple(sorted(set(r0) | set(r1)))
        assert len(got) == 19
        assert got.maximum == 22

    def test_small_pair(self):
        got = enumerate_at_most_k(validate_params([2, 3]), 0)
        assert got.elements == (1,)
        assert got.complete

    def test_unit_coin_infinite(self):
        with pytest.raises(InfiniteSet):
            enumerate_at_most_k(validate_params([1]), 1)


class TestOracleStats:
    def test_golden(self):
        gaps = enumerate_exact_k(validate_params([5, 7]), 0)
        g, c, s = oracle_stats(gaps, m=1)
        assert (g.stat, g.value, g.provenance) == ("g", 23, "oracle")
        assert (c.stat, c.value) == ("c", 12)
        assert s.stat == "s"

    def test_empty_set(self):
        gaps = enumerate_exact_k(validate_params([1]), 0)
        g, c, s = oracle_stats(gaps, m=1)
        assert g.value is None and g.to_json_dict()["empty"]
        assert c.value == 0
        assert s.value == 0

    def test_power_sum(self):
        r1 = enumerate_exact_k(validate_params([3, 5]), 1)
        report = oracle_stats(r1, m=2)[2]
        assert report.value == 2335
        assert report.m == 2

    def test_incomplete_set_refuses_max(self):
        partial = enumerate_exact_k(validate_params([5, 7]), 0, bound=10)
        with pytest.raises(IncompleteSet):
            oracle_stats(partial, m=1)

    @pytest.mark.parametrize("k,m", [(2, -1), (1, -2)])
    def test_negative_m_rejected(self, k, m):
        # R_1(3,5,7) holds 0, where 0**m with m < 0 divides by zero
        gaps = enumerate_exact_k(validate_params([3, 5, 7]), k)
        with pytest.raises(ValueError, match="m must be >= 0"):
            gaps.power_sum(m)
        with pytest.raises(ValueError, match="m must be >= 0"):
            oracle_stats(gaps, m=m)


class TestOracleReport:
    # R_0(3,5) and the at-most-1 set of (2,3), whose counts are 1,0,1,1,1,1,2,1,2,...
    EXACT = GapSet(Params((3, 5)), 0, (1, 2, 4, 7), complete=True)
    AT_MOST = GapSet(Params((2, 3)), 1, (0, 1, 2, 3, 4, 5, 7), complete=True)

    @pytest.mark.parametrize(
        "stat,m,value",
        [("g", None, 7), ("c", None, 4), ("s", None, 14), ("s^m", 0, 4), ("s^m", 2, 70)],
    )
    def test_exact_names(self, stat, m, value):
        report = oracle_report(self.EXACT, stat, m)
        assert (report.stat, report.params, report.k, report.m) == (stat, (3, 5), 0, m)
        assert (report.value, report.provenance) == (value, "oracle")

    @pytest.mark.parametrize("stat,value", [("g<=", 7), ("c<=", 7), ("s<=", 22)])
    def test_at_most_names(self, stat, value):
        assert enumerate_at_most_k(validate_params([2, 3]), 1) == self.AT_MOST
        report = oracle_report(self.AT_MOST, stat)
        assert (report.stat, report.params, report.k, report.m) == (stat, (2, 3), 1, None)
        assert (report.value, report.provenance) == (value, "oracle")

    def test_m_kept_only_for_power_sums(self):
        assert oracle_report(self.EXACT, "c", 3).m is None

    @pytest.mark.parametrize("stat,m", [("median", None), ("sm", 2), ("s^m", None)])
    def test_unknown_name_or_missing_m(self, stat, m):
        with pytest.raises(ValueError):
            oracle_report(self.EXACT, stat, m)

    @pytest.mark.parametrize("stat", ["g", "g<="])
    def test_maximum_needs_complete_set(self, stat):
        partial = enumerate_exact_k(validate_params([5, 7]), 0, bound=10)
        with pytest.raises(IncompleteSet):
            oracle_report(partial, stat)
        assert oracle_report(partial, "c").value == 7


class TestGapSetSerialization:
    def test_json_roundtrip(self):
        gs = enumerate_exact_k(validate_params([3, 5]), 1)
        again = GapSet.from_json(gs.to_json())
        assert again == gs

    def test_json_reemit_identity(self):
        gs = enumerate_exact_k(validate_params([3, 5]), 1)
        text = gs.to_json()
        assert GapSet.from_json(text).to_json() == text

    @given(
        params=st.sampled_from([(3, 5), (1,), (6, 10, 15), (2, 3, 5, 7)]),
        k=st.integers(min_value=0, max_value=10**40),
        elements=st.lists(st.integers(min_value=0, max_value=10**40), unique=True),
        complete=st.booleans(),
    )
    @example(params=(3, 5), k=0, elements=[], complete=True)
    @example(params=(3, 5), k=0, elements=[], complete=False)
    @example(params=(2, 3), k=10**299, elements=[7, 10**299, 10**300 - 1], complete=True)
    def test_json_is_the_json_dumps_form(self, params, k, elements, complete):
        # to_json writes its text directly; json.dumps gives the same bytes
        gs = GapSet(Params(params), k, sorted(elements), complete)
        dumped = json.dumps(
            {
                "params": list(gs.params.denominations),
                "k": gs.k,
                "complete": gs.complete,
                "elements": [str(j) for j in gs.elements],
            },
            separators=(",", ":"),
        )
        assert gs.to_json() == dumped

    def test_csv(self):
        gs = enumerate_exact_k(validate_params([3, 5]), 0)
        assert gs.to_csv() == "1\n2\n4\n7\n"

    @given(elements=st.lists(st.integers(min_value=0, max_value=10**40), unique=True))
    @example(elements=[])
    @example(elements=[0])
    @example(elements=[3, 10**300])
    def test_csv_and_json_are_the_join_forms(self, elements):
        # both are written through one % template over the elements
        gs = GapSet(Params((3, 5)), 2, sorted(elements), True)
        assert gs.to_csv() == "".join(f"{j}\n" for j in gs.elements)
        joined = '"%s"' % '","'.join(map(str, gs.elements)) if gs.elements else ""
        assert gs.to_json() == (
            f'{{"params":[3,5],"k":2,"complete":true,"elements":[{joined}]}}'
        )

    def test_elements_must_increase(self):
        with pytest.raises(ValueError):
            GapSet(Params((2, 3)), 0, (3, 1), True)

    @pytest.mark.parametrize(
        "elements", [(1, 1), (0, 2, 2), (0, 3, 1)], ids=["equal", "equal-tail", "late-descent"]
    )
    def test_equal_or_late_descent_refused(self, elements):
        with pytest.raises(ValueError):
            GapSet(Params((2, 3)), 0, elements, True)

    @pytest.mark.parametrize("elements", [(), (5,)], ids=["empty", "one"])
    def test_short_sets_accepted(self, elements):
        assert GapSet(Params((2, 3)), 0, elements, True).elements == elements

    @pytest.mark.parametrize(
        "k,complete",
        [(0, '"no"'), (-4, "true"), ('"zero"', "true"), ("true", "true")],
        ids=["complete-not-bool", "k-negative", "k-not-int", "k-bool"],
    )
    def test_bad_k_or_complete_refused(self, k, complete):
        text = f'{{"params":[3,5],"k":{k},"complete":{complete},"elements":["7"]}}'
        with pytest.raises(ValueError):
            GapSet.from_json(text)


class TestGapSetElements:
    """GapSet stores its elements as a tuple, whatever iterable they came in."""

    BUILT = GapSet(Params((3, 5)), 0, (1, 2, 4, 7), True)

    @pytest.mark.parametrize(
        "make", [lambda: [1, 2, 4, 7], lambda: (j for j in (1, 2, 4, 7))], ids=["list", "generator"]
    )
    def test_any_iterable_stored_as_tuple(self, make):
        gs = GapSet(Params((3, 5)), 0, make(), True)
        assert gs == self.BUILT
        assert hash(gs) == hash(self.BUILT)
        assert len(gs) == 4
        assert gs.to_json() == '{"params":[3,5],"k":0,"complete":true,"elements":["1","2","4","7"]}'

    def test_decreasing_generator_refused(self):
        with pytest.raises(ValueError):
            GapSet(Params((3, 5)), 0, (j for j in (7, 4, 2, 1)), True)

    @pytest.mark.parametrize(
        "elements", [[1.5, 2.5], [-3, True], [0, True]], ids=["floats", "negative", "bool"]
    )
    def test_non_int_or_negative_refused(self, elements):
        with pytest.raises(ValueError, match="integers >= 0"):
            GapSet(Params((3, 5)), 0, elements, True)

    def test_from_json_refuses_negative(self):
        text = '{"params":[3,5],"k":0,"complete":true,"elements":["-3","1"]}'
        with pytest.raises(ValueError, match="integers >= 0"):
            GapSet.from_json(text)


class TestPowerSums:
    @given(st.sets(st.integers(0, 10**6), max_size=40), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_against_brute_force(self, js, mmax):
        gs = GapSet(Params((2, 3)), 0, tuple(sorted(js)), True)
        brute = [sum(j**m for j in gs.elements) for m in range(mmax + 1)]
        assert gs.power_sums(mmax) == brute
        assert [gs.power_sum(m) for m in range(mmax + 1)] == brute

    @pytest.mark.parametrize(
        "elements,sums",
        [((), [0] * 9), ((0,), [1] + [0] * 8)],  # 0**0 == 1
        ids=["empty", "zero"],
    )
    def test_empty_set_and_zero(self, elements, sums):
        gs = GapSet(Params((2, 3)), 0, elements, True)
        assert gs.power_sums(8) == sums
        assert [gs.power_sum(m) for m in range(9)] == sums

    def test_negative_order_refused(self):
        gs = GapSet(Params((2, 3)), 0, (1, 2), True)
        with pytest.raises(ValueError, match="m must be >= 0"):
            gs.power_sums(-1)

    @pytest.mark.parametrize("mmax", range(10))
    @given(
        elements=st.one_of(
            st.just(()),
            st.integers(0, 10**4).map(lambda j: (j,)),
            st.sets(st.integers(0, 10**4), max_size=30).map(sorted),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_every_order_up_to_9(self, mmax, elements):
        # orders past (mmax + 1) // 2 come from products of two built rows
        gs = GapSet(Params((2, 3)), 0, elements, True)
        assert gs.power_sums(mmax) == [
            sum(j**m for j in elements) for m in range(mmax + 1)
        ]


class TestSweepAgainstBruteForce:
    @pytest.mark.parametrize("a,b", coprime_pairs(12))
    def test_exact_sets_from_recounts(self, a, b):
        params = validate_params([a, b])
        for k in (0, 1, 2):
            gs = enumerate_exact_k(params, k)
            top = max(gs.elements, default=0)
            counts = brute_counts((a, b), top + a * b)
            expected = tuple(j for j, c in enumerate(counts) if c == k)
            # beyond top + ab there can be no more exactly-k integers
            assert gs.elements == tuple(j for j in expected if j <= top)
            assert all(counts[j] > k for j in range(top + 1, top + a * b))


def _first_window(counts, width, k):
    """Start of the first run of `width` counts all > k, by direct search."""
    for start in range(len(counts) - width + 1):
        if all(c > k for c in counts[start:start + width]):
            return start
    return None


def _window_and_counts(denoms, k):
    """First window start, with brute counts reaching twice the window end."""
    bound = 16
    while True:
        counts = brute_counts(denoms, bound)
        start = _first_window(counts, denoms[0], k)
        if start is not None and 2 * (start + denoms[0] - 1) <= bound:
            return start, counts
        bound *= 2


def _rep_reference(denoms, k, at_most, bound=None):
    """(elements, complete) by dp.rep_counts: the scan up to `bound`, or
    without one up to the first window of a_1 counts > k."""
    size = 1024 if bound is None else bound + 1
    while True:
        counts = dp.rep_counts(denoms, size - 1)
        run, end = 0, None
        for j, c in enumerate(counts):
            run = run + 1 if c > k else 0
            if run == denoms[0]:
                end = j
                break
        if end is not None or bound is not None:
            break
        size *= 2
    stop = size - 1 if end is None else end
    member = (lambda c: c <= k) if at_most else (lambda c: c == k)
    return tuple(j for j in range(stop + 1) if member(counts[j])), end is not None


# Scans that cross block edges (the first block holds at most FIRST_MAX
# counts, later ones BLOCK), coins longer than a block, and counts far
# above k + 1 inside a block.
FIRST, BLOCK = oracle.FIRST_MAX, oracle.BLOCK
BLOCK_EDGES = [1023, 1024, 1025, 2 * 1024 + 1, FIRST - 1, FIRST, FIRST + 1,
               FIRST + BLOCK, FIRST + BLOCK + 1]
BLOCK_CASES = [
    ((7, 11), 200),  # the window ends near 15,470, nine blocks in
    ((7, 1500), 1),  # a coin longer than a block
    ((1009, 1013, 1019), 0),
    ((2, 4, 6, 8, 10001), 0),  # even counts reach 10^11 before odd ones pass k
    ((2, 4, 6, 8, 10001), 3),
    ((1, 2, 3, 4, 5), 2),
]


@st.composite
def coin_sets(draw):
    n = draw(st.integers(2, 5))
    top = {2: 14, 3: 10, 4: 9, 5: 8}[n]
    denoms = draw(
        st.lists(st.integers(1, top), min_size=n, max_size=n).filter(
            lambda d: reduce(gcd, d) == 1
        )
    )
    return tuple(sorted(denoms))


class TestStreaming:
    @given(coin_sets(), st.integers(0, 8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_counts(self, denoms, k, at_most):
        fn = enumerate_at_most_k if at_most else enumerate_exact_k
        gs = fn(validate_params(list(denoms)), k)
        start, counts = _window_and_counts(denoms, k)
        end = start + denoms[0] - 1
        member = (lambda c: c <= k) if at_most else (lambda c: c == k)
        assert gs.complete
        assert gs.elements == tuple(j for j in range(end + 1) if member(counts[j]))
        # certificate soundness: nothing in the set from the window to twice its end
        assert not any(member(counts[j]) for j in range(start, 2 * end + 1))

    @pytest.mark.parametrize("at_most", [False, True])
    @pytest.mark.parametrize("denoms, k", BLOCK_CASES)
    def test_matches_rep_counts_across_blocks(self, denoms, k, at_most):
        fn = enumerate_at_most_k if at_most else enumerate_exact_k
        gs = fn(validate_params(list(denoms)), k)
        assert (gs.elements, gs.complete) == _rep_reference(denoms, k, at_most)

    def test_window_far_below_old_first_guess(self):
        # (k+1)*a_1*a_n = 11.2M, above the default cap; the window ends near 32,354
        params = validate_params([31, 47, 60])
        gs = enumerate_exact_k(params, 6000)
        assert gs.complete
        assert gs.maximum == 32323
        counts = rep_table(params, 32323 + 2 * 31)
        assert counts[32323] == 6000
        assert gs.elements == tuple(j for j, c in enumerate(counts) if c == 6000)

    def test_indeterminate_past_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_BOUND_ENV, "20")
        with pytest.raises(Indeterminate) as exc:
            enumerate_exact_k(validate_params([5, 7, 9]), 3)
        assert exc.value.cap == 20

    @given(coin_sets(), st.integers(0, 8), st.booleans(), st.integers(0, 80))
    @settings(max_examples=80, deadline=None)
    def test_cap_refuses_only_when_window_ends_past_it(self, denoms, k, at_most, cap):
        # the refusal before the scan must never turn away a query the scan answers
        fn = enumerate_at_most_k if at_most else enumerate_exact_k
        params = validate_params(list(denoms))
        start, _ = _window_and_counts(denoms, k)
        uncapped = fn(params, k)
        # patch.dict, not monkeypatch: fixtures are not reset between examples
        with patch.dict(os.environ, {MAX_BOUND_ENV: str(cap)}):
            if start + denoms[0] - 1 <= cap:
                assert fn(params, k) == uncapped
            else:
                with pytest.raises(Indeterminate):
                    fn(params, k)

    @pytest.mark.parametrize(
        "denoms, k",
        [
            ((1_000_000_007, 1_000_000_009), 0),  # no coin but a_1 within the cap
            ((6, 9, 2_000_003), 0),  # the coins within the cap share the factor 3
            ((999_979, 999_983), 0),  # far too few points below the cap
            ((997, 1000, 1001), 100_000),  # the window ends near j = 1.4e7
        ],
    )
    def test_cap_refused_before_scan(self, denoms, k, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("a scan was started for a query its bound refuses")

        monkeypatch.setattr(oracle, "_stream", no_scan)
        monkeypatch.setenv(MAX_BOUND_ENV, str(10**6))
        with pytest.raises(Indeterminate) as exc:
            enumerate_exact_k(validate_params(list(denoms)), k)
        assert exc.value.cap == 10**6

    @pytest.mark.parametrize(
        "query",
        [
            lambda params: enumerate_exact_k(params, 5),
            lambda params: enumerate_at_most_k(params, 5),
            lambda params: enumerate_by_count(params, 5),
            lambda params: enumerate_exact_k(params, 5, bound=100),
        ],
        ids=["exact", "at_most", "by_count", "bounded"],
    )
    def test_window_floor_planned_once(self, query, monkeypatch):
        # _scan plans the query; _stream scans with the floor it is handed
        calls = []
        real = oracle._window_floor

        def counted(coins, k):
            calls.append((coins, k))
            return real(coins, k)

        monkeypatch.setattr(oracle, "_window_floor", counted)
        query(validate_params([5, 7, 11]))
        assert calls == [([5, 7, 11], 5)]


class TestBoundedScan:
    @given(coin_sets(), st.integers(0, 8), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_counts_up_to_bound(self, denoms, k, at_most, data):
        start, counts = _window_and_counts(denoms, k)
        end = start + denoms[0] - 1
        bound = data.draw(st.integers(0, 2 * end), label="bound")
        fn = enumerate_at_most_k if at_most else enumerate_exact_k
        gs = fn(validate_params(list(denoms)), k, bound)
        member = (lambda c: c <= k) if at_most else (lambda c: c == k)
        assert gs.elements == tuple(j for j in range(bound + 1) if member(counts[j]))
        assert gs.complete == (end <= bound)

    @pytest.mark.parametrize("at_most", [False, True])
    @pytest.mark.parametrize("bound", BLOCK_EDGES)
    @pytest.mark.parametrize("denoms, k", BLOCK_CASES)
    def test_block_edges_against_rep_counts(self, denoms, k, bound, at_most):
        fn = enumerate_at_most_k if at_most else enumerate_exact_k
        gs = fn(validate_params(list(denoms)), k, bound)
        assert (gs.elements, gs.complete) == _rep_reference(denoms, k, at_most, bound)

    @pytest.mark.parametrize("at_most", [False, True])
    def test_fields_wider_than_64_bits(self, at_most):
        # r(j) = j + 1 for (1, 1): no count up to 5 reaches k = 2^70
        fn = enumerate_at_most_k if at_most else enumerate_exact_k
        gs = fn(Params([1, 1]), 2**70, bound=5)
        assert gs.elements == ((0, 1, 2, 3, 4, 5) if at_most else ())
        assert not gs.complete

    @pytest.mark.parametrize("at_most", [False, True])
    def test_single_coin(self, at_most):
        fn = enumerate_at_most_k if at_most else enumerate_exact_k
        gs = fn(validate_params([1]), 1, bound=5)
        assert gs.elements == (0, 1, 2, 3, 4, 5)
        assert not gs.complete

    def test_tails_no_longer_than_bound(self):
        # a_1's tail is clipped to bound + 1 fields: unclipped it would be a
        # bytearray of 1e9 fields
        tracemalloc.start()
        try:
            gs = enumerate_exact_k(validate_params([1_000_000_007, 1_000_000_009]), 0, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gs.elements == tuple(range(1, 11))
        assert not gs.complete
        assert peak < 64 * 1024

    def test_bound_zero(self):
        # r(0) = 1: a window of a_1 = 1 count > 0 closes at once, none > 1 does
        for k, elements, complete in [(0, (), True), (1, (0,), False)]:
            gs = enumerate_at_most_k(validate_params([1, 1]), k, bound=0)
            assert (gs.elements, gs.complete) == (elements, complete)

    def test_negative_bound(self):
        with pytest.raises(ValueError, match="bound must be >= 0"):
            enumerate_exact_k(validate_params([5, 7]), 0, bound=-1)

    def test_cap_zero(self, monkeypatch):
        # the scan of r(0) = 1 alone closes the window of a_1 = 1 count > 0
        monkeypatch.setenv(MAX_BOUND_ENV, "0")
        gs = enumerate_exact_k(validate_params([1, 1]), 0)
        assert (gs.elements, gs.complete) == ((), True)
        with pytest.raises(Indeterminate) as exc:
            enumerate_exact_k(validate_params([1, 1]), 1)
        assert exc.value.cap == 0


class TestEnumerateByCount:
    @given(coin_sets(), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_every_k_from_one_scan(self, denoms, kmax):
        params = validate_params(list(denoms))
        exact = enumerate_by_count(params, kmax)
        start, counts = _window_and_counts(denoms, kmax)
        end = start + denoms[0] - 1
        assert len(exact) == kmax + 1
        for k in range(kmax + 1):
            assert exact[k] == enumerate_exact_k(params, k)
            at_most = enumerate_at_most_k(params, k)
            union = tuple(sorted(chain.from_iterable(gs.elements for gs in exact[: k + 1])))
            assert union == at_most.elements
            assert exact[k].complete and at_most.complete
            seen = range(end + 1)
            assert exact[k].elements == tuple(j for j in seen if counts[j] == k)
            assert union == tuple(j for j in seen if counts[j] <= k)
        if end >= 1:  # a cap of end - 1 < 0 cannot be set
            with patch.dict(os.environ, {MAX_BOUND_ENV: str(end - 1)}):
                with pytest.raises(Indeterminate):
                    enumerate_by_count(params, kmax)

    @pytest.mark.parametrize(
        "denoms, kmax",
        [
            ((7, 11), 200),
            ((7, 1500), 3),
            ((2, 4, 6, 8, 10001), 3),
            ((3, 5), 300),  # 3-byte fields; counts span two byte planes
            ((2, 3), 70000),  # 4-byte fields; counts span three byte planes
        ],
    )
    def test_sets_across_blocks(self, denoms, kmax):
        exact = enumerate_by_count(validate_params(list(denoms)), kmax)
        at_most = _rep_reference(denoms, kmax, True)[0]
        counts = dp.rep_counts(denoms, at_most[-1])
        by_count = [[] for _ in range(kmax + 1)]
        for j in at_most:
            by_count[counts[j]].append(j)
        assert all(gs.complete for gs in exact)
        assert [gs.elements for gs in exact] == list(map(tuple, by_count))

    @pytest.mark.parametrize("denoms", [(3, 5), (2, 7), (2, 3, 5)])
    def test_counts_across_the_byte_plane_edge(self, denoms):
        # kmax 255 reads one byte plane of counts, 256 two
        params = validate_params(list(denoms))
        per_k = [enumerate_exact_k(params, k) for k in range(258)]
        for kmax in range(254, 258):
            assert enumerate_by_count(params, kmax) == per_k[: kmax + 1]

    @pytest.mark.parametrize("denoms", [(2, 3), (3, 5), (5, 7, 9), (4, 6, 9)])
    @pytest.mark.parametrize("kmax", [0, 1, 5])
    def test_one_gap_set_per_count(self, denoms, kmax, monkeypatch):
        # the exactly-k sets and nothing else: no at-most-kmax set is built
        real = GapSet._of
        built = []

        def counted(params, k, elements, complete):
            built.append(k)
            return real(params, k, elements, complete)

        monkeypatch.setattr(GapSet, "_of", staticmethod(counted))
        exact = enumerate_by_count(validate_params(list(denoms)), kmax)
        assert built == list(range(kmax + 1))
        assert [gs.k for gs in exact] == built

    def test_single_coin(self):
        params = validate_params([1])
        (exact,) = enumerate_by_count(params, 0)
        at_most = enumerate_at_most_k(params, 0)
        assert exact.elements == at_most.elements == ()
        assert exact.complete and at_most.complete
        with pytest.raises(InfiniteSet):
            enumerate_by_count(params, 1)

    def test_negative_kmax(self):
        with pytest.raises(ValueError):
            enumerate_by_count(validate_params([3, 5]), -1)


_BRUTE: dict = {}


def _brute_to_window(denoms, k):
    """Brute counts up to the end of the first window of a_1 counts > k,
    computed at doubling bounds and kept per denoms for the next call."""
    counts = _BRUTE.get(denoms, [])
    while (start := _first_window(counts, denoms[0], k)) is None:
        counts = _BRUTE[denoms] = brute_counts(denoms, max(2 * len(counts), 16))
    return counts[: start + denoms[0]]


@st.composite
def coins_to_30(draw):
    n = draw(st.integers(1, 5))
    if n == 1:
        return (1,)
    denoms = draw(
        st.lists(st.integers(1, 30), min_size=n, max_size=n).filter(
            lambda d: reduce(gcd, d) == 1
        )
    )
    return tuple(sorted(denoms))


def _assert_runs_are_sets(runs, counts):
    """Each (start, run) starts and ends with 1, holds only 0/1 bytes and
    expands to the exactly-k set of counts (which reach past every one)."""
    by_count = [[] for _ in runs]
    for j, c in enumerate(counts):
        if c < len(runs):
            by_count[c].append(j)
    for (start, run), expected in zip(runs, by_count):
        if run:
            assert run[0] == run[-1] == 1
            assert run.count(0) + run.count(1) == len(run)
        assert [start + i for i, bit in enumerate(run) if bit] == expected


class TestByCountBytes:
    """_by_count_bytes: one 0/1 run per count, from the split scan."""

    @given(coins_to_30(), st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    @example((2, 3), 254)
    @example((2, 3), 255)
    @example((2, 3), 256)
    @example((2, 3), 509)
    @example((2, 3), 510)
    @example((2, 3), 511)
    @example((3, 5), 254)
    @example((3, 5), 255)
    @example((3, 5), 256)
    @example((3, 5), 509)
    @example((3, 5), 510)
    @example((3, 5), 511)
    def test_runs_against_brute_counts(self, denoms, kmax):
        params = validate_params(list(denoms))
        if len(denoms) == 1 and kmax >= 1:
            with pytest.raises(InfiniteSet):
                oracle._by_count_bytes(params, kmax)
            return
        runs = oracle._by_count_bytes(params, kmax)
        sets = [_run_set(params, k, *run) for k, run in enumerate(runs)]
        assert all(gs.complete for gs in sets)
        assert enumerate_by_count(params, kmax) == sets
        assert len(runs) == kmax + 1
        _assert_runs_are_sets(runs, _brute_to_window(denoms, kmax))

    @pytest.mark.parametrize(
        "denoms, kmax",
        [
            ((2, 3), 70000),  # 4-byte fields; counts span three byte planes
            ((1, 1), 2000),  # r(j) = j + 1: one element per count
            ((7, 11), 1000),  # 3-byte fields over about 70 blocks
            ((200, 201), 1),  # 1-byte fields over about 70 blocks
            ((1,), 0),
        ],
    )
    def test_runs_across_blocks(self, denoms, kmax):
        params = validate_params(list(denoms))
        runs = oracle._by_count_bytes(params, kmax)
        at_most = _rep_reference(denoms, kmax, True)[0]
        assert all(_run_set(params, k, *run).complete for k, run in enumerate(runs))
        assert len(runs) == kmax + 1
        _assert_runs_are_sets(runs, dp.rep_counts(denoms, at_most[-1]) if at_most else [])


class TestScannedSets:
    """The enumerators and the pair's product forms wrap their sets without
    GapSet's checks."""

    @given(
        st.one_of(st.tuples(coin_sets(), st.integers(0, 300)), st.sampled_from(BLOCK_CASES)),
        st.sampled_from(["exact", "at_most", "by_count", "pair_forms"]),
        st.one_of(st.none(), st.integers(0, 3 * FIRST)),
        st.tuples(st.sampled_from(coprime_pairs(40)), st.integers(1, 6)),
    )
    @settings(max_examples=110, deadline=None)
    def test_each_set_is_one_the_constructor_accepts(self, query, kind, bound, pair_query):
        # certified and bounded scans, one block or many; by_count takes no
        # bound; pair_forms reads a pair's k >= 1 and k = 0 sets off its bytes
        denoms, k = query
        params = validate_params(list(denoms))
        if kind == "pair_forms":
            (a, b), k = pair_query
            pair = PairParams(a, b)
            gaps = _run_set(pair.as_params(), 0, *_p_k_bytes(pair, 0))
            sets = [structured_r_k(pair, k), gaps]
        elif kind == "by_count":
            sets = enumerate_by_count(params, k)
        else:
            fn = enumerate_at_most_k if kind == "at_most" else enumerate_exact_k
            sets = [fn(params, k, bound)]
        for gs in sets:
            assert gs == GapSet(gs.params, gs.k, gs.elements, gs.complete)

    # A field is the fewest whole bytes that keep a block's largest sum
    # below its top bit, split scan or not.
    @pytest.mark.parametrize(
        "denoms, k, bound",
        [
            ((9, 33, 52), 2575, None),  # 3 bytes; a FIRST_MAX block, then a BLOCK
            ((2, 3), 10**6, 5000),  # 5 bytes
            # the repeated coin's sums reach the bound the width is sized
            # for: a field one bit short overflows
            ((2, 2, 2, 1001), 64, None),
        ],
    )
    def test_field_widths_against_rep_counts(self, denoms, k, bound):
        gs = enumerate_at_most_k(validate_params(list(denoms)), k, bound)
        assert (gs.elements, gs.complete) == _rep_reference(denoms, k, True, bound)
