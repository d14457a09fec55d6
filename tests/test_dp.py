from math import comb
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobgen import dp

from helpers import brute_counts


class TestBackends:
    @pytest.mark.parametrize(
        "denoms,bound",
        [((5, 7), 60), ((3, 5), 40), ((1,), 10), ((2, 3, 5), 50), ((1, 1), 12)],
    )
    def test_python_matches_bruteforce(self, denoms, bound):
        assert dp.rep_counts(denoms, bound) == brute_counts(denoms, bound)

    @given(
        denoms=st.lists(st.integers(1, 15), min_size=1, max_size=4).map(tuple),
        bound=st.integers(0, 40),
    )
    @example(denoms=(2, 2, 3), bound=30)  # repeated coins
    @example(denoms=(3, 50), bound=20)  # a coin larger than the bound
    @example(denoms=(4, 9), bound=0)
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce_property(self, denoms, bound):
        # coins in any order, repeats allowed, no coprimality required
        assert dp.rep_counts(denoms, bound) == brute_counts(denoms, bound)

    def test_bound_zero(self):
        assert dp.rep_counts((4, 9), 0) == [1]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            dp.rep_counts((2, 3), -1)


class TestRepBlocks:
    @given(
        denoms=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        bound=st.integers(0, 300),
    )
    @example(denoms=[1], bound=300)  # a first coin of 1
    @example(denoms=[3, 1, 1], bound=120)  # later coins of 1
    @example(denoms=[7, 40, 33], bound=300)  # coins longer than most blocks
    @example(denoms=[5, 35, 40], bound=30)  # coins past the bound
    @example(denoms=[40, 3], bound=39)  # a first coin past the bound
    @settings(max_examples=60, deadline=None)
    def test_every_block_size_matches_bruteforce(self, denoms, bound):
        # coins in any order, repeats allowed; a block shorter than a coin
        # passes on a carry that still holds entries from blocks before it.
        # The brute force walks every tuple, so it checks the prefix holding
        # at most 50,000 of them.
        table = dp.rep_counts(denoms, bound)
        reach = bound
        while sum(table[: reach + 1]) > 50_000:
            reach //= 2
        assert table[: reach + 1] == brute_counts(tuple(denoms), reach)
        for size in range(1, bound + 2):
            blocks = list(dp.rep_blocks(denoms, bound, size))
            assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
            assert 1 <= len(blocks[-1]) <= size
            assert [c for block in blocks for c in block] == table

    @pytest.mark.parametrize("size", [1, 2, 6, 7, 8, 40, 91])
    def test_blocks_shorter_and_longer_than_a_coin(self, size):
        # 7 and 40 against blocks on both sides of them, with every count
        # checked against the brute force
        joined = [c for block in dp.rep_blocks((7, 40, 3), 90, size) for c in block]
        assert joined == brute_counts((7, 40, 3), 90)

    def test_a_block_past_the_bound_is_the_whole_table(self):
        assert list(dp.rep_blocks((3, 5, 7), 500, 10**6)) == [dp.rep_counts((3, 5, 7), 500)]

    @pytest.mark.parametrize("bound,size", [(-1, 5), (5, 0)])
    def test_refused(self, bound, size):
        with pytest.raises(ValueError):
            next(dp.rep_blocks((2, 3), bound, size))


class TestBinomialSteps:
    tables = st.lists(st.integers(-(10**6), 10**6), max_size=40)
    exponents = st.lists(st.integers(1, 50), max_size=6)  # some past the truncation

    @given(tables, exponents)
    @settings(max_examples=150, deadline=None)
    def test_multiply_then_divide_restores(self, table, exps):
        work = list(table)
        dp.multiply_binomials(work, exps)
        dp.divide_binomials(work, exps)
        assert work == table

    @given(tables, exponents)
    @settings(max_examples=150, deadline=None)
    def test_divide_then_multiply_restores(self, table, exps):
        work = list(table)
        dp.divide_binomials(work, exps)
        dp.multiply_binomials(work, exps)
        assert work == table


    @given(
        table=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=200),
        data=st.data(),
    )
    @example(table=list(range(870)), data=None)  # verify's (29, 30) table
    @settings(max_examples=200, deadline=None)
    def test_block_and_strided_paths_agree(self, table, data):
        # exponents from 1 past the table's end, so short classes (blocks)
        # and long ones (strided slices) both occur
        size = len(table)
        exps = [29, 30] if data is None else data.draw(
            st.lists(st.integers(1, size + 2), max_size=6)
        )
        default = list(table)
        dp.divide_binomials(default, exps)
        strided = list(table)
        with patch.object(dp, "_BLOCK_CLASS_MAX", 0):
            dp.divide_binomials(strided, exps)
        by_definition = list(table)
        for a in exps:
            for j in range(a, size):
                by_definition[j] += by_definition[j - a]
        assert default == strided == by_definition

    def test_short_classes_take_the_block_path(self):
        # 2 and 3 entries per class in a 92,161-entry table: no strided slice
        table = [1] + [0] * 92_160
        with patch.object(dp, "accumulate", side_effect=AssertionError("strided")):
            dp.divide_binomials(table, [46_081, 30_721])
        assert [j for j, c in enumerate(table) if c] == [0, 30_721, 46_081, 61_442, 76_802]
        assert set(table) == {0, 1}


class TestOverflowGuard:
    def test_huge_counts_route_to_python_and_stay_exact(self):
        # forty unit coins: r(j) = C(j + 39, 39) blows far past int64
        counts = dp.rep_counts((1,) * 40, 60)
        assert counts[60] == comb(60 + 39, 39)
        assert counts[60] > 2**63
