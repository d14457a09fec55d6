from math import comb

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


class TestOverflowGuard:
    def test_huge_counts_route_to_python_and_stay_exact(self):
        # forty unit coins: r(j) = C(j + 39, 39) blows far past int64
        counts = dp.rep_counts((1,) * 40, 60)
        assert counts[60] == comb(60 + 39, 39)
        assert counts[60] > 2**63
