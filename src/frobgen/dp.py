"""Representation-count tables (denumerants) via dynamic programming.

counts[j] = number of tuples (m_1, ..., m_n) of nonnegative integers with
sum m_i * a_i = j, the z^j coefficient of 1 / prod(1 - z^{a_i}).
Denominations are multiplied in one factor at a time, so each multiset is
counted exactly once: the factor 1 / (1 - z^a) turns t(j) into
t(j) + t(j - a) + t(j - 2a) + ..., a running sum along each residue class
mod a.  Entries are Python ints, so tables are exact at any size.

The two binomial steps work in place on a list of coefficients truncated
at degree len(table) - 1: divide_binomials is the running sum above, and
multiply_binomials its inverse, t(j) - t(j - a).  Denumerant tables, the
numerator h(z) and cyclotomic polynomials are all built from these two.
"""
from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Iterable, Sequence


def divide_binomials(table: list[int], exponents: Iterable[int]) -> None:
    """Divide the truncated series in place by prod (1 - z^a) over exponents.

    A factor with a >= len(table) is 1 below the truncation and is skipped.
    """
    size = len(table)
    for a in exponents:
        if a < size:
            for r in range(a):
                table[r::a] = accumulate(table[r::a])


def multiply_binomials(table: list[int], exponents: Iterable[int]) -> None:
    """Multiply the truncated series in place by prod (1 - z^a) over exponents."""
    for a in exponents:  # the map is run in full before the assignment
        table[a:] = map(sub, table[a:], table)


def rep_counts(denoms: Sequence[int], bound: int) -> list[int]:
    """Exact table [r(0), r(1), ..., r(bound)] for positive denominations."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    table = [0] * (bound + 1)
    table[0] = 1
    divide_binomials(table, denoms)
    return table
