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
from operator import add, sub
from typing import Iterable, Sequence

# A factor whose residue classes hold at most this many entries each (and
# at most a // 2) is divided block by block; see divide_binomials.
_BLOCK_CLASS_MAX = 8


def divide_binomials(table: list[int], exponents: Iterable[int]) -> None:
    """Divide the truncated series in place by prod (1 - z^a) over exponents.

    A factor with a >= len(table) is 1 below the truncation and is skipped.
    The running sum along each residue class mod a is taken either as one
    strided slice per class (a slice operations) or, when the classes are
    short, as one contiguous block of a entries added to the block before
    it (about len/a operations): the blocks win once each class holds at
    most min(_BLOCK_CLASS_MAX, a // 2) entries, as timed over tables of 12
    to 10^6 entries.
    """
    size = len(table)
    for a in exponents:
        if a >= size:
            continue
        if size <= a * min(_BLOCK_CLASS_MAX, a // 2):
            block = table[:a]
            for lo in range(a, size, a):
                block = list(map(add, table[lo : lo + a], block))
                table[lo : lo + a] = block
        else:
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
