"""Representation-count tables (denumerants) via dynamic programming.

counts[j] = number of tuples (m_1, ..., m_n) of nonnegative integers with
sum m_i * a_i = j, the z^j coefficient of 1 / prod(1 - z^{a_i}).
Denominations are multiplied in one factor at a time, so each multiset is
counted exactly once: the factor 1 / (1 - z^a) turns t(j) into
t(j) + t(j - a) + t(j - 2a) + ..., a running sum along each residue class
mod a.  Entries are Python ints, so tables are exact at any size.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Sequence


def rep_counts(denoms: Sequence[int], bound: int) -> list[int]:
    """Exact table [r(0), r(1), ..., r(bound)] for positive denominations."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    table = [0] * (bound + 1)
    table[0] = 1
    for a in denoms:
        for r in range(min(a, bound + 1)):
            table[r::a] = accumulate(table[r::a])
    return table
