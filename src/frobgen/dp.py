"""Representation-count tables (denumerants) via dynamic programming.

counts[j] = number of tuples (m_1, ..., m_n) of nonnegative integers with
sum m_i * a_i = j, the z^j coefficient of 1 / prod(1 - z^{a_i}).
Denominations are multiplied in one factor at a time, so each multiset is
counted exactly once: the factor 1 / (1 - z^a) turns t(j) into
t(j) + t(j - a) + t(j - 2a) + ..., a running sum along each residue class
mod a.  Entries are Python ints, so tables are exact at any size.

The two binomial steps work in place on a list of coefficients truncated
at degree len(table) - 1: divide_binomials is the running sum above, and
multiply_binomials its inverse, t(j) - t(j - a).  Denumerant tables and
cyclotomic polynomials are built from these two.  The numerator h(z) uses
neither: genfun.numerator_h compares the scan's gap bytes with a bitset of
the representable set, one bit per j, kept apart from these tables so that
the check stays independent of them, and reads h off its Apery set.
rep_blocks gives a denumerant table a block at a time, each coin carrying
its last a values from block to block; rep_counts is its one-block case.
"""
from __future__ import annotations

from collections import deque
from itertools import accumulate, repeat
from operator import add, sub
from typing import Iterable, Iterator, Sequence

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


def _seed(a: int, lo: int, n: int) -> list[int]:
    """The series 1 / (1 - z^a) on lo..lo+n-1: 1 at each multiple of a.

    One strided copy sets the ones; a coin of 1 is one repeated [1].
    """
    if a == 1:
        return [1] * n
    block = [0] * n
    start = -lo % a
    block[start::a] = [1] * len(range(start, n, a))
    return block


def rep_blocks(denoms: Sequence[int], bound: int, size: int) -> Iterator[list[int]]:
    """Yield [r(lo), ..., r(hi - 1)] for one or more positive denominations,
    in consecutive blocks of at most size entries, lo = 0, size, 2 * size,
    ..., up to r(bound).

    The first coin's factor is written directly (_seed).  Each later coin a
    <= bound keeps a carry, the last a values of its running sum before the
    block: the block adds it to its first min(a, n) entries and then takes
    the running sum along each residue class mod a (divide_binomials).  The
    carry is a deque of length a, so moving it past a block costs that
    block's last min(a, n) entries, however long the coin.  Memory follows
    size and the coins, not the bound.  Coins past the bound are 1 below
    the truncation and are skipped.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if size < 1:
        raise ValueError("size must be >= 1")
    first, *rest = denoms
    coins = [a for a in rest if a <= bound]
    # one block needs no carries; j < 0 has none to give
    carries = [deque(repeat(0, a), maxlen=a) if bound >= size else None for a in coins]
    for lo in range(0, bound + 1, size):
        block = _seed(first, lo, min(size, bound + 1 - lo))
        for a, carry in zip(coins, carries):
            if carry is not None:
                block[:a] = map(add, block[:a], carry)
            divide_binomials(block, (a,))
            if carry is not None:
                carry.extend(block[-a:])
        yield block


def rep_counts(denoms: Sequence[int], bound: int) -> list[int]:
    """Exact table [r(0), r(1), ..., r(bound)] for one or more positive
    denominations: rep_blocks in one block."""
    return next(rep_blocks(denoms, bound, bound + 1))
