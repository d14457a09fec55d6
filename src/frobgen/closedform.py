"""Exact closed forms for two coprime denominations.

For coprime a, b the set of integers with exactly k representations is
finite and highly structured; its max, cardinality, sum, and higher power
sums all have closed forms:

    g_k = (k+1)ab - a - b                 (k = 0 is Sylvester's formula)
    c_0 = (a-1)(b-1)/2,  c_k = ab         for k >= 1
    s_0 = (a-1)(b-1)(2ab-a-b-1)/12        (Brown--Shiue)
    s_k = ab(2abk - a - b)/2              for k >= 1

and for k >= 1 the exactly-k set is the sumset of {ia : 0 <= i < b} and
{jb : 0 <= j < a} translated by ab(k-1), so its power sums are one binomial
convolution of theirs, translated (power_sums_k; power_sum_k reads order m).
Both come from the sums S_i(x) = sum_{j<x} j^i, which power_sums_below gets
by Pascal's identity.  g, c and s, of the exactly-k and the at-most-k
set alike, are the six integer formulas of one row, _closed_row.
closed_report is the one builder of a closed-form StatReport, and verify
reads the same row.  All arithmetic is in integers; each division is
exact and checked by _exact_div.  Every exactly-k set of a pair
is read off one builder, _p_k_bytes, which lays out p_k's coefficients as
0/1 bytes from a base: for k = 0 the complement of the representable
n <= g_0 (_rows), for k >= 1 the sumset bytes of R_1 (_grid_bytes) at base
ab(k-1).  Those are handed out as laid out; with strict, _p_k_bytes asserts
that they are 0/1 with ab ones (_zero_one), so builders refuse a collision,
while verify reads them with strict=False and reports one as a failed check.
Bytes become a set only through oracle._run_set.  The power sums of every
exactly-k set with k >= 1 are the sumset's (_sumset_power_sums) translated
by ab(k-1), through the one translate path _translate_rows/_translate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add, mul
from typing import Iterable, Iterator

from frobgen.errors import UnsupportedK
from frobgen.oracle import GapSet, Params, _check_bound, _run_set
from frobgen.report import AT_MOST_STATS, CLOSED_FORM, StatReport

# swaps 0 and 1: the representable n's bytes become the gaps'
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


@dataclass(frozen=True)
class PairParams:
    """Two coprime positive denominations (order immaterial), checked by
    Params: NonPositive for a (then b), else NotCoprime."""

    a: int
    b: int
    _params: Params = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_params", Params(self.pair))

    def as_params(self) -> Params:
        return self._params

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)


def _exact_div(num: int, den: int) -> int:
    """num / den, which must be an integer; a remainder raises AssertionError."""
    value, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"expected an integer, got {num}/{den}")
    return value


def power_sums_below(x: int, m: int) -> list[int]:
    """[S_0(x), ..., S_m(x)] with S_i(x) = sum_{j=0}^{x-1} j^i (0^0 = 1).

    Summing (j+1)^(i+1) - j^(i+1) over j < x gives Pascal's identity

        (i+1) S_i(x) = x^(i+1) - sum_{t<i} C(i+1, t) S_t(x),

    so each order costs one pass over the lower ones and one exact
    division.  The binomials are carried as one Pascal row.

    >>> power_sums_below(5, 2)
    [5, 10, 30]
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    sums: list[int] = []
    row = [1]  # C(i, 0..i), advanced to C(i+1, ...) at the top of order i
    power = 1
    for i in range(m + 1):
        row = [1, *map(add, row, row[1:]), 1]
        power *= x
        sums.append(_exact_div(power - sum(map(mul, row, sums)), i + 1))
    return sums


def _closed_row(p: PairParams, k: int) -> tuple[int | None, int, int, int | None, int, int]:
    """(g, c, s, g<=, c<=, s<=) for k >= 0: the max, cardinality and sum of
    the exactly-k set, then of the at-most-k set.

        g = g<= = (k+1)ab - a - b     (None where negative: the empty set)
        c = (a-1)(b-1)/2 for k = 0, ab for k >= 1
        s = (a-1)(b-1)(2ab-a-b-1)/12 for k = 0, ab(2abk - a - b)/2 for k >= 1
        c<= = c_0 + abk
        s<= = s_0 + k ab (ab(k+1) - a - b)/2

    g is negative only for min(a,b) = 1 and k = 0, where every n >= 0 is
    representable.  g<= = g_k is a two-denomination fact.  s<= is
    s_0 + k(s_1 + s_k)/2 (s_i is linear in i for i >= 1) with
    s_1 + s_k = ab(ab(k+1) - a - b) written out, so no s_i with i >= 1 is
    computed.  It is an integer: ab is even unless a and b are both odd,
    and then ab(k+1) - a - b has the parity of k + 1.
    """
    a, b = p.a, p.b
    ab = a * b
    g = (k + 1) * ab - a - b
    if g < 0:
        g = None
    c_0 = _exact_div((a - 1) * (b - 1), 2)
    s_0 = _exact_div((a - 1) * (b - 1) * (2 * ab - a - b - 1), 12)
    c, s = (ab, _exact_div(ab * (2 * ab * k - a - b), 2)) if k else (c_0, s_0)
    s_le = s_0 + _exact_div(k * ab * (ab * (k + 1) - a - b), 2)
    return g, c, s, g, c_0 + ab * k, s_le


# the StatReport names of _closed_row's entries, in its order
_ROW_STATS = ("g", "c", "s", *AT_MOST_STATS)


def frobenius_k(p: PairParams, k: int) -> StatReport:
    """Largest integer with exactly k representations: (k+1)ab - a - b, or
    None where every n >= 0 is representable (min(a,b) = 1, k = 0)."""
    return closed_report(p, "g", k)


def count_k(p: PairParams, k: int) -> StatReport:
    """Cardinality: (a-1)(b-1)/2 for k = 0, else ab."""
    return closed_report(p, "c", k)


def sum_k(p: PairParams, k: int) -> StatReport:
    """Sum of all elements: Brown--Shiue for k = 0, ab(2abk - a - b)/2 after."""
    return closed_report(p, "s", k)


def _powers(x: int, m: int) -> list[int]:
    """[x^0, ..., x^m] (0^0 = 1)."""
    return list(accumulate(repeat(x, m), mul, initial=1))


def _grid_power_sums(p: PairParams, m: int) -> tuple[list[int], list[int]]:
    """Power sums of orders 0..m of {ia : 0 <= i < b} and of
    {jb : 0 <= j < a}, whose sumset is R_1.

    The order-t sum of the first is a^t S_t(b), of the second b^t S_t(a).
    """
    a, b = p.a, p.b
    return (
        list(map(mul, _powers(a, m), power_sums_below(b, m))),
        list(map(mul, _powers(b, m), power_sums_below(a, m))),
    )


def _binomial_convolution(x: list[int], y: list[int]) -> list[int]:
    """[z_0, ..., z_m], z_n = sum_t C(n, t) x_t y_(n-t), for m + 1 = len(x) <= len(y).

    When x and y are the power sums of orders 0..m of two sets X and Y, z
    holds those of the sums {s + t : s in X, t in Y}, counted with
    multiplicity (binomial theorem).  The binomials are carried as one
    Pascal row.
    """
    out = []
    row = [1]
    for n in range(len(x)):
        out.append(sum(map(mul, map(mul, row, x), y[n::-1])))
        row = [1, *map(add, row, row[1:]), 1]
    return out


def _sumset_power_sums(p: PairParams, m: int) -> list[int]:
    """The power sums of orders 0..m of R_1, the sumset of {ia : 0 <= i < b}
    and {jb : 0 <= j < a}: one binomial convolution of theirs."""
    return _binomial_convolution(*_grid_power_sums(p, m))


def _translate_rows(shift: int, m: int) -> Iterator[list[int]]:
    """Yields row n = [C(n, t) shift^(n-t) for 0 <= t <= n] for n = 0..m
    (0^0 = 1), holding one row at a time: a caller that reuses them keeps
    the list.

    Entry t of row n + 1 is shift times entry t of row n plus entry t - 1:
    Pascal's rule, each step down a column carrying one more factor of shift.
    """
    row = [1]
    yield row
    for _ in range(m):
        row = [*map(add, map(mul, row, repeat(shift)), [0, *row]), 1]
        yield row


def _translate(rows: Iterable[list[int]], sums: list[int]) -> list[int]:
    """The power sums of X + shift from those of X, orders 0..m, with rows
    those of _translate_rows(shift, m): P_n(X + shift) = sum_t C(n, t)
    shift^(n-t) P_t(X), by the binomial theorem.

    >>> _translate(_translate_rows(10, 2), [2, 3, 5])  # {1, 2} -> {11, 12}
    [2, 23, 265]
    """
    return [sum(map(mul, row, sums)) for row in rows]


def power_sums_k(p: PairParams, k: int, m: int) -> list[int]:
    """[P_0, ..., P_m], P_n the power sum of order n over the exactly-k set,
    for k >= 1.

    The set is the translate ab(k-1) + {ia + jb : 0 <= i < b, 0 <= j < a},
    all ab sums distinct, so its power sums are the sumset's, one binomial
    convolution of those of {ia} and {jb} (_grid_power_sums), translated by
    ab(k-1) (_translate).  That is O(m^2) integer operations for all m + 1
    orders together; _power_sums_by_k gives every k up to kmax.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    sums = _sumset_power_sums(p, m)
    base = p.a * p.b * (k - 1)
    if base:
        sums = _translate(_translate_rows(base, m), sums)
    return sums


def _power_sums_by_k(p: PairParams, kmax: int, m: int) -> list[list[int]]:
    """[power_sums_k(p, k, m) for k in 1..kmax], each k stepped from the last.

    E_1 is the sumset (_sumset_power_sums), and E_k = E_(k-1) + ab for
    k >= 2, so one table of rows C(n, t) ab^(n-t)
    (_translate_rows) per call takes each k's sums from the last k's in
    about (m + 1)^2 / 2 products, with no power of ab(k-1) built.  That
    table holds about (m + 1)^2 / 2 integers, where power_sums_k holds one
    row at a time.
    """
    table = [_sumset_power_sums(p, m)] if kmax >= 1 else []
    if kmax > 1:
        rows = list(_translate_rows(p.a * p.b, m))
        for _ in range(kmax - 1):
            table.append(_translate(rows, table[-1]))
    return table


def power_sum_k(p: PairParams, k: int, m: int) -> StatReport:
    """Power sum of order m over the exactly-k set (closed_report's s^m)."""
    return closed_report(p, "s^m", k, m)


def at_most_stats(p: PairParams, k: int) -> tuple[StatReport, StatReport, StatReport]:
    """Exact (max, cardinality, sum) of the at-most-k set, as the
    StatReports g<=, c<= and s<=."""
    return tuple(closed_report(p, stat, k) for stat in AT_MOST_STATS)


def closed_report(p: PairParams, stat: str, k: int, m: int | None = None) -> StatReport:
    """The closed form of one statistic, under its StatReport name.

    g, c, s, g<=, c<=, s<= are the entries of _closed_row; k < 0 raises
    ValueError.  s^m needs m (ValueError first when it is None; then
    ValueError for k < 0 or m < 0).  For k >= 1 it is entry m of
    power_sums_k(p, k, m): the sumset's power sums translated by ab(k-1),
    the derivation verify checks against the oracle (_power_sums_by_k steps
    the same translate by ab).  k = 0 with m <= 1 is the count or the sum;
    k = 0 with m >= 2 raises UnsupportedK: a closed form exists (Rodseth
    1994; Tuenter 2006) but is not implemented.  Any other name raises
    ValueError before k is read.
    """
    if stat == "s^m":
        if m is None:
            raise ValueError("s^m needs an order m")
        if k < 0 or m < 0:
            raise ValueError("k and m must be >= 0")
        if k:
            value = power_sums_k(p, k, m)[m]
        elif m <= 1:
            value = _closed_row(p, 0)[1 + m]
        else:
            raise UnsupportedK(k, m)
    elif stat in _ROW_STATS:
        if k < 0:
            raise ValueError("k must be >= 0")
        value, m = _closed_row(p, k)[_ROW_STATS.index(stat)], None
    else:
        raise ValueError(f"unknown statistic {stat!r}")
    return StatReport(stat, p.pair, k, value, m=m, provenance=CLOSED_FORM)


def _zero_one(coeffs: bytes, ones: int) -> bool:
    """Whether every byte of coeffs is 0 or 1 and exactly ones of them are 1."""
    set_bytes = coeffs.count(1)
    return set_bytes == ones and coeffs.count(0) + set_bytes == len(coeffs)


def _rows(p: PairParams, length: int) -> bytearray:
    """The representable n < length as 0/1 bytes, in O(length) work.

    With s the smaller coin and t the other, these are the rows jt + sN for
    0 <= j < s, one strided slice each, disjoint as the jt differ mod s.
    length - 1 goes through _check_bound before anything is allocated.
    """
    small, large = sorted(p.pair)
    if length:
        _check_bound(length - 1)
    bits = bytearray(length)
    for start in range(0, min(small * large, length), large):
        bits[start::small] = b"\x01" * len(range(start, length, small))
    return bits


def _grid_bytes(p: PairParams) -> bytes:
    """R_1 = {ia + jb : 0 <= i < b, 0 <= j < a} as 0/1 bytes over 0..2ab - a - b.

    Each term z^(ia) of (1 + z^a + ... + z^((b-1)a)) lays out the row
    z^(ia) * (1 + z^b + ... + z^((a-1)b)) as one strided slice.  A row
    landing on a set byte leaves fewer than ab set: the bytes are returned
    as laid out, and _p_k_bytes with strict refuses them.
    """
    a, b = p.a, p.b
    coeffs = bytearray(2 * a * b - a - b + 1)
    width = (a - 1) * b + 1  # one row: exponents 0, b, ..., (a-1)b
    row = b"\x01" * a
    for start in range(0, b * a, a):
        coeffs[start : start + width : b] = row
    return bytes(coeffs)


def _p_k_bytes(p: PairParams, k: int, strict: bool = True) -> tuple[int, bytes]:
    """(base, bytes): p_k's coefficients, the exactly-k set, as 0/1 bytes
    from position base, read off the product form with no oracle call.

    k = 0 is the complement of the representable n <= g_0 = ab - a - b
    (_rows) at base 0.  k >= 1 is R_1's bytes (_grid_bytes) at base
    ab(k - 1).  Past the FROBGEN_MAX_BOUND ceiling in force (g_0, resp.
    2ab - a - b) it raises BoundTooLarge before allocating.  For k >= 1 with
    strict, bytes that are not the product form's ab coefficients 1 (a byte
    outside {0, 1}, or two sums on one exponent) raise AssertionError;
    strict=False hands them out as laid out.
    """
    a, b = p.a, p.b
    if k == 0:
        return 0, _rows(p, a * b - a - b + 1).translate(_FLIP)
    _check_bound(2 * a * b - a - b)
    coeffs = _grid_bytes(p)
    if strict and not _zero_one(coeffs, a * b):
        raise AssertionError("exactly-k polynomial has a coefficient outside {0,1}")
    return a * b * (k - 1), coeffs


def structured_r_k(p: PairParams, k: int) -> GapSet:
    """The exactly-k set for k >= 1, written down directly:

        ab(k-1) + {0, a, ..., (b-1)a} + {0, b, ..., (a-1)b}

    read off _p_k_bytes, which asserts that all ab sums are distinct;
    the result is complete by construction, as every _run_set set is.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _run_set(p.as_params(), k, *_p_k_bytes(p, k))
