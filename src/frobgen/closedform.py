"""Exact closed forms for two coprime denominations.

For coprime a, b the set of integers with exactly k representations is
finite and highly structured; its max, cardinality, sum, and higher power
sums all have closed forms:

    g_k = (k+1)ab - a - b                 (k = 0 is Sylvester's formula)
    c_0 = (a-1)(b-1)/2,  c_k = ab         for k >= 1
    s_0 = (a-1)(b-1)(2ab-a-b-1)/12        (Brown--Shiue)
    s_k = ab(2abk - a - b)/2              for k >= 1

and for k >= 1 the power sum of order m is a trinomial convolution of the
sums S_i(x) = sum_{j<x} j^i at x = a and x = b (see power_sum_k), which
power_sums_below gets by Pascal's identity.  Every function returns a
StatReport with closed-form provenance.  All arithmetic is in integers;
each division is exact and checked by _exact_div.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from operator import add, mul

from frobgen.errors import NonPositive, NotCoprime, UnsupportedK
from frobgen.oracle import GapSet, Params, enumerate_exact_k
from frobgen.report import AT_MOST_STATS, CLOSED_FORM, StatReport


@dataclass(frozen=True)
class PairParams:
    """Two coprime positive denominations (order immaterial)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        for v in (self.a, self.b):
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise NonPositive(v)
        g = gcd(self.a, self.b)
        if g != 1:
            raise NotCoprime(g)

    def as_params(self) -> Params:
        return Params(tuple(sorted((self.a, self.b))))

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


def frobenius_k(p: PairParams, k: int) -> StatReport:
    """Largest integer with exactly k representations: (k+1)ab - a - b.

    When the formula is negative (only possible for min(a,b) = 1, k = 0)
    the set is empty; the oracle confirms before reporting so.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b = p.a, p.b
    value = (k + 1) * a * b - a - b
    if value < 0:
        gaps = enumerate_exact_k(p.as_params(), k)
        if gaps.elements:
            raise AssertionError("negative formula value for a nonempty set")
        return StatReport("g", p.pair, k, None, provenance=CLOSED_FORM)
    return StatReport("g", p.pair, k, value, provenance=CLOSED_FORM)


def count_k(p: PairParams, k: int) -> StatReport:
    """Cardinality: (a-1)(b-1)/2 for k = 0, else ab."""
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b = p.a, p.b
    if k == 0:
        value = _exact_div((a - 1) * (b - 1), 2)
    else:
        value = a * b
    return StatReport("c", p.pair, k, value, provenance=CLOSED_FORM)


def sum_k(p: PairParams, k: int) -> StatReport:
    """Sum of all elements: Brown--Shiue for k = 0, ab(2abk - a - b)/2 after."""
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b = p.a, p.b
    if k == 0:
        value = _exact_div((a - 1) * (b - 1) * (2 * a * b - a - b - 1), 12)
    else:
        value = _exact_div(a * b * (2 * a * b * k - a - b), 2)
    return StatReport("s", p.pair, k, value, provenance=CLOSED_FORM)


def power_sum_k(p: PairParams, k: int, m: int) -> StatReport:
    """Power sum of order m over the exactly-k set, for k >= 1:

        sum_{l+u+v=m} multinomial(m; l,u,v) a^(l+u) b^(l+v) (k-1)^l
                      * S_v(a) * S_u(b)

    with the convention 0^0 = 1 in the (k-1)^l factor, which the k = 1 case
    requires.  This is the m-th power sum of the translate
    ab(k-1) + {ia + jb : 0 <= i < b, 0 <= j < a}, expanded by the
    multinomial theorem.  The m+1 sums S_v(a) and S_u(b) come from
    power_sums_below, once per call, and the terms are summed as ints.
    k = 0 with m <= 1 delegates to count_k / sum_k; k = 0 with m >= 2 is
    refused: a closed form exists (Rodseth 1994; Tuenter 2006) but is not
    implemented.
    """
    if k < 0 or m < 0:
        raise ValueError("k and m must be >= 0")
    if k == 0:
        if m == 0:
            value = count_k(p, 0).value
        elif m == 1:
            value = sum_k(p, 0).value
        else:
            raise UnsupportedK(k, m)
        return StatReport("s^m", p.pair, k, value, m=m, provenance=CLOSED_FORM)
    a, b = p.a, p.b
    sums_a = power_sums_below(a, m)
    sums_b = power_sums_below(b, m)
    total = 0
    for lam in range(m + 1):
        kf = (k - 1) ** lam  # 0**0 == 1 covers k == 1, lam == 0
        if kf == 0:
            continue
        for mu in range(m - lam + 1):
            nu = m - lam - mu
            coeff = comb(m, lam) * comb(m - lam, mu)
            total += (
                coeff
                * a ** (lam + mu)
                * b ** (lam + nu)
                * kf
                * sums_a[nu]
                * sums_b[mu]
            )
    return StatReport("s^m", p.pair, k, total, m=m, provenance=CLOSED_FORM)


def at_most_stats(p: PairParams, k: int) -> tuple[StatReport, StatReport, StatReport]:
    """Exact (max, cardinality, sum) of the at-most-k set, read off the
    exactly-k forms:

        g<= = g_k = (k+1)ab - a - b  (a two-denomination fact)
        c<= = c_0 + abk
        s<= = s_0 + k(s_1 + s_k)/2   (s_i is linear in i for i >= 1)
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b = p.a, p.b
    g_le = StatReport("g<=", p.pair, k, frobenius_k(p, k).value, provenance=CLOSED_FORM)
    c_le = StatReport("c<=", p.pair, k, count_k(p, 0).value + a * b * k, provenance=CLOSED_FORM)
    s_value = sum_k(p, 0).value + _exact_div(k * (sum_k(p, 1).value + sum_k(p, k).value), 2)
    s_le = StatReport("s<=", p.pair, k, s_value, provenance=CLOSED_FORM)
    return g_le, c_le, s_le


def closed_report(p: PairParams, stat: str, k: int, m: int | None = None) -> StatReport:
    """The closed form of one statistic, under its StatReport name.

    g, c, s and s^m (which needs m) are frobenius_k, count_k, sum_k and
    power_sum_k; g<=, c<= and s<= are the entries of at_most_stats.  Any
    other name raises ValueError.
    """
    if stat == "g":
        return frobenius_k(p, k)
    if stat == "c":
        return count_k(p, k)
    if stat == "s":
        return sum_k(p, k)
    if stat == "s^m":
        if m is None:
            raise ValueError("s^m needs an order m")
        return power_sum_k(p, k, m)
    if stat in AT_MOST_STATS:
        return at_most_stats(p, k)[AT_MOST_STATS.index(stat)]
    raise ValueError(f"unknown statistic {stat!r}")


def structured_r_k(p: PairParams, k: int) -> GapSet:
    """The exactly-k set for k >= 1, written down directly:

        ab(k-1) + {0, a, ..., (b-1)a} + {0, b, ..., (a-1)b}

    All ab sums are distinct (asserted); the result is complete by
    construction.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a, b = p.a, p.b
    base = a * b * (k - 1)
    elements = {base + i * a + j * b for i in range(b) for j in range(a)}
    if len(elements) != a * b:
        raise AssertionError("structured elements are not distinct")
    return GapSet(p.as_params(), k, tuple(sorted(elements)), complete=True)
