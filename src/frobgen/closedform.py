"""Exact closed forms for two coprime denominations.

For coprime a, b the set of integers with exactly k representations is
finite and highly structured; its max, cardinality, sum, and higher power
sums all have closed forms:

    g_k = (k+1)ab - a - b                 (k = 0 is Sylvester's formula)
    c_0 = (a-1)(b-1)/2,  c_k = ab         for k >= 1
    s_0 = (a-1)(b-1)(2ab-a-b-1)/12        (Brown--Shiue)
    s_k = ab(2abk - a - b)/2              for k >= 1

and for k >= 1 the power sum of order m is a trinomial convolution of
power-sum polynomials (see power_sum_k).  Every function returns a
StatReport with closed-form provenance; all arithmetic is exact, and the
power sums are integer-exact: each power-sum polynomial value is an integer
Horner evaluation followed by one exact division.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from frobgen.bernoulli import beta_value
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


def _exact_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise AssertionError(f"expected an integer, got {x}")
    return x.numerator


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
        value = _exact_int(Fraction((a - 1) * (b - 1), 2))
    else:
        value = a * b
    return StatReport("c", p.pair, k, value, provenance=CLOSED_FORM)


def sum_k(p: PairParams, k: int) -> StatReport:
    """Sum of all elements: Brown--Shiue for k = 0, ab(2abk - a - b)/2 after."""
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b = p.a, p.b
    if k == 0:
        value = _exact_int(Fraction((a - 1) * (b - 1) * (2 * a * b - a - b - 1), 12))
    else:
        value = _exact_int(Fraction(a * b * (2 * a * b * k - a - b), 2))
    return StatReport("s", p.pair, k, value, provenance=CLOSED_FORM)


def power_sum_k(p: PairParams, k: int, m: int) -> StatReport:
    """Power sum of order m over the exactly-k set, for k >= 1:

        sum_{l+u+v=m} multinomial(m; l,u,v) a^(l+u) b^(l+v) (k-1)^l
                      * beta_{v+1}(a) * beta_{u+1}(b)

    with the convention 0^0 = 1 in the (k-1)^l factor, which the k = 1 case
    requires.  The sum is integer-exact: the m+1 values beta_{v+1}(a) and
    beta_{u+1}(b) are computed once per call by bernoulli.beta_value (integer
    Horner, one exact division each) and the terms are summed as ints.
    k = 0 with m <= 1 delegates to count_k / sum_k; k = 0 with m >= 2 has no
    closed form and is refused.
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
    beta_a = [beta_value(v + 1, a) for v in range(m + 1)]
    beta_b = [beta_value(u + 1, b) for u in range(m + 1)]
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
                * beta_a[nu]
                * beta_b[mu]
            )
    return StatReport("s^m", p.pair, k, total, m=m, provenance=CLOSED_FORM)


def at_most_stats(p: PairParams, k: int) -> tuple[StatReport, StatReport, StatReport]:
    """Exact (max, cardinality, sum) of the at-most-k set:

        g<= = (k+1)ab - a - b        (equals g_k; a two-denomination fact)
        c<= = (a-1)(b-1)/2 + abk
        s<= = a^2 b^2 k^2 / 2 + (ab-a-b) ab k / 2 + a^2 b^2 / 6
              - (a+b-1) ab / 4 + (a^2 + b^2 - 1) / 12
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b = p.a, p.b
    g = frobenius_k(p, k)
    g_le = StatReport("g<=", p.pair, k, g.value, provenance=CLOSED_FORM)
    c_le = StatReport(
        "c<=",
        p.pair,
        k,
        _exact_int(Fraction((a - 1) * (b - 1), 2) + a * b * k),
        provenance=CLOSED_FORM,
    )
    s_value = (
        Fraction(a * a * b * b * k * k, 2)
        + Fraction((a * b - a - b) * a * b * k, 2)
        + Fraction(a * a * b * b, 6)
        - Fraction((a + b - 1) * a * b, 4)
        + Fraction(a * a + b * b - 1, 12)
    )
    s_le = StatReport("s<=", p.pair, k, _exact_int(s_value), provenance=CLOSED_FORM)
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
