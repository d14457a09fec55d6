"""Generating-function views of representation sets.

The indicator series of "more than k representations", the 0/1 polynomial
of "exactly k representations", and the numerator polynomial h(z) with

    sum_{j representable} z^j = h(z) / prod_i (1 - z^(a_i))

are all materialized exactly and cross-checked against the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, mul

from frobgen.closedform import PairParams
from frobgen.errors import NotPrime, WrongArity
from frobgen.intpoly import IntPoly, cyclotomic
from frobgen.oracle import GapSet, Params, enumerate_exact_k, rep_table

_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class IndicatorSeries:
    """bits[j] = 1 iff j has more than k representations, for j <= bound."""

    params: tuple[int, ...]
    k: int
    bound: int
    bits: tuple[int, ...]

    def to_bitstring(self) -> str:
        return bytes(self.bits).translate(_BIT_DIGITS).decode("ascii")

    def to_json(self) -> str:
        # The bits array is the bitstring joined by commas, one C-level call.
        params = ",".join(map(str, self.params))
        bits = ",".join(self.to_bitstring())
        return f'{{"params":[{params}],"k":{self.k},"bound":{self.bound},"bits":[{bits}]}}'


def p_k_poly(p: PairParams, k: int) -> IntPoly:
    """0/1 polynomial whose support is the exactly-k set.

    k >= 1 writes out the product form directly (no division involved):

        z^(ab(k-1)) * (1 + z^a + ... + z^((b-1)a)) * (1 + z^b + ... + z^((a-1)b))

    The coefficients of the two factors' product are filled in as one dense
    0/1 row per term z^(ia) of the first factor: that row is
    z^(ia) * (1 + z^b + ... + z^((a-1)b)), a single strided slice of a
    bytearray.  The ab terms of the product are distinct exactly when ab
    bytes end up set; a row landing on a set byte would be a coefficient
    >= 2 and raises AssertionError.  IntPoly.from_indicator then reads the
    support off the bytes in one pass.

    k = 0 lists the gaps by Sylvester's reflection, with no oracle call: a
    positive n is a gap exactly when ab - n = xa + yb with x, y >= 1, so the
    gaps are

        {ab - xa - yb : 1 <= x < b, 1 <= y < a, xa + yb < ab},

    each met once.  (The rational form would need a series subtraction with
    cancellation.)
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b = p.a, p.b
    if k == 0:
        return IntPoly.from_support(
            n for x in range(1, b) for n in range(a * b - x * a - b, 0, -b)
        )
    width = (a - 1) * b + 1  # one row: exponents 0, b, ..., (a-1)b
    coeffs = bytearray((b - 1) * a + width)
    row = b"\x01" * a
    for start in range(0, b * a, a):
        coeffs[start : start + width : b] = row
    if coeffs.count(1) != a * b:
        raise AssertionError("exactly-k polynomial has a coefficient outside {0,1}")
    return IntPoly.from_indicator(coeffs, a * b * (k - 1))


def s_k_indicator(p: PairParams, k: int, bound: int) -> IndicatorSeries:
    """Indicator of "more than k representations" up to bound.

    Built via the shift rule bits_k[j] = bits_0[j - abk]: j exceeds k
    representations exactly when j - ab exceeds k-1 of them.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    shift = p.a * p.b * k
    if shift > bound:
        bits = (0,) * (bound + 1)
    else:
        counts = rep_table(p.as_params(), bound - shift).counts
        bits = (0,) * shift + tuple(bytes(map(bool, counts)))
    return IndicatorSeries(p.pair, k, bound, bits)


def rational_series(numer: IntPoly, params: Params, bound: int) -> list[int]:
    """Coefficients 0..bound of numer(z) / prod_i (1 - z^(a_i)), exactly.

    Each term c z^e adds c times the counts, shifted up by e, in one map.
    """
    counts = rep_table(params, bound).counts
    out = [0] * (bound + 1)
    for e, c in numer.terms():
        if e <= bound:
            out[e:] = map(add, out[e:], map(mul, counts, repeat(c)))
    return out


def numerator_h(params: Params, gaps: GapSet | None = None) -> IntPoly:
    """The numerator h(z) of the representable-set generating function.

    Computed by the exact identity

        h = (1 + z + ... + z^(a_1 - 1)) * prod_{i>=2} (1 - z^(a_i))
            - p_0(z) * prod_i (1 - z^(a_i))

    where p_0 is the gap polynomial, so deg h never exceeds g_0 + sum(a_i).
    The gaps come from the oracle's certified scan: `gaps` when the caller
    already holds that set (it must be for params, k = 0 and complete, else
    ValueError), otherwise enumerate_exact_k(params, 0).  The result is
    re-expanded as a series up to g_0 + sum(a_i) and compared with the gap
    indicator before being returned.
    """
    if gaps is None:
        gaps = enumerate_exact_k(params, 0)
    elif gaps.params != params:
        raise ValueError(
            f"gap set is for {gaps.params.denominations}, not {params.denominations}"
        )
    elif gaps.k != 0 or not gaps.complete:
        raise ValueError("numerator_h needs the certified gap set: k = 0 and complete")
    denoms = params.denominations
    p0 = IntPoly.from_support(gaps.elements)

    h = IntPoly.geometric(1, denoms[0])
    for a in denoms[1:]:
        h *= IntPoly.one_minus_pow(a)
    full = p0
    for a in denoms:
        full *= IntPoly.one_minus_pow(a)
    h = h - full

    g0 = gaps.elements[-1] if gaps.elements else -1
    check_to = g0 + sum(denoms)
    series = rational_series(h, params, check_to)
    expected = [1] * (check_to + 1)
    for g in gaps.elements:
        expected[g] = 0
    if series != expected:
        j = next(j for j, (v, e) in enumerate(zip(series, expected)) if v != e)
        raise AssertionError(f"numerator series mismatch at degree {j}")
    return h


def denham_term_count(params: Params) -> int:
    """Number of monomials of h(z), counted with multiplicity, for exactly
    three denominations.

    Denham's dichotomy: the count is 4 or 6.  Counting with multiplicity
    (the sum of |coefficient|) matters: symmetric complete intersections
    whose two relations share a degree collapse to 1 - 2z^d + z^(2d), e.g.
    (12, 21, 28) where 7*12 = 4*21 = 3*28 = 84 gives (1 - z^84)^2, and the
    collided middle monomial still counts twice.
    """
    if params.n != 3:
        raise WrongArity(3, params.n)
    return sum(abs(c) for _, c in numerator_h(params).terms())


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def cyclotomic_identity_check(p: PairParams) -> bool:
    """For distinct primes a, b: the representable-set series equals
    Phi_ab(z) / (1 - z).

    Checks the polynomial identity
        Phi_ab(z) (1 - z^a)(1 - z^b) == (1 - z^(ab))(1 - z)
    and, as the binding contract, the series of Phi_ab/(1-z) against the
    oracle indicator up to degree g_0 + 1 (prefix sums of Phi_ab's
    coefficients, since 1/(1-z) accumulates).
    """
    a, b = p.a, p.b
    if a == b or not _is_prime(a) or not _is_prime(b):
        raise NotPrime(a if not _is_prime(a) else b)
    phi = cyclotomic(a * b)
    lhs = phi * (IntPoly.one_minus_pow(a) * IntPoly.one_minus_pow(b))
    rhs = IntPoly.one_minus_pow(a * b) * IntPoly.one_minus_pow(1)
    if lhs != rhs:
        return False
    g0 = a * b - a - b
    limit = g0 + 1
    acc = 0
    series = []
    for j in range(limit + 1):
        acc += phi.coeff(j)
        series.append(acc)
    indicator = s_k_indicator(p, 0, limit)
    return tuple(series) == indicator.bits
