"""Generating-function views of representation sets.

The indicator series of "more than k representations", the 0/1 polynomial
of "exactly k representations", and the numerator polynomial h(z) with

    sum_{j representable} z^j = h(z) / prod_i (1 - z^(a_i))

are all materialized exactly and cross-checked against the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

from frobgen.closedform import _FLIP, PairParams, _p_k_bytes, _rows
from frobgen.dp import divide_binomials
from frobgen.errors import NotPrime, WrongArity
from frobgen.intpoly import IntPoly, _prime_factors, cyclotomic
from frobgen.oracle import Params, _by_count_bytes, _check_bound, _run_set

_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class IndicatorSeries:
    """bits[j] = 1 iff j has more than k representations, for j <= bound."""

    params: tuple[int, ...]
    k: int
    bound: int
    bits: bytes

    def to_bitstring(self) -> str:
        return self.bits.translate(_BIT_DIGITS).decode("ascii")

    def to_json(self) -> str:
        # The bits array is a repeated "0," with each bit's digit written
        # over its "0" by one strided copy, the last comma cut.
        params = ",".join(map(str, self.params))
        digits = bytearray(b"0,") * len(self.bits)
        digits[::2] = self.bits.translate(_BIT_DIGITS)
        bits = digits[:-1].decode("ascii")
        return f'{{"params":[{params}],"k":{self.k},"bound":{self.bound},"bits":[{bits}]}}'


def p_k_exponents(p: PairParams, k: int) -> tuple[int, ...]:
    """The exactly-k set, p_k's support, as a sorted tuple, with no oracle
    call: the set of p_k's 0/1 bytes (_p_k_bytes), expanded by _run_set.

    k >= 1 is the product form (no division involved)

        z^(ab(k-1)) * (1 + z^a + ... + z^((b-1)a)) * (1 + z^b + ... + z^((a-1)b)),

    and k = 0 the complement of the representable n <= g_0 = ab - a - b.
    For k >= 1, AssertionError is raised before any exponent is read
    unless the bytes are 0/1 with ab ones.  Past the FROBGEN_MAX_BOUND
    ceiling (2ab - a - b, resp. g_0) it raises BoundTooLarge before
    allocating.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _run_set(p.as_params(), k, *_p_k_bytes(p, k)).elements


def p_k_poly(p: PairParams, k: int) -> IntPoly:
    """0/1 polynomial whose support is the exactly-k set (p_k_exponents)."""
    return IntPoly._of(dict.fromkeys(p_k_exponents(p, k), 1))


def s_k_indicator(p: PairParams, k: int, bound: int) -> IndicatorSeries:
    """Indicator of "more than k representations" up to bound.

    r(j + ab) = r(j) + 1 for two coins, so the bits are abk zeros followed
    by the representable n <= bound - abk (_rows).  The bound goes through
    the FROBGEN_MAX_BOUND ceiling (BoundTooLarge) before any allocation.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_bound(bound)
    shift = min(p.a * p.b * k, bound + 1)
    bits = bytes(shift) + _rows(p, bound + 1 - shift)
    return IndicatorSeries(p.pair, k, bound, bits)


def rational_series(numer: IntPoly, params: Params, bound: int) -> list[int]:
    """Coefficients 0..bound of numer(z) / prod_i (1 - z^(a_i)), exactly.

    numer's coefficients up to bound, divided in place by each binomial
    (dp.divide_binomials).  The bound goes through the FROBGEN_MAX_BOUND
    ceiling (BoundTooLarge) before any allocation.
    """
    _check_bound(bound)
    series = list(map(numer.coeff, range(bound + 1)))
    divide_binomials(series, params.denominations)
    return series


def _representable(denoms: tuple[int, ...], top: int) -> bytes:
    """flags[j] = 1 iff j <= top is a sum of the coins, read off one bit per j.

    Bit j of R is set iff j is representable: R starts at 1 (only 0), and
    each coin a, repeats included, shifts R by a, 2a, 4a, ... <= top and ors
    each shift in, which adds every multiple 0..top of a.  The shifts are
    masked to bits 0..top, and R is read out lowest bit first as 0/1 bytes.
    No count is kept, so this shares nothing with the denumerant tables.
    """
    mask = (1 << top + 1) - 1
    reach = 1
    for a in denoms:
        s = a
        while s <= top:
            reach |= (reach << s) & mask
            s *= 2
    # the sentinel bit top + 1 keeps the leading zeros; [:0:-1] drops it
    return format(reach | 1 << top + 1, "b").encode()[:0:-1].translate(_BIT_FLAGS)


def numerator_h(params: Params) -> IntPoly:
    """The numerator h(z) of the representable-set generating function,
    from the gap set of the oracle's certified scan (_by_count_bytes at
    kmax 0) and checked as _numerator says."""
    return _numerator(params, *_by_count_bytes(params, 0)[0])


def _numerator(params: Params, start: int, run: bytes) -> IntPoly:
    """h(z) of params from its gap set as the scan's exactly-0 run: 0/1
    bytes, 1 at a gap, from the first gap, start, to the last, g_0.

    The gaps are checked against a bitset of the representable set up to
    g_0 + sum(a_i) (_representable, after the FROBGEN_MAX_BOUND ceiling):
    the bitset with 0 and 1 swapped must equal the run padded with zeros to
    0..g_0 + sum(a_i), one comparison of two byte strings, else
    AssertionError names the first degree where the two differ.  Agreement
    there includes a_1 consecutive representable integers past g_0, which
    certifies that no gap lies beyond, so the run is the gap set of params.

    h is then read off the Apery set of the checked gaps, with no dense
    product: the representable n = r (mod a_1) are w_r + a_1 N, where w_r is
    r plus a_1 times the number of gaps in class r (adding a_1 keeps n
    representable, so those gaps are a prefix of the class), and

        h(z) = sum_r z^(w_r) * prod_{i >= 2} (1 - z^(a_i)),

    the product taken once as a term map and shifted by each w_r.
    """
    denoms = params.denominations
    g0 = start + len(run) - 1
    top = g0 + sum(denoms)
    _check_bound(top)
    gaps = _representable(denoms, top).translate(_FLIP)
    given = b"".join((bytes(start), run, bytes(top - g0)))
    if gaps != given:
        j = next(j for j, (x, y) in enumerate(zip(gaps, given)) if x != y)
        raise AssertionError(
            f"gap indicator differs from the representable-set bitset at degree {j}"
        )
    binomials = {0: 1}
    for a in denoms[1:]:
        step = dict(binomials)
        for e, c in binomials.items():
            step[e + a] = step.get(e + a, 0) - c
        binomials = step
    a1 = params.smallest
    terms: dict[int, int] = {}
    for r in range(a1):
        w = r + a1 * gaps[r::a1].count(1)
        for e, c in binomials.items():
            e += w
            terms[e] = terms.get(e, 0) + c
    return IntPoly._of({e: c for e, c in sorted(terms.items()) if c})


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


def cyclotomic_identity_check(p: PairParams) -> bool:
    """For distinct primes a, b: the representable-set series equals
    Phi_ab(z) / (1 - z).

    Checks the polynomial identity
        Phi_ab(z) (1 - z^a)(1 - z^b) == (1 - z^(ab))(1 - z)
    and, as the binding contract, the series of Phi_ab/(1-z) against the
    oracle indicator up to degree g_0 + 1 (rational_series of Phi_ab over
    the single coin 1).
    """
    a, b = p.a, p.b
    if a == b or _prime_factors(a) != [a] or _prime_factors(b) != [b]:
        raise NotPrime(a if _prime_factors(a) != [a] else b)
    phi = cyclotomic(a * b)
    lhs = phi * (IntPoly.one_minus_pow(a) * IntPoly.one_minus_pow(b))
    rhs = IntPoly.one_minus_pow(a * b) * IntPoly.one_minus_pow(1)
    if lhs != rhs:
        return False
    limit = a * b - a - b + 1
    series = rational_series(phi, Params((1,)), limit)
    return series == list(s_k_indicator(p, 0, limit).bits)
