"""Bernoulli polynomials and exact power-sum polynomials.

Convention: B_n(x) is defined by the generating function z*e^(xz)/(e^z - 1),
so B_1(x) = x - 1/2 (and B_1(0) = -1/2).  The power-sum polynomials are

    beta_k(x) := (B_k(x) - B_k(0)) / k = sum_{j=0}^{x-1} j^(k-1).

The polynomials are exact rational arithmetic via fractions.Fraction and
are part of the public API.  The closed forms do not use them: they need
the power sums only at integers, which closedform.power_sums_below gets
in plain integers by Pascal's identity.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable

from frobgen.intpoly import _terms_text


class RatPoly:
    """Dense univariate polynomial over exact rationals (index = exponent).

    Dense on purpose: Bernoulli polynomials have essentially full support.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | None:
        return len(self._coeffs) - 1 if self._coeffs else None

    def coeff(self, exp: int) -> Fraction:
        return self._coeffs[exp] if exp < len(self._coeffs) else Fraction(0)

    def evaluate(self, x: int | Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def to_text(self) -> str:
        """Terms in decreasing exponent order, a space before each power."""
        nonzero = [(e, c) for e, c in enumerate(self._coeffs) if c]
        return _terms_text(reversed(nonzero), "x", " ")

    def __repr__(self) -> str:
        return f"RatPoly('{self.to_text()}')"


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n = B_n(0), with B_1 = -1/2.

    Recurrence: sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    s = sum(comb(n + 1, j) * bernoulli_number(j) for j in range(n))
    return Fraction(-s, n + 1)


@lru_cache(maxsize=None)
def bernoulli_poly(n: int) -> RatPoly:
    """B_n(x) = sum_{k=0}^{n} C(n, k) B_{n-k} x^k, exactly.

    >>> bernoulli_poly(2).to_text()
    'x^2 - x + 1/6'
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return RatPoly([comb(n, k) * bernoulli_number(n - k) for k in range(n + 1)])


@lru_cache(maxsize=None)
def beta_poly(k: int) -> RatPoly:
    """beta_k(x) = (B_k(x) - B_k(0)) / k; at a positive integer x this equals
    sum_{j=0}^{x-1} j^(k-1).

    >>> beta_poly(1).to_text()
    'x'
    >>> beta_poly(3).evaluate(5)
    Fraction(30, 1)
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    b = bernoulli_poly(k).coefficients
    return RatPoly([Fraction(0)] + [c / k for c in b[1:]])
