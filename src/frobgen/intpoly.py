"""Exact sparse univariate polynomials over the integers.

A polynomial is a finite map exponent -> coefficient with arbitrary-precision
integer coefficients and no stored zeros.  The sparse representation is
deliberate: the polynomials that show up here (gap polynomials, rational
numerators, cyclotomics) have few terms but large degree gaps.

cyclotomic builds Phi_n on a dense coefficient list with the two binomial
steps of `dp`, the same ones that build denumerant tables: a product of
factors (1 - z^a)^(+-1) truncated at phi(n), with no recursion over
divisors and no memo.  poly_exact_div, long division on
the sparse maps, is not used by the package itself.

All arithmetic is exact; there is no floating-point path anywhere.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from typing import Iterable, Mapping

from frobgen.dp import divide_binomials, multiply_binomials
from frobgen.errors import NotDivisible
from frobgen.oracle import _check_bound


def _terms_text(terms: Iterable[tuple[int, object]], var: str, sep: str = "") -> str:
    """Text of nonzero (exponent, coefficient) pairs in the order given, "0"
    for none: a unit magnitude is dropped before a power of `var`, `sep`
    goes between any other magnitude and its power, and each term after the
    first is joined by its sign.  IntPoly and bernoulli.RatPoly print here."""
    parts: list[str] = []
    for e, c in terms:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = var if e == 1 else f"{var}^{e}"
            body = power if mag == 1 else f"{mag}{sep}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts) or "0"


def zero_one_text(exps: tuple[int, ...]) -> str:
    """IntPoly.to_text of the 0/1 polynomial with the sorted exponents exps:
    one % call over a repeated "z^%s + " template, after "1 + " and "z + "
    for exponents 0 and 1, and "0" for none.

    >>> zero_one_text((0, 1, 4))
    '1 + z + z^4'
    """
    if not exps:
        return "0"
    low = bisect_left(exps, 2)  # exponents 0 and 1 print as 1 and z
    head = "".join([("1 + ", "z + ")[e] for e in exps[:low]])
    return (head + ("z^%s + " * (len(exps) - low)) % exps[low:])[:-3]


def zero_one_json(exps: tuple[int, ...]) -> str:
    """IntPoly.to_json of the 0/1 polynomial with the sorted exponents exps,
    by one % call over a repeated '[%s,"1"],' template.

    >>> zero_one_json(())
    '{"terms":[]}'
    """
    return '{"terms":[' + ('[%s,"1"],' * len(exps))[:-1] % exps + "]}"


def zero_one_csv(exps: tuple[int, ...]) -> str:
    """IntPoly.to_csv of the 0/1 polynomial with the sorted exponents exps,
    by one % call over a repeated "%s,1" line."""
    return "exp,coeff\n" + ("%s,1\n" * len(exps)) % exps


class IntPoly:
    """Sparse integer polynomial in the variable z.

    >>> IntPoly({0: 1, 15: -1}).to_text()
    '1 - z^15'
    >>> IntPoly({0: 1, 3: 1, 6: 1, 9: 1, 12: 1}) * IntPoly({0: 1, 5: 1, 10: 1}) == IntPoly(
    ...     dict.fromkeys([0, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 22], 1))
    True
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[int, int] = {}
        for exp, coeff in items:
            if isinstance(exp, bool) or not isinstance(exp, int) or exp < 0:
                raise ValueError(f"exponent must be a nonnegative integer, got {exp!r}")
            if isinstance(coeff, bool) or not isinstance(coeff, int):
                raise ValueError(f"coefficient must be an integer, got {coeff!r}")
            if coeff:
                c = data.get(exp, 0) + coeff
                if c:
                    data[exp] = c
                else:
                    del data[exp]
        self._terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, terms: dict[int, int]) -> IntPoly:
        """Wrap, uncopied and unchecked, a term map the package built itself."""
        res = cls.__new__(cls)
        res._terms = terms
        return res

    @classmethod
    def one(cls) -> IntPoly:
        return cls({0: 1})

    @classmethod
    def one_minus_pow(cls, n: int) -> IntPoly:
        """1 - z^n."""
        return cls([(0, 1), (n, -1)])

    # -- inspection --------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def terms(self) -> tuple[tuple[int, int], ...]:
        """Terms as (exponent, coefficient) pairs in increasing exponent order."""
        return tuple(sorted(self._terms.items()))

    def is_zero_one(self) -> bool:
        """True when every coefficient is 0 or 1 (so also for the zero polynomial)."""
        return set(self._terms.values()) <= {1}

    def evaluate(self, x: int) -> int:
        return sum(c * x**e for e, c in self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: IntPoly) -> IntPoly:
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                del out[e]
        return IntPoly._of(out)

    def __neg__(self) -> IntPoly:
        return IntPoly._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly._of({e: c * other for e, c in self._terms.items()} if other else {})
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        return IntPoly._of(out)

    __rmul__ = __mul__

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, term by term in increasing exponent order
        through _terms_text.

        >>> IntPoly({1: 1, 2: 1, 4: 1, 7: 1}).to_text()
        'z + z^2 + z^4 + z^7'
        >>> IntPoly({0: -2, 3: 1}).to_text()
        '-2 + z^3'
        >>> IntPoly().to_text()
        '0'
        """
        return _terms_text(sorted(self._terms.items()), "z")

    def to_json(self) -> str:
        """JSON form with coefficients as decimal strings (arbitrary precision
        survives any JSON parser), written directly by one % call per term.

        >>> IntPoly({0: 1, 3: -2}).to_json()
        '{"terms":[[0,"1"],[3,"-2"]]}'
        >>> IntPoly({0: 1, 3: 1}).to_json()
        '{"terms":[[0,"1"],[3,"1"]]}'
        """
        return '{"terms":[' + ",".join(map('[%d,"%d"]'.__mod__, self.terms())) + "]}"

    def to_csv(self) -> str:
        """The line exp,coeff, then one line per term in increasing exponent
        order, by one % call per term.

        >>> print(IntPoly({0: 1, 3: -2}).to_csv(), end="")
        exp,coeff
        0,1
        3,-2
        """
        return "exp,coeff\n" + "".join(map("%d,%d\n".__mod__, self.terms()))

    @classmethod
    def from_json(cls, text: str) -> IntPoly:
        data = json.loads(text)
        return cls((int(e), int(c)) for e, c in data["terms"])

    def __repr__(self) -> str:
        return f"IntPoly('{self.to_text()}')"


def poly_exact_div(p: IntPoly, d: IntPoly) -> IntPoly:
    """Exact quotient q with q*d == p.

    Raises NotDivisible when the division leaves a remainder; callers use
    that as a signal of a violated polynomial identity.

    >>> poly_exact_div(IntPoly.one_minus_pow(15), IntPoly.one_minus_pow(5))
    IntPoly('1 + z^5 + z^10')
    """
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    lead_exp = max(d._terms)
    lead_coeff = d._terms[lead_exp]
    d_items = tuple(d._terms.items())
    rem = dict(p._terms)
    quot: dict[int, int] = {}
    while rem:
        re = max(rem)
        rc = rem[re]
        if re < lead_exp or rc % lead_coeff:
            raise NotDivisible(
                f"({p.to_text()}) is not divisible by ({d.to_text()})"
            )
        qe = re - lead_exp
        qc = rc // lead_coeff
        quot[qe] = qc
        for e, c in d_items:
            t = qe + e
            v = rem.get(t, 0) - qc * c
            if v:
                rem[t] = v
            else:
                rem.pop(t, None)
    return IntPoly(quot)


# Unused: cyclotomic keeps no memo; the benchmark still clears this dict.
_cyclotomic_cache: dict[int, IntPoly] = {}


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, increasing, by trial division
    (empty for n < 2)."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def cyclotomic(n: int) -> IntPoly:
    """The nth cyclotomic polynomial, by the Moebius product
    Phi_n = prod_{d | n} (1 - z^(n/d))^mu(d), negated for n = 1.

    Only squarefree d count, one per set of n's distinct primes.  The
    exponents with mu = +1 are multiplied into a coefficient list truncated
    at degree phi(n) = sum(plus) - sum(minus) first, then those with
    mu = -1 are divided out (dp's binomial steps): the result is a
    polynomial of degree phi(n), so the truncation loses nothing, while
    dividing first would build denumerants that grow huge.  n past the
    FROBGEN_MAX_BOUND ceiling raises BoundTooLarge before any work.

    >>> cyclotomic(1)
    IntPoly('-1 + z')
    >>> cyclotomic(6)
    IntPoly('1 - z + z^2')
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    _check_bound(n)
    plus, minus = [n], []
    for p in _prime_factors(n):
        plus, minus = plus + [a // p for a in minus], minus + [a // p for a in plus]
    coeffs = [1] + [0] * (sum(plus) - sum(minus))
    multiply_binomials(coeffs, plus)
    divide_binomials(coeffs, minus)
    poly = IntPoly._of({e: c for e, c in enumerate(coeffs) if c})
    return -poly if n == 1 else poly
