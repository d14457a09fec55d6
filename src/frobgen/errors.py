"""Exception hierarchy.

Validation errors name the offending datum so callers can report precisely
what was wrong.  Each family carries the CLI's exit code for it as the class
attribute exit_code.
"""
from __future__ import annotations


class FrobgenError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ValidationError(FrobgenError):
    """Bad input data."""

    exit_code = 2


class EmptyList(ValidationError):
    def __init__(self) -> None:
        super().__init__("denomination list is empty")


class NonPositive(ValidationError):
    def __init__(self, value: int) -> None:
        super().__init__(f"denomination {value} is not a positive integer")
        self.value = value


class NotCoprime(ValidationError):
    def __init__(self, gcd: int) -> None:
        super().__init__(f"denominations share the common factor {gcd}")
        self.gcd = gcd


class WrongArity(ValidationError):
    def __init__(self, expected: int, got: int) -> None:
        super().__init__(f"expected {expected} denominations, got {got}")
        self.expected = expected
        self.got = got


class NotPrime(ValidationError):
    def __init__(self, value: int) -> None:
        super().__init__(f"{value} is not prime (or not distinct)")
        self.value = value


class NotDivisible(FrobgenError):
    """Exact polynomial division left a nonzero remainder."""


class UnsupportedK(FrobgenError):
    """frobgen implements no closed form for this (k, m) combination."""

    exit_code = 3

    def __init__(self, k: int, m: int) -> None:
        super().__init__(
            f"no closed form implemented for power sums with k={k}, m={m}; use the oracle"
        )
        self.k = k
        self.m = m


class IncompleteSet(FrobgenError):
    """A maximum was requested of a set not proven complete."""


class InfiniteSet(FrobgenError):
    """The requested set is provably infinite."""

    exit_code = 3


class Indeterminate(FrobgenError):
    """Enumeration cannot certify completeness within the cap on entries
    scanned."""

    exit_code = 4

    def __init__(self, cap: int) -> None:
        super().__init__(
            f"enumeration did not terminate within the cap of {cap} entries scanned"
        )
        self.cap = cap


class BoundTooLarge(FrobgenError):
    """Requested table exceeds the configured memory ceiling."""

    exit_code = 4

    def __init__(self, bound: int, ceiling: int) -> None:
        super().__init__(f"bound {bound} exceeds the configured ceiling {ceiling}")
        self.bound = bound
        self.ceiling = ceiling
