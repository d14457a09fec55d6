"""Brute-force ground truth for representation sets.

Everything here is defined directly from the counting definition: r(j) is
the number of ways to write j as a nonnegative combination of the
denominations.  The closed forms and generating functions elsewhere in the
package are always checked against this module.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from math import factorial, gcd, prod
from operator import lt, mul
from typing import Iterable, Iterator

from frobgen import dp
from frobgen.errors import (
    BoundTooLarge,
    EmptyList,
    IncompleteSet,
    Indeterminate,
    InfiniteSet,
    NonPositive,
    NotCoprime,
    ValidationError,
)
from frobgen.report import ORACLE, StatReport

DEFAULT_MAX_BOUND = 10_000_000
MAX_BOUND_ENV = "FROBGEN_MAX_BOUND"


def max_bound_ceiling() -> int:
    """Resource guard: the largest bound of a table or a bounded scan and the
    last j scanned for unbounded ones; override via FROBGEN_MAX_BOUND.

    The override must be a nonnegative decimal integer; anything else
    raises ValidationError naming the variable.
    """
    raw = os.environ.get(MAX_BOUND_ENV)
    if not raw:
        return DEFAULT_MAX_BOUND
    if not raw.strip().isdecimal():
        raise ValidationError(
            f"{MAX_BOUND_ENV} must be a nonnegative integer, got {raw!r}"
        )
    return int(raw)


@dataclass(frozen=True)
class Params:
    """Validated denominations: positive integers with overall gcd 1, taken
    in any order from any iterable and stored as a sorted tuple.

    Repeated values are permitted and change the counts (each coin slot is
    its own coordinate in a representation tuple).
    """

    denominations: tuple[int, ...]

    def __post_init__(self) -> None:
        denoms = tuple(self.denominations)
        if not denoms:
            raise EmptyList()
        for a in denoms:
            if isinstance(a, bool) or not isinstance(a, int) or a < 1:
                raise NonPositive(a)
        object.__setattr__(self, "denominations", tuple(sorted(denoms)))
        g = gcd(*denoms)
        if g != 1:
            raise NotCoprime(g)

    @property
    def n(self) -> int:
        return len(self.denominations)

    @property
    def smallest(self) -> int:
        return self.denominations[0]

    def __iter__(self) -> Iterator[int]:
        return iter(self.denominations)


def validate_params(raw: Iterable[int]) -> Params:
    """The Params of a raw denomination list, in any order (Params checks)."""
    return Params(raw)


def _check_bound(bound: int) -> None:
    """Refuse a negative bound (ValueError) or one past the FROBGEN_MAX_BOUND
    ceiling (BoundTooLarge), before any work is done."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    ceiling = max_bound_ceiling()
    if bound > ceiling:
        raise BoundTooLarge(bound, ceiling)


def rep_table(params: Params, bound: int) -> tuple[int, ...]:
    """Exact denumerant counts r(0), ..., r(bound); raises BoundTooLarge past
    the FROBGEN_MAX_BOUND ceiling.

    Public for callers and tests: no library path calls it (numerator_h
    checks its gap set against a bitset, and classify reads dp.rep_blocks)."""
    _check_bound(bound)
    return tuple(dp.rep_counts(params.denominations, bound))


@dataclass(frozen=True)
class GapSet:
    """The integers with exactly (or at most) k representations.

    `complete` is True only when a termination certificate proves no larger
    element exists; maxima are refused without it.  k must be an int >= 0
    (not a bool) and complete a bool; anything else raises ValueError.  The
    elements come from any iterable of strictly increasing ints >= 0 and
    are stored as a tuple; a bool, any other non-int, a negative element or
    elements that do not strictly increase raise ValueError.  The sets the
    enumerators and the pair's closed forms return are built so, by the
    scan or from 0/1 bytes (_run_set), and wrapped by _of without this
    re-check; the tests hold each equal to the set this constructor builds
    from its fields.
    """

    params: Params
    k: int
    elements: tuple[int, ...]
    complete: bool

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 0:
            raise ValueError(f"k must be an integer >= 0, got {self.k!r}")
        if not isinstance(self.complete, bool):
            raise ValueError(f"complete must be true or false, got {self.complete!r}")
        e = tuple(self.elements)
        object.__setattr__(self, "elements", e)
        # types first: the order check below would raise TypeError on a str
        if not set(map(type, e)) <= {int} or (e and e[0] < 0):
            raise ValueError("elements must be integers >= 0")
        if not all(map(lt, e, islice(e, 1, None))):
            raise ValueError("elements must be strictly increasing")

    @classmethod
    def _of(
        cls, params: Params, k: int, elements: tuple[int, ...], complete: bool
    ) -> GapSet:
        """Wrap, uncopied and unchecked, a set the scan built itself: its
        elements are a tuple of strictly increasing ints >= 0 by
        construction."""
        res = cls.__new__(cls)
        res.__dict__.update(params=params, k=k, elements=elements, complete=complete)
        return res

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def maximum(self) -> int | None:
        """Largest element (None when empty); requires a complete set."""
        if not self.complete:
            raise IncompleteSet(
                "maximum requested of a set not proven complete"
            )
        return self.elements[-1] if self.elements else None

    def power_sum(self, m: int) -> int:
        """Exact sum of j**m over the elements; m must be >= 0."""
        if m < 0:
            raise ValueError("m must be >= 0")
        e = self.elements
        if m == 0:
            return len(e)
        if m == 1:
            return sum(e)
        return sum(map(pow, e, repeat(m)))

    def power_sums(self, mmax: int) -> list[int]:
        """[power_sum(0), ..., power_sum(mmax)]; mmax must be >= 0.

        Order m sums the products of the rows of powers m // 2 and
        m - m // 2, so only the rows up to (mmax + 1) // 2 are built, each
        the row before times the elements, and no row is built that no
        later order reads: orders 2, 3 and 4 all come from the squares.
        Each j**m costs one multiplication.
        """
        if mmax < 0:
            raise ValueError("m must be >= 0")
        e = self.elements
        sums = [len(e), sum(e)]
        rows = [(), e]  # rows[t] = the elements to the power t
        for m in range(2, mmax + 1):
            if 2 * m - 1 <= mmax:  # a later order reads this row
                rows.append(list(map(mul, rows[-1], e)))
                sums.append(sum(rows[m]))
            else:
                sums.append(sum(map(mul, rows[m // 2], rows[m - m // 2])))
        return sums[: mmax + 1]

    def to_json(self) -> str:
        """Compact JSON with the elements as decimal strings, written
        directly: the elements by one % call over a repeated '"%s",'
        template."""
        params = ",".join(map(str, self.params.denominations))
        elements = ('"%s",' * len(self.elements))[:-1] % self.elements
        complete = "true" if self.complete else "false"
        return (
            f'{{"params":[{params}],"k":{self.k},"complete":{complete},'
            f'"elements":[{elements}]}}'
        )

    @classmethod
    def from_json(cls, text: str) -> GapSet:
        data = json.loads(text)
        return cls(
            params=Params(data["params"]),
            k=data["k"],
            elements=map(int, data["elements"]),
            complete=data["complete"],
        )

    def to_csv(self) -> str:
        """One element per line, by one % call over a repeated "%s" line."""
        return ("%s\n" * len(self.elements)) % self.elements


def _scan(
    params: Params, k: int, at_most: bool, bound: int | None, split: bool = False
) -> tuple[list | tuple, bool]:
    """(found, complete) of one query: the scan up to `bound`, or without
    one the certified set.

    The query's one plan.  Refuses k < 0 (ValueError) and a bound
    _check_bound refuses.  Without a bound, a single coin is settled
    analytically; otherwise the cap is the FROBGEN_MAX_BOUND ceiling and
    Indeterminate is raised when the window has not closed by then, at once
    (before _stream allocates anything) when _window_floor already places it
    past the cap.  `split` is _stream's.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if bound is not None:
        _check_bound(bound)
        cap = bound
    elif params.n == 1:
        # One denomination forces a_1 = 1 and r(j) = 1 for every j >= 0, so
        # the window criterion can never certify k >= 1; settle analytically.
        if k >= 1 if at_most else k == 1:
            raise InfiniteSet(
                f"every j >= 0 has exactly 1 representation; the requested set is infinite (k={k})"
            )
        return ([(0, b"")] * (k + 1) if split else ()), True
    else:
        cap = max_bound_ceiling()
    # a_1, whose window certifies, and every other coin that reaches j <= cap
    coins = [params.smallest] + [a for a in params.denominations[1:] if a <= cap]
    floor = _window_floor(coins, k)
    if bound is None and (floor is None or floor > cap):
        raise Indeterminate(cap)
    found, complete = _stream(coins, k, at_most, cap, floor, split)
    if bound is None and not complete:
        raise Indeterminate(cap)
    return found, complete


def _window_floor(coins: list[int], k: int) -> int | None:
    """The least j at which a window of a_1 counts > k can end, or None when
    none can end anywhere.

    `coins` are a_1 and every other denomination <= some cap; no other coin
    reaches j <= that cap.  If their gcd d is not 1, d divides a_1, so every
    window holds a j not divisible by d, with r(j) = 0.  Otherwise the
    counts in a window ending at W sum to the number of x' >= 0 with
    a_2 x_2 + ... + a_m x_m <= W (exactly one x_1 puts each such x' in the
    window), which must be at least a_1 (k+1).  The unit cubes above those
    x' are disjoint and lie in a simplex of volume
    (W + a_2 + ... + a_m)^(m-1) / ((m-1)! a_2 ... a_m).
    """
    if gcd(*coins) != 1:
        return None
    e = len(coins) - 1
    points = factorial(e) * prod(coins) * (k + 1)
    if e == 0:
        return 0 if points == 1 else None
    # the least r with r**e >= points: Newton's floor root from above, + 1
    # unless exact
    r = 1 << -(-points.bit_length() // e)
    while (s := ((e - 1) * r + points // r ** (e - 1)) // e) < r:
        r = s
    r += r**e < points
    return max(0, r - sum(coins) + coins[0])


BLOCK = 1 << 10  # counts per block after the first
FIRST_MAX = 1 << 13  # the first block's most counts
FLIP = bytes.maketrans(b"\0\x80", b"\x80\0")
# _ONE_AT[c] maps byte c to 1 and every other byte to 0
_ONE_AT = tuple(bytes(c) + b"\1" + bytes(255 - c) for c in range(256))
# where a native 16-bit value keeps its low and its high byte
_LOW, _HIGH = (0, 1) if sys.byteorder == "little" else (1, 0)


def _stream(
    coins: list[int],
    k: int,
    at_most: bool,
    cap: int,
    floor: int | None,
    split: bool = False,
) -> tuple[list | tuple, bool]:
    """Scan r(0), r(1), ..., r(cap) a block at a time and stop when the
    a_1-window closes.

    `coins` (a_1 and every other denomination <= cap) and `floor` (their
    _window_floor for k) are _scan's plan; `split` implies `at_most`.

    A window of a_1 consecutive counts > k proves that every later j has
    more than k representations too: adding a_1 never lowers a count, and
    every later j is a window entry plus copies of a_1.

    r(j) is the z^j coefficient of 1 / prod(1 - z^{a_i}).  Taking the
    factors one coin at a time gives t_i(j) = t_{i-1}(j) + t_i(j - a_i) with
    t_0(j) = [j == 0] and r(j) = t_n(j).  The scan keeps min(t_i(j), K)
    with K = k + 1, which answers every test below, by clamping to K after
    each coin: min(K, min(K, x) + min(K, y)) = min(K, x + y).

    A block packs the counts of L consecutive j into w-bit fields of one
    int, the first j in the lowest field.  Coin i adds its tail, the last
    a_i values of t_i before the block, then divides by 1 - z^{a_i} within
    the block in doubling shift-and-add steps.  The tail is a bytearray:
    each block reads its first min(a_i, L) fields, and once the block's
    flags show that another block follows, drops them and appends the
    block's last min(a_i, L), so a block costs O(L w) whatever the coins.
    Every tail is zero before the first block, which reads none, and the
    last block writes none.  At most j = cap is scanned, so a coin
    a_i > cap other than a_1 adds nothing and is skipped, and no tail holds
    more than cap + 1 fields.

    Before its clamp a field is at most K (ceil(L / a_1) + 1): K for each
    term of the sum, and K more from the tail.  w is the least multiple of
    8 that keeps this below 2^(w-1), so adding 2^(w-1) - K to every field
    sets the top bit of those >= K and carries into none; the clamp runs
    only when some top bit is set, since it is the identity otherwise.  The
    test of each count against k reaches Python as one byte per j, the top
    byte of each field.

    `split` reads the kept counts from one byte plane of the clamped block,
    over the span from the block's first kept j to its last.  When K < 256
    that is the plane of the fields' low bytes, where every count past k
    reads K, and each count 0..k is probed there: a find that misses costs
    less than a pass for the plane's min and max.  Otherwise the block is
    rebased in chunks of 255 counts from cb = the least count of the span,
    each chunk one plane.  y = (x | top) - cb ones, its top bits cleared,
    holds c - cb for a count c >= cb and 2^(w-1) + c - cb for one below,
    without a borrow as cb <= k < 2^(w-1).  Since 2^(w-1) > 2K, that is
    >= 255 for every c outside the chunk cb..cb + 254, and one more SWAR
    add sets the low byte of those fields to 255, so the low byte plane of
    y reads c - cb for a count in the chunk and 255 for any other.  The
    span's least and largest counts, which bound the chunks, come to a unit
    of 256^(p-1) from the min and max of the two byte planes below and at
    K's top bit (byte p), read as 16-bit values.  Each count found in a
    plane is bounded by one find and one rfind, the bytes between are
    mapped to 0/1 by one translate, and that is appended to the count's
    run, after zero bytes for the j since its run last ended.

    The first block reaches Sum a_i past `floor`, where most windows
    close, but holds at most FIRST_MAX counts: a longer block needs more
    doubling steps per count and wider fields.  Later blocks hold BLOCK
    counts.  The window has closed iff the last a_1 or more counts scanned
    exceed k, so a block's flags settle it.

    Returns (found, complete): complete is True iff the window closes by
    cap; found is a tuple of every collected j up to there, in increasing
    order, which GapSet._of wraps without a copy.  With `split`, found is
    one (start, run) per count c = 0..k instead: run holds, from j = start,
    one byte per j, 1 iff r(j) = c, and starts and ends with a 1; an empty
    set has start 0 and an empty run.
    """
    width = coins[0]
    steps = [min(a, cap + 1) for a in coins]
    first = BLOCK if floor is None else min(floor + sum(steps) + 1, FIRST_MAX)
    K = k + 1
    longest = min(max(first, BLOCK), cap + 1)
    spread = K * (-(-longest // steps[0]) + 1)
    wb = (spread.bit_length() + 8) // 8  # the fewest bytes with spread < 2^(8 wb - 1)
    w = 8 * wb
    found: list = []
    if split:
        starts, runs = [0] * K, [bytearray() for _ in range(K)]
        p = (K.bit_length() - 1) // 8  # the byte that holds K's top bit
    tails = [bytearray(a * wb) for a in steps]
    x = 1  # t_0(0) in the first block's first field
    last = -1  # the last j so far whose count is <= k
    j0, size, length = 0, min(first, cap + 1), 0
    while True:
        if size != length:
            length, bits = size, size * w
            mask = (1 << bits) - 1
            top = int.from_bytes((bytes(wb - 1) + b"\x80") * length, "little")
            full = (top >> (w - 1)) * K
            over_k = top - full  # + a field >= K sets its top bit
            if split and p:  # w >= 16 here, as 2^(w-1) > 2K >= 512
                ones = top >> (w - 1)
                below_255 = ones * ((1 << (w - 1)) - 255)  # + a field >= 255 sets its top bit
        xs = []  # t_i over the block, for the tails of the next one
        for a, tail in zip(steps, tails):
            if j0:  # every tail is zero before the first block
                x += int.from_bytes(tail[: min(a, length) * wb], "little")
            shift = a * w
            while shift < bits:
                x += (x << shift) & mask
                shift <<= 1
            h = (x + over_k) & top
            if h:  # with no field >= K the clamp changes nothing
                x ^= ((h << 1) - (h >> (w - 1))) & (x ^ full)
            xs.append(x)
        # one byte per j, 0x80 where its count is <= k
        flags = h.to_bytes(bits // 8, "little")[wb - 1 :: wb].translate(FLIP)
        kept = flags.rstrip(b"\0")
        if kept:
            last = j0 + len(kept) - 1
            if not (at_most or k == 0):
                # exactly k: >= k but not >= K
                h ^= (x + over_k + (top >> (w - 1))) & top
                kept = h.to_bytes(bits // 8, "little")[wb - 1 :: wb].rstrip(b"\0")
            lo = len(kept) - len(kept.lstrip(b"\0"))
            js = range(j0 + lo, j0 + len(kept))
            if split:
                span = slice(lo * wb, len(kept) * wb, wb)  # a field's low byte
                if not p:
                    most = k
                    planes = [(0, x.to_bytes(bits // 8, "little")[span])]
                else:
                    buf = x.to_bytes(bits // 8, "little")
                    key = bytearray(2 * (len(kept) - lo))  # bytes p - 1 and p of each count
                    key[_LOW::2] = buf[lo * wb + p - 1 : len(kept) * wb : wb]
                    key[_HIGH::2] = buf[lo * wb + p : len(kept) * wb : wb]
                    key = memoryview(key).cast("H")
                    unit = 1 << 8 * (p - 1)
                    least, most = min(key) * unit, min(max(key) * unit + unit - 1, k)
                    planes = []
                    for cb in range(least, most + 1, 255):
                        y = (x | top) - cb * ones
                        y ^= y & top
                        y |= (((y + below_255) & top) >> (w - 1)) * 255
                        planes.append((cb, y.to_bytes(bits // 8, "little")[span]))
                for cb, plane in planes:
                    for c in range(min(255, most + 1 - cb)):
                        s = plane.find(c)
                        if s < 0:
                            continue
                        run, at = runs[cb + c], js[s]
                        if run:
                            run += bytes(at - starts[cb + c] - len(run))
                        else:
                            starts[cb + c] = at
                        run += plane[s : plane.rfind(c) + 1].translate(_ONE_AT[c])
            else:  # read once, into the tuple returned
                found.append(compress(js, kept[lo:]))
        j0 += length
        closed = j0 - 1 - last >= width
        if closed or j0 > cap:
            if split:
                return list(zip(starts, runs)), closed
            return tuple(chain.from_iterable(found)), closed
        for a, tail, x in zip(steps, tails, xs):
            n = min(a, length) * wb  # the bytes this block read, now stale
            del tail[:n]
            tail += (x >> bits - 8 * n).to_bytes(n, "little")
        size, x = min(BLOCK, cap + 1 - j0), 0


def enumerate_exact_k(params: Params, k: int, bound: int | None = None) -> GapSet:
    """All j with exactly k representations.

    Scan the counts a block at a time until a window of a_1 consecutive
    counts all exceed k, which proves the set has been seen in full.  With
    a bound (at most the FROBGEN_MAX_BOUND ceiling, else BoundTooLarge):
    stop there at the latest, with everything found and complete only if
    the window closed.  Without one: raise Indeterminate when the window
    has not closed by j = the ceiling, at once when a lower bound on the
    window's position already lies past it.
    """
    return GapSet._of(params, k, *_scan(params, k, False, bound))


def enumerate_at_most_k(params: Params, k: int, bound: int | None = None) -> GapSet:
    """All j with at most k representations; same termination criterion and
    the same FROBGEN_MAX_BOUND ceiling."""
    return GapSet._of(params, k, *_scan(params, k, True, bound))


def _by_count_bytes(params: Params, kmax: int) -> list[tuple[int, bytearray]]:
    """The runs of the certified scan behind enumerate_at_most_k(params,
    kmax), split by count: runs[k] is (start, run), the exactly-k set as 0/1
    bytes from its first element, start, to its last (_stream's `split`).

    The same _scan plan and refusals as enumerate_at_most_k: the
    FROBGEN_MAX_BOUND cap and its refusal before the scan apply at kmax, and
    the scan's window of a_1 counts > kmax also certifies every smaller k.
    An unbounded scan that does not close raises Indeterminate, so every
    run it returns is a complete set.
    """
    return _scan(params, kmax, True, None, split=True)[0]


def _run_set(params: Params, k: int, start: int, run: bytes) -> GapSet:
    """The complete GapSet of the 0/1 bytes run from position start, a
    nonzero byte a member, expanded by one compress and wrapped by _of
    unchecked: the package's one expansion of bytes into a set, for the
    certified scan's runs (_by_count_bytes) and the pair's product forms
    (closedform._p_k_bytes), both complete."""
    return GapSet._of(params, k, tuple(compress(range(start, start + len(run)), run)), True)


def enumerate_by_count(params: Params, kmax: int) -> list[GapSet]:
    """The exactly-k sets for every k <= kmax, from one certified scan,
    indexed by k.

    Each set is expanded from its 0/1 run (_by_count_bytes, _run_set).  The
    at-most-k set is the disjoint union of exact[0..k], so none is built:
    kmax + 1 GapSets in all, every one complete.
    """
    return [_run_set(params, k, *run) for k, run in enumerate(_by_count_bytes(params, kmax))]


def oracle_report(gap_set: GapSet, stat: str, m: int | None = None) -> StatReport:
    """One statistic read off an enumerated set, under its StatReport name.

    g and g<= are the maximum, which requires a complete set (IncompleteSet
    otherwise); c and c<= the cardinality; s and s<= the sum; s^m the power
    sum of order m, which must be given.  Counts and sums are over the
    elements as given.  Any other name raises ValueError.
    """
    if stat in ("g", "g<="):
        value = gap_set.maximum
    elif stat in ("c", "c<="):
        value = len(gap_set)
    elif stat in ("s", "s<="):
        value = gap_set.power_sum(1)
    elif stat == "s^m":
        if m is None:
            raise ValueError("s^m needs an order m")
        value = gap_set.power_sum(m)
    else:
        raise ValueError(f"unknown statistic {stat!r}")
    return StatReport(
        stat,
        gap_set.params.denominations,
        gap_set.k,
        value,
        m=m if stat == "s^m" else None,
        provenance=ORACLE,
    )


def oracle_stats(gap_set: GapSet, m: int = 1) -> list[StatReport]:
    """[g, c, s] when m is 1, else [g, c, s^m]: oracle_report of each, so g
    needs a complete set and m must be >= 0."""
    power = "s" if m == 1 else "s^m"
    return [oracle_report(gap_set, name, m) for name in ("g", "c", power)]
