"""Command-line front end.

Subcommands:
    compute    one statistic (closed form for two denominations, oracle else)
    enumerate  the exactly-k or at-most-k set
    classify   j, count, class table up to a bound
    genfun     p_k, or one of --numerator, --denham, --cyclotomic N, --indicator
    verify     closed-form vs oracle on --params a,b or every coprime pair up
               to --sweep MAXB (exactly one); nonzero exit on any mismatch

Output is plain, json or csv; verify and genfun --denham have no csv.
Each call makes one argparse pass (_parse_args), and p_k and the indicator
series are printed straight from their exponents and bits.

Exit codes: 0 success, 1 mathematical mismatch, 2 input validation or a
refused flag combination, 3 unsupported request, 4 resource guard, 141
stdout closed by its reader (128 + SIGPIPE).  The resource ceiling (largest
--bound, last entry scanned for unbounded queries, largest N for
genfun --cyclotomic, largest 2ab - a - b for genfun --params a,b --k K
with K >= 1 and ab - a - b with K = 0, largest --m for compute --stat sm
and --mmax for verify, furthest entry the last verify --sweep pair
touches) can be overridden via FROBGEN_MAX_BOUND, which must be a
nonnegative integer (anything else exits 2).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from gettext import gettext
from itertools import repeat
from math import gcd
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from frobgen.closedform import (
    PairParams,
    _at_most,
    _count,
    _frobenius,
    _p_k_bytes,
    _power_sums_by_k,
    _sum,
    _zero_one,
    closed_report,
)
from frobgen.dp import rep_blocks
from frobgen.errors import FrobgenError, ValidationError, WrongArity
from frobgen.genfun import (
    _BIT_DIGITS,
    denham_term_count,
    numerator_h,
    p_k_exponents,
    s_k_indicator,
)
from frobgen.intpoly import IntPoly, cyclotomic, zero_one_csv, zero_one_json, zero_one_text
from frobgen.oracle import (
    GapSet,
    Params,
    _by_count_bytes,
    _check_bound,
    _run_set,
    enumerate_at_most_k,
    enumerate_exact_k,
    oracle_report,
)
from frobgen.report import AT_MOST_STATS

# --stat flag -> StatReport name
STATS = {"g": "g", "c": "c", "s": "s", "sm": "s^m", "gle": "g<=", "cle": "c<=", "sle": "s<="}


def _parse_params(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _emit_json(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


# A table is written, and classify's counts computed, in runs of this many
# decades (ten times as many rows), so no whole table or text exists at once.
_RUN_DECADES = 4096


def _count_rows(
    blocks: Iterable[list[int]],
    decade: str,
    zero: str,
    after_j: str,
    after_counts: Sequence[str],
    first: str | None = None,
) -> Iterator[str]:
    """The rows of a count table, one string per block of counts.

    Row j = 10q + d, with count c = r(j), is decade % q (zero for q = 0),
    then str(d) + after_j, then str(c) + s for each s in after_counts;
    row 0 starts with first in place of zero, when it is given.  Each block
    starts at a multiple of 10 and its rows are one "".join over a list of
    pieces: a repeated ten-row skeleton holds the constants, and one strided
    slice copy per digit places the decade prefixes (one % per ten rows),
    and one per column the counts, converted once by repr.
    """
    step = 2 + 2 * len(after_counts)
    skeleton = []
    for d in range(10):
        skeleton += [None, f"{d}{after_j}"]
        for s in after_counts:
            skeleton += [None, s]
    lo = 0
    for block in blocks:
        n = len(block)
        decades = -(-n // 10)
        pieces = skeleton * decades
        del pieces[step * n :]
        q0 = lo // 10
        prefixes = list(map(decade.__mod__, range(q0, q0 + decades)))
        if q0 == 0:
            prefixes[0] = zero
        for d in range(10):
            pieces[step * d :: 10 * step] = prefixes[: len(range(d, n, 10))]
        texts = list(map(repr, block))
        for col in range(2, step, 2):
            pieces[col::step] = texts
        if q0 == 0 and first is not None:
            pieces[0] = first
        yield "".join(pieces)
        lo += n


def _digit_column(lo: int, hi: int, v: int) -> bytes:
    """The digit at place value v of each j in lo..hi-1, as ASCII.

    Over j it is the period b"0" * v + b"1" * v + ... + b"9" * v, repeated
    and cut at lo % 10v.  When lo..hi-1 meets at most ten runs of one digit,
    those runs are cut to it instead, so no buffer built here holds more
    than about 3(hi - lo) bytes, whatever v.
    """
    q0, q1 = lo // v, (hi - 1) // v
    if q1 - q0 < 10:
        return b"".join(
            (b"%d" % (q % 10)) * (min(hi, q * v + v) - max(lo, q * v)) for q in range(q0, q1 + 1)
        )
    period = b"".join((b"%d" % d) * v for d in range(10))
    start = lo % (10 * v)
    return (period * ((start + hi - lo) // (10 * v) + 1))[start : start + hi - lo]


def _bit_rows(bits: bytes) -> Iterator[str]:
    """"".join(f"{j},{b}\n" for j, b in enumerate(bits)) for 0/1 bytes bits,
    in pieces whose concatenation is that text.

    Every row of one digit band of j (0-9, 10-99, ...) has the same width,
    so a piece of a band starts as one bytearray of a repeated row, and each
    digit place of j (_digit_column) and the bit column, bits as ASCII, is
    written by one strided slice copy.  A band is cut into pieces of at most
    10 * _RUN_DECADES rows.
    """
    n, run = len(bits), 10 * _RUN_DECADES
    band, width = 0, 1
    while band < n:
        band_end = min(10**width, n)
        stride = width + 3  # width digits, ",", the bit, "\n"
        for lo in range(band, band_end, run):
            hi = min(lo + run, band_end)
            rows = bytearray(b"0" * width + b",0\n") * (hi - lo)
            for place in range(width):
                rows[width - 1 - place :: stride] = _digit_column(lo, hi, 10**place)
            rows[width + 1 :: stride] = bits[lo:hi].translate(_BIT_DIGITS)
            yield rows.decode("ascii")
        band, width = band_end, width + 1


def _write_rows(head: str, pieces: Iterable[str], end: str) -> None:
    out = sys.stdout
    out.write(head)
    out.writelines(pieces)
    out.write(end)


# -- compute -----------------------------------------------------------------


def cmd_compute(args: argparse.Namespace) -> int:
    stat = STATS[args.stat]
    if args.m is not None and stat != "s^m":
        raise ValidationError("--m is only read with --stat sm")
    params = Params(args.params)
    if stat == "s^m":
        if args.m is None:
            raise ValidationError("--stat sm requires --m")
        if args.m < 0:
            raise ValidationError(f"--m must be >= 0, got {args.m}")
        # m sizes the power-sum work of the closed form and every power j**m
        _check_bound(args.m)
    if params.n == 2 and not args.oracle:
        report = closed_report(PairParams(*params.denominations), stat, args.k, args.m)
    else:
        fn = enumerate_at_most_k if stat in AT_MOST_STATS else enumerate_exact_k
        report = oracle_report(fn(params, args.k), stat, args.m)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print(report.to_csv())
    else:
        print(report.to_plain())
    return 0


# -- enumerate ----------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    params = Params(args.params)
    fn = enumerate_at_most_k if args.at_most else enumerate_exact_k
    gs: GapSet = fn(params, args.k, args.bound)
    if args.format == "json":
        print(gs.to_json())
    elif args.format == "csv":
        sys.stdout.write(gs.to_csv())
    else:
        kind = "at-most" if args.at_most else "exactly"
        print(
            f"# params={','.join(map(str, params))} {kind} k={args.k} "
            f"count={len(gs)} complete={str(gs.complete).lower()}"
        )
        n = len(gs.elements)
        print(("%s " * n)[:-1] % gs.elements if n else "(empty)")
    return 0


# -- classify -----------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    # The table is computed and written block by block (_count_rows), so
    # the ceiling is checked before the first row is written.
    params = Params(args.params)
    _check_bound(args.bound)
    blocks = rep_blocks(params.denominations, args.bound, 10 * _RUN_DECADES)
    if args.format == "json":
        denoms = ",".join(map(str, params.denominations))
        rows = _count_rows(blocks, ',{"j":%d', ',{"j":', ',"count":"', ('","k":"', '"}'), '{"j":')
        _write_rows(f'{{"params":[{denoms}],"bound":{args.bound},"rows":[', rows, "]}\n")
    elif args.format == "csv":
        _write_rows("j,count,k\n", _count_rows(blocks, "%d", "", ",", (",", "\n")), "")
    else:
        width = max(len(str(args.bound)), 1)
        rows = _count_rows(blocks, f"%{width - 1}d", " " * (width - 1), "  r=", ("\n",))
        _write_rows("", rows, "")
    return 0


# -- genfun ---------------------------------------------------------------


def _emit_poly(poly: IntPoly, fmt: str) -> None:
    if fmt == "json":
        print(poly.to_json())
    elif fmt == "csv":
        sys.stdout.write(poly.to_csv())
    else:
        print(poly.to_text())


def cmd_genfun(args: argparse.Namespace) -> int:
    # The parser admits at most one of the mode flags; with none, p_k.  A
    # flag the chosen mode does not read is refused, not ignored.
    if args.bound is not None and not args.indicator:
        raise ValidationError("--bound is only read with --indicator")
    if args.k is not None and (args.numerator or args.denham or args.cyclotomic is not None):
        raise ValidationError("--k is not read with --numerator, --denham or --cyclotomic")
    if args.cyclotomic is not None:
        if args.params is not None:
            raise ValidationError("--params is not read with --cyclotomic")
        if args.cyclotomic < 1:
            raise ValidationError(f"--cyclotomic must be at least 1, got {args.cyclotomic}")
        _emit_poly(cyclotomic(args.cyclotomic), args.format)
        return 0
    if args.params is None:
        raise ValidationError("--params is required unless --cyclotomic is used")
    params = Params(args.params)
    if args.numerator:
        _emit_poly(numerator_h(params), args.format)
        return 0
    if args.denham:
        if args.format == "csv":
            raise ValidationError("--denham has no csv format")
        count = denham_term_count(params)
        if args.format == "json":
            _emit_json({"params": list(params.denominations), "term_count": count})
        else:
            print(count)
        return 0
    if params.n != 2:
        raise WrongArity(2, params.n)
    pair = PairParams(*params.denominations)
    k = 0 if args.k is None else args.k
    if args.indicator:
        if args.bound is None:
            raise ValidationError("--indicator requires --bound")
        series = s_k_indicator(pair, k, args.bound)
        if args.format == "json":
            print(series.to_json())
        elif args.format == "csv":
            _write_rows("j,bit\n", _bit_rows(series.bits), "")
        else:
            print(series.to_bitstring())
        return 0
    # p_k is printed from its exponents, with no IntPoly built
    exps = p_k_exponents(pair, k)
    if args.format == "json":
        print(zero_one_json(exps))
    elif args.format == "csv":
        sys.stdout.write(zero_one_csv(exps))
    else:
        print(zero_one_text(exps))
    return 0


# -- verify ---------------------------------------------------------------


# maps every nonzero byte to 1: a coefficient's bytes to its support
_SUPPORT = b"\0" + b"\1" * 255


def _shift_rows(shift: int, m: int) -> list[list[int]]:
    """rows[n][t] = C(n, t) shift^(n-t) for 0 <= t <= n <= m (0^0 = 1).

    Entry t of row n + 1 is shift times entry t of row n plus entry t - 1:
    Pascal's rule, each step down a column carrying one more factor of shift.
    """
    rows = [[1]]
    for _ in range(m):
        row = rows[-1]
        rows.append([*map(add, map(mul, row, repeat(shift)), [0, *row]), 1])
    return rows


def _shift_sums(rows: list[list[int]], sums: list[int]) -> list[int]:
    """The power sums of X + shift from those of X, orders 0..len(rows) - 1,
    rows from _shift_rows(shift, ...): P_n(X + shift) = sum_t C(n, t)
    shift^(n-t) P_t(X), by the binomial theorem.

    >>> _shift_sums(_shift_rows(10, 2), [2, 3, 5])  # {1, 2} -> {11, 12}
    [2, 23, 265]
    """
    return [sum(map(mul, row, sums)) for row in rows]


# one verify row per k: these checks in this order, then s^m for m = 0..mmax
_ROW = ("g", "c", "s", "p_k 0/1 coefficients", "p_k support", *AT_MOST_STATS)


def verify_pair(a: int, b: int, kmax: int, mmax: int) -> tuple[int, list[dict]]:
    """All closed-form vs oracle checks for one coprime pair.

    The oracle side is one certified scan per pair (_by_count_bytes up to
    the kmax window), which yields every exactly-k set E_k as a 0/1 run:
    its bytes from its first element to its last, so g is the run's last
    position.  A set is expanded into a complete GapSet (by oracle._run_set)
    only when it is walked.  Each set's sum and s^m values are its power
    sums, walked (GapSet.power_sums) for E_0 and E_1.  For k >= 2, when both
    E_(k-1) and E_k passed the "p_k support" comparison, E_k is E_(k-1)
    translated by ab, so its sums are stepped from E_(k-1)'s by the binomial
    theorem (_shift_sums), with no GapSet built, in about (m + 1)^2 / 2
    products for m = max(mmax, 1) orders against about ab * m for a walk:
    the step is taken only when m < ab.  Any other set is
    walked, and the next k steps from that walked set.  The step reads the
    oracle's own sets and none of closedform's helpers, so a fault in the
    closed form's step by ab still fails at every k it reaches.  The
    at-most-k set is the disjoint union of the exactly-j sets, j <= k, so
    its oracle values are running totals of theirs: the max (over nonempty
    sets) and two sums.  numerator_h works from that scan's gap set, checks
    it against a bitset of the representable set and reads h off that
    bitset's Apery set, with no denumerant table and no dense product; no
    closed form scans, so nothing scans again, a = 1 included.  h is
    compared with 1 - z^ab as a polynomial, and both are rendered as text
    only for a failure entry.

    The closed-form side is checked in the form it is computed in, with
    nothing built in between.  g, c and s, of the exactly-k and of the
    at-most-k set alike, are the integers of closedform's formulas.  p_k is
    read off its 0/1 bytes from closedform's one builder, _p_k_bytes, with
    strict=False: the complement of the representable n <= g_0 for k = 0,
    and for k >= 1 the pair's product-form bytes, since every exactly-k set
    with k >= 1 is the sumset {ia + jb} translated by ab(k-1).  Those bytes,
    their 0/1 check (every byte 0 or 1 and ab of them 1, which a collision
    of two sums lowers) and their support (every nonzero byte made 1, then
    cut to its first 1 through its last) are read once per pair; per k, E_k
    matches iff its run starts at ab(k-1) plus the support's first 1 and
    equals the support's bytes, one compare of bytes.  A coefficient 2 thus
    fails the 0/1 check alone.  The s^m values of every k come from one
    table, closedform._power_sums_by_k, which steps each k's sums from the
    last k's by ab.

    Each k gives one oracle row and one closed row, entry for entry the
    checks of _ROW and then s^m for m = 0..mmax (k >= 1): the 0/1 and
    support entries are the form's flags against True.  The two tables are
    compared once per pair.  Only on a mismatch are the rows walked, in k
    order and then row order, each differing entry giving one failure; a
    failed "p_k support" entry gives both sets as elements, built only then
    from the run and the form's bytes (by _run_set).
    Returns (number of checks run, failures); each failure is a JSON-ready
    dict naming the check and both values.
    """
    failures: list[dict] = []

    def fail(name: str, k: int | None, m: int | None, expected, actual) -> None:
        entry: dict = {"check": name, "a": a, "b": b}
        if k is not None:
            entry["k"] = k
        if m is not None:
            entry["m"] = m
        entry["expected"] = str(expected)
        entry["actual"] = str(actual)
        failures.append(entry)

    pair = PairParams(a, b)
    params = pair.as_params()
    ab = a * b
    orders = max(mmax, 1)
    # a step costs about (orders + 1)^2 / 2 products, a walk about ab * orders
    step = _shift_rows(ab, orders) if orders < ab else None

    runs = _by_count_bytes(params, kmax)
    gaps = _run_set(params, 0, *runs[0])
    h, unit = numerator_h(params, gaps), IntPoly.one_minus_pow(ab)
    if h != unit:
        fail("h == 1 - z^ab", None, None, unit.to_text(), h.to_text())

    closed_sums = [(), *_power_sums_by_k(pair, kmax, mmax)]
    oracle_rows, closed_rows = [], []
    g_le, c_le, s_le = None, 0, 0
    matched = False  # the support comparison of k - 1
    for k in range(kmax + 1):
        start, run = runs[k]
        if k <= 1:  # the form's bytes: k = 0's own, then the pair's R_1
            _, form = _p_k_bytes(pair, k, strict=False)
            zero_one = _zero_one(form, ab if k else None)
            support = form.translate(_SUPPORT)
            first = support.find(1)
            support = support[first : support.rfind(1) + 1]  # empty when no 1
        base = ab * (k - 1) if k else 0
        # E_k is E_(k-1) translated by ab when both match the form's support
        stepped = step is not None and k >= 2 and matched
        matched = run == support and (not run or start == base + first)
        if stepped and matched:
            oracle_sums = _shift_sums(step, oracle_sums)
        else:
            exact = _run_set(params, k, start, run) if k else gaps
            oracle_sums = exact.power_sums(orders if k else 1)
        g, c, s = (start + len(run) - 1 if run else None), oracle_sums[0], oracle_sums[1]
        if g is not None:
            g_le = g if g_le is None else max(g_le, g)
        c_le += c
        s_le += s
        oracle_rows.append(
            (g, c, s, True, True, g_le, c_le, s_le, *(oracle_sums[: mmax + 1] if k else ()))
        )
        closed_rows.append((
            _frobenius(pair, k), _count(pair, k), _sum(pair, k), zero_one, matched,
            *_at_most(pair, k), *closed_sums[k],
        ))

    if oracle_rows != closed_rows:
        for k, (expected, actual) in enumerate(zip(oracle_rows, closed_rows)):
            for i, (e, v) in enumerate(zip(expected, actual)):
                if e == v:
                    continue
                if i < len(_ROW):
                    name, m = _ROW[i], None
                else:
                    name, m = "s^m", i - len(_ROW)
                if name == "p_k support":
                    e = _run_set(params, k, *runs[k]).elements
                    v = _run_set(params, k, *_p_k_bytes(pair, k, strict=False)).elements
                fail(name, k, m, e, v)

    return 1 + sum(map(len, closed_rows)), failures


def cmd_verify(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValidationError(f"--workers must be at least 1, got {args.workers}")
    if args.kmax < 0 or args.mmax < 0:
        raise ValidationError(
            f"--kmax and --mmax must be at least 0, got {args.kmax} and {args.mmax}"
        )
    if args.sweep is not None and args.sweep < 2:
        raise ValidationError(f"--sweep must be at least 2, got {args.sweep}")
    # mmax sizes every closed-form power-sum list and every power j**m
    _check_bound(args.mmax)
    workers = min(args.workers, os.cpu_count() or 1)
    if args.params is not None:
        params = Params(args.params)
        if params.n != 2:
            raise WrongArity(2, params.n)
        pairs = [tuple(params.denominations)]
    else:  # the parser requires exactly one of --params and --sweep
        # the last pair (MAXB - 1, MAXB) reaches furthest: its window ends at
        # (kmax + 1)ab - b, and at kmax 0 numerator_h checks up to ab
        a, b = args.sweep - 1, args.sweep
        _check_bound((args.kmax + 1) * a * b - b if args.kmax else a * b)
        pairs = [
            (a, b)
            for b in range(2, args.sweep + 1)
            for a in range(1, b)
            if gcd(a, b) == 1
        ]

    firsts, seconds = zip(*pairs)
    columns = (firsts, seconds, repeat(args.kmax), repeat(args.mmax))
    if workers > 1:
        # only a pool run pays for importing the process-pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(verify_pair, *columns))
    else:
        results = list(map(verify_pair, *columns))

    total_checks = sum(c for c, _ in results)
    failures = [f for _, fs in results for f in fs]
    if failures:
        for failure in failures:
            _emit_json(failure)
        return 1
    if args.format == "json":
        _emit_json({"pairs": len(pairs), "checks": total_checks, "failures": 0})
    else:
        print(f"verified {len(pairs)} pair(s), {total_checks} checks, all passed")
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The frobgen argument parser, built once per process.

    Reuse carries no state between calls: parse_args returns a fresh
    Namespace each time.
    """
    return _parsers()[0]


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The frobgen parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="frobgen",
        description="Exact Frobenius coin-problem statistics, sets, and generating functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, required: bool = True) -> None:
        # p is a parser or one of its mutually exclusive groups
        p.add_argument(
            "--params",
            type=_parse_params,
            required=required,
            help="comma-separated denominations, e.g. 5,7",
        )

    def add_format(p: argparse.ArgumentParser, choices=("plain", "json", "csv")) -> None:
        p.add_argument("--format", choices=choices, default="plain")

    p = sub.add_parser("compute", help="one exact statistic")
    add_params(p)
    add_format(p)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--m", type=int, default=None, help="power for --stat sm")
    p.add_argument("--stat", choices=STATS, required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="force the brute-force path even for two denominations",
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("enumerate", help="the exactly-k or at-most-k set")
    add_params(p)
    add_format(p)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--at-most", action="store_true", dest="at_most")
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="representation count table (j,count,k)")
    add_params(p)
    add_format(p)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("genfun", help="polynomials and indicator series")
    add_params(p, required=False)
    add_format(p)
    p.add_argument("--k", type=int, default=None, help="k for p_k and --indicator (default 0)")
    mode = p.add_mutually_exclusive_group()  # none: the exactly-k polynomial p_k
    mode.add_argument("--numerator", action="store_true", help="numerator h(z)")
    mode.add_argument(
        "--denham", action="store_true", help="term count of h(z) for a triple (no csv)"
    )
    mode.add_argument("--cyclotomic", type=int, default=None, metavar="N")
    mode.add_argument(
        "--indicator",
        action="store_true",
        help="more-than-k indicator bits (needs --bound)",
    )
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("verify", help="closed-form vs oracle sweep")
    pairs = p.add_mutually_exclusive_group(required=True)
    add_params(pairs, required=False)
    pairs.add_argument("--sweep", type=int, default=None, metavar="MAXB")
    add_format(p, ("plain", "json"))
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--mmax", type=int, default=2)
    p.add_argument(
        "--workers", type=int, default=1, help="worker processes (capped at the CPU count)"
    )
    p.set_defaults(func=cmd_verify)

    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), in one argparse pass when it can be.

    The top-level pass only picks the subcommand and hands the rest of argv
    to that subcommand's parser.  So when argv[0] names a subcommand, the
    subcommand's parser reads argv[1:] directly, and leftover arguments are
    refused by the top-level parser's own error, as the nested pass refuses
    them.  Any other argv (empty, -h first, an unknown command, or one with
    "--", whose handling varies across Python versions) takes the nested
    pass.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv and "--" not in argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extra))
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # Exact values print in full, however many digits they have; the limit
    # on int/str conversion stays on for argv parsing above.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        old_digits = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point its fd at devnull, so the flush at
        # shutdown cannot raise again, and exit as a writer SIGPIPE killed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FrobgenError, ValueError) as exc:
        # each FrobgenError family carries its exit code; a bare ValueError
        # is bad input (2)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    finally:
        if set_digits is not None:
            set_digits(old_digits)


if __name__ == "__main__":
    sys.exit(main())
