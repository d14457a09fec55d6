"""Command-line front end.

Subcommands:
    compute    one statistic (closed form for two denominations, oracle else)
    enumerate  the exactly-k or at-most-k set
    classify   j, count, class table up to a bound
    genfun     polynomials and indicator series
    verify     closed-form vs oracle sweep; nonzero exit on any mismatch

Exit codes: 0 success, 1 mathematical mismatch, 2 input validation,
3 unsupported request, 4 resource guard.  The resource ceiling (largest
--bound, last entry scanned for unbounded queries, largest N for
genfun --cyclotomic, largest --m for compute --stat sm and --mmax for
verify) can be overridden via FROBGEN_MAX_BOUND, which must be a
nonnegative integer (anything else exits 2).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from math import gcd
from typing import Iterable

from frobgen.closedform import (
    PairParams,
    at_most_stats,
    closed_report,
    count_k,
    frobenius_k,
    power_sum_k,
    sum_k,
)
from frobgen.errors import (
    BoundTooLarge,
    FrobgenError,
    Indeterminate,
    InfiniteSet,
    UnsupportedK,
    ValidationError,
    WrongArity,
)
from frobgen.genfun import (
    denham_term_count,
    numerator_h,
    p_k_poly,
    s_k_indicator,
)
from frobgen.intpoly import IntPoly, cyclotomic
from frobgen.oracle import (
    GapSet,
    enumerate_at_most_k,
    enumerate_by_count,
    enumerate_exact_k,
    max_bound_ceiling,
    oracle_report,
    rep_table,
    validate_params,
)
from frobgen.report import AT_MOST_STATS

# --stat flag -> StatReport name
STATS = {"g": "g", "c": "c", "s": "s", "sm": "s^m", "gle": "g<=", "cle": "c<=", "sle": "s<="}


def _parse_params(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _emit(text: str) -> None:
    """Write text ending in a newline; a missing one is written on its own
    rather than appended, which would copy the whole text."""
    write = sys.stdout.write
    write(text)
    if not text.endswith("\n"):
        write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, separators=(",", ":")))


def _emit_csv(header: str, rows: Iterable[str]) -> None:
    """The header line, then one line per row; each row is already comma-joined."""
    _emit("\n".join([header, *rows]))


# -- compute -----------------------------------------------------------------


def cmd_compute(args: argparse.Namespace) -> int:
    params = validate_params(args.params)
    stat = STATS[args.stat]
    if stat == "s^m":
        if args.m is None:
            raise ValidationError("--stat sm requires --m")
        if args.m < 0:
            raise ValidationError(f"--m must be >= 0, got {args.m}")
        # m sizes the power-sum work of the closed form and every power j**m
        ceiling = max_bound_ceiling()
        if args.m > ceiling:
            raise BoundTooLarge(args.m, ceiling)
    if params.n == 2 and not args.oracle:
        report = closed_report(PairParams(*params.denominations), stat, args.k, args.m)
    else:
        fn = enumerate_at_most_k if stat in AT_MOST_STATS else enumerate_exact_k
        report = oracle_report(fn(params, args.k), stat, args.m)
    if args.format == "json":
        _emit(report.to_json())
    elif args.format == "csv":
        params_field = " ".join(map(str, report.params))
        m = "" if report.m is None else report.m
        value = str(report.value) if report.value is not None else "-1"
        row = f"{report.stat},{params_field},{report.k},{m},{value},{report.provenance}"
        _emit_csv("stat,params,k,m,value,provenance", [row])
    else:
        _emit(report.to_plain())
    return 0


# -- enumerate ----------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    params = validate_params(args.params)
    fn = enumerate_at_most_k if args.at_most else enumerate_exact_k
    gs: GapSet = fn(params, args.k, args.bound)
    if args.format == "json":
        _emit(gs.to_json())
    elif args.format == "csv":
        sys.stdout.write(gs.to_csv())
    else:
        kind = "at-most" if args.at_most else "exactly"
        _emit(
            f"# params={','.join(map(str, params))} {kind} k={args.k} "
            f"count={len(gs)} complete={str(gs.complete).lower()}"
        )
        _emit(" ".join(str(j) for j in gs.elements) if gs.elements else "(empty)")
    return 0


# -- classify -----------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    # Rows are formatted straight into the output text, with no object per row.
    params = validate_params(args.params)
    counts = rep_table(params, args.bound).counts
    if args.format == "json":
        write = sys.stdout.write
        denoms = ",".join(map(str, params.denominations))
        write(f'{{"params":[{denoms}],"bound":{args.bound},"rows":[')
        write(",".join([f'{{"j":{j},"count":"{c}","k":"{c}"}}' for j, c in enumerate(counts)]))
        write("]}\n")
    elif args.format == "csv":
        _emit_csv("j,count,k", [f"{j},{c},{c}" for j, c in enumerate(counts)])
    else:
        width = max(len(str(args.bound)), 1)
        _emit("\n".join([f"{str(j).rjust(width)}  r={c}" for j, c in enumerate(counts)]))
    return 0


# -- genfun ---------------------------------------------------------------


def _emit_poly(poly: IntPoly, fmt: str) -> None:
    if fmt == "json":
        _emit(poly.to_json())
    elif fmt == "csv":
        _emit_csv("exp,coeff", [f"{e},{c}" for e, c in poly.terms()])
    else:
        _emit(poly.to_text())


def cmd_genfun(args: argparse.Namespace) -> int:
    if args.cyclotomic is not None:
        # the output has degree phi(N) <= N
        ceiling = max_bound_ceiling()
        if args.cyclotomic > ceiling:
            raise BoundTooLarge(args.cyclotomic, ceiling)
        _emit_poly(cyclotomic(args.cyclotomic), args.format)
        return 0
    if args.params is None:
        raise ValidationError("--params is required unless --cyclotomic is used")
    params = validate_params(args.params)
    if args.numerator:
        _emit_poly(numerator_h(params), args.format)
        return 0
    if args.denham:
        count = denham_term_count(params)
        if args.format == "json":
            _emit_json({"params": list(params.denominations), "term_count": count})
        else:
            _emit(str(count))
        return 0
    if params.n != 2:
        raise WrongArity(2, params.n)
    pair = PairParams(*params.denominations)
    if args.indicator:
        if args.bound is None:
            raise ValidationError("--indicator requires --bound")
        series = s_k_indicator(pair, args.k, args.bound)
        if args.format == "json":
            _emit(series.to_json())
        elif args.format == "csv":
            _emit_csv("j,bit", [f"{j},{b}" for j, b in enumerate(series.to_bitstring())])
        else:
            _emit(series.to_bitstring())
        return 0
    _emit_poly(p_k_poly(pair, args.k), args.format)
    return 0


# -- verify ---------------------------------------------------------------


def verify_pair(a: int, b: int, kmax: int, mmax: int) -> tuple[int, list[dict]]:
    """All closed-form vs oracle checks for one coprime pair.

    The oracle side is one certified scan per pair (enumerate_by_count up to
    the kmax window), which yields every exactly-k and at-most-k set, and
    one power_sums walk per exactly-k set for its s^m checks.
    Returns (number of checks run, failures); each failure is a JSON-ready
    dict naming the check and both values.
    """
    checks = 0
    failures: list[dict] = []

    def check(name: str, k: int | None, m: int | None, expected, actual) -> None:
        nonlocal checks
        checks += 1
        if expected != actual:
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

    h = numerator_h(params)
    check("h == 1 - z^ab", None, None, IntPoly.one_minus_pow(a * b).to_text(), h.to_text())

    exact_sets, at_most_sets = enumerate_by_count(params, kmax)
    for k in range(kmax + 1):
        exact = exact_sets[k]
        for closed in (frobenius_k(pair, k), count_k(pair, k), sum_k(pair, k)):
            oracle = oracle_report(exact, closed.stat)
            check(closed.stat, k, None, oracle.value, closed.value)

        pk = p_k_poly(pair, k)
        check("p_k 0/1 coefficients", k, None, True, pk.is_zero_one())
        check("p_k support", k, None, exact.elements, pk.support())

        at_most = at_most_sets[k]
        for closed in at_most_stats(pair, k):
            oracle = oracle_report(at_most, closed.stat)
            check(closed.stat, k, None, oracle.value, closed.value)

        if k >= 1:
            for m, oracle_sum in enumerate(exact.power_sums(mmax)):
                check("s^m", k, m, oracle_sum, power_sum_k(pair, k, m).value)

    return checks, failures


def _verify_job(job: tuple[int, int, int, int]) -> tuple[int, list[dict]]:
    return verify_pair(*job)


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
    ceiling = max_bound_ceiling()
    if args.mmax > ceiling:
        raise BoundTooLarge(args.mmax, ceiling)
    workers = min(args.workers, os.cpu_count() or 1)
    if args.params is not None:
        params = validate_params(args.params)
        if params.n != 2:
            raise WrongArity(2, params.n)
        pairs = [tuple(params.denominations)]
    elif args.sweep is not None:
        pairs = [
            (a, b)
            for b in range(2, args.sweep + 1)
            for a in range(1, b)
            if gcd(a, b) == 1
        ]
    else:
        raise ValidationError("verify needs --params or --sweep")

    jobs = [(a, b, args.kmax, args.mmax) for a, b in pairs]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_job, jobs))
    else:
        results = [_verify_job(job) for job in jobs]

    total_checks = sum(c for c, _ in results)
    failures = [f for _, fs in results for f in fs]
    if failures:
        for failure in failures:
            _emit_json(failure)
        return 1
    if args.format == "json":
        _emit_json({"pairs": len(pairs), "checks": total_checks, "failures": 0})
    else:
        _emit(f"verified {len(pairs)} pair(s), {total_checks} checks, all passed")
    return 0


# -- parser ---------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The frobgen argument parser, built once per process.

    Reuse carries no state between calls: parse_args returns a fresh
    Namespace each time.
    """
    parser = argparse.ArgumentParser(
        prog="frobgen",
        description="Exact Frobenius coin-problem statistics, sets, and generating functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, params_required: bool = True) -> None:
        p.add_argument(
            "--params",
            type=_parse_params,
            required=params_required,
            default=None,
            help="comma-separated denominations, e.g. 5,7",
        )
        p.add_argument(
            "--format", choices=("plain", "json", "csv"), default="plain"
        )

    p = sub.add_parser("compute", help="one exact statistic")
    add_common(p)
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
    add_common(p)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--at-most", action="store_true", dest="at_most")
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="representation count table (j,count,k)")
    add_common(p)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("genfun", help="polynomials and indicator series")
    add_common(p, params_required=False)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--numerator", action="store_true", help="numerator h(z)")
    p.add_argument(
        "--denham", action="store_true", help="term count of h(z) for a triple"
    )
    p.add_argument("--cyclotomic", type=int, default=None, metavar="N")
    p.add_argument(
        "--indicator",
        action="store_true",
        help="more-than-k indicator bits (needs --bound)",
    )
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("verify", help="closed-form vs oracle sweep")
    add_common(p, params_required=False)
    p.add_argument("--sweep", type=int, default=None, metavar="MAXB")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--mmax", type=int, default=2)
    p.add_argument(
        "--workers", type=int, default=1, help="worker processes (capped at the CPU count)"
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact values print in full, however many digits they have; the limit
    # on int/str conversion stays on for argv parsing above.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        old_digits = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedK, InfiniteSet) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (BoundTooLarge, Indeterminate) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except FrobgenError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if set_digits is not None:
            set_digits(old_digits)


if __name__ == "__main__":
    sys.exit(main())
