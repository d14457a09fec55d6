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
genfun --cyclotomic) can be overridden via FROBGEN_MAX_BOUND,
which must be a nonnegative integer (anything else exits 2).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from math import gcd

from frobgen.closedform import (
    PairParams,
    at_most_stats,
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
    Params,
    enumerate_at_most_k,
    enumerate_by_count,
    enumerate_exact_k,
    max_bound_ceiling,
    rep_table,
    validate_params,
)
from frobgen.report import CLOSED_FORM, ORACLE, StatReport

STATS = ("g", "c", "s", "sm", "gle", "cle", "sle")
_AT_MOST_NAMES = {"gle": "g<=", "cle": "c<=", "sle": "s<="}


def _parse_params(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# -- compute -----------------------------------------------------------------


def _compute_closed(p: PairParams, stat: str, k: int, m: int | None) -> StatReport:
    if stat == "g":
        return frobenius_k(p, k)
    if stat == "c":
        return count_k(p, k)
    if stat == "s":
        return sum_k(p, k)
    if stat == "sm":
        return power_sum_k(p, k, m)
    g_le, c_le, s_le = at_most_stats(p, k)
    return {"gle": g_le, "cle": c_le, "sle": s_le}[stat]


def _compute_oracle(params: Params, stat: str, k: int, m: int | None) -> StatReport:
    den = params.denominations
    if stat in _AT_MOST_NAMES:
        gs = enumerate_at_most_k(params, k)
        name = _AT_MOST_NAMES[stat]
        if stat == "gle":
            return StatReport(name, den, k, gs.maximum, provenance=ORACLE)
        if stat == "cle":
            return StatReport(name, den, k, len(gs), provenance=ORACLE)
        return StatReport(name, den, k, gs.power_sum(1), provenance=ORACLE)
    gs = enumerate_exact_k(params, k)
    if stat == "g":
        return StatReport("g", den, k, gs.maximum, provenance=ORACLE)
    if stat == "c":
        return StatReport("c", den, k, len(gs), provenance=ORACLE)
    if stat == "s":
        return StatReport("s", den, k, gs.power_sum(1), provenance=ORACLE)
    return StatReport("s^m", den, k, gs.power_sum(m), m=m, provenance=ORACLE)


def cmd_compute(args: argparse.Namespace) -> int:
    params = validate_params(args.params)
    if args.stat == "sm" and args.m is None:
        raise ValidationError("--stat sm requires --m")
    if args.stat == "sm" and args.m < 0:
        raise ValidationError(f"--m must be >= 0, got {args.m}")
    if params.n == 2 and not args.oracle:
        p = PairParams(*params.denominations)
        report = _compute_closed(p, args.stat, args.k, args.m)
    else:
        report = _compute_oracle(params, args.stat, args.k, args.m)
    if args.format == "json":
        _emit(report.to_json())
    elif args.format == "csv":
        value = str(report.value) if report.value is not None else "-1"
        _emit(
            "stat,params,k,m,value,provenance\n"
            f"{report.stat},{' '.join(map(str, report.params))},{report.k},"
            f"{'' if report.m is None else report.m},{value},{report.provenance}"
        )
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
    params = validate_params(args.params)
    table = rep_table(params, args.bound)
    if args.format == "json":
        rows = [
            {"j": j, "count": str(c), "k": str(c)} for j, c in enumerate(table.counts)
        ]
        _emit(
            json.dumps(
                {"params": list(params.denominations), "bound": args.bound, "rows": rows},
                separators=(",", ":"),
            )
        )
    elif args.format == "csv":
        lines = ["j,count,k"]
        lines += [f"{j},{c},{c}" for j, c in enumerate(table.counts)]
        _emit("\n".join(lines))
    else:
        width = max(len(str(args.bound)), 1)
        for j, c in enumerate(table.counts):
            _emit(f"{j:>{width}}  r={c}")
    return 0


# -- genfun ---------------------------------------------------------------


def _emit_poly(poly: IntPoly, fmt: str) -> None:
    if fmt == "json":
        _emit(poly.to_json())
    elif fmt == "csv":
        lines = ["exp,coeff"] + [f"{e},{c}" for e, c in poly.terms()]
        _emit("\n".join(lines))
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
            _emit(
                json.dumps(
                    {"params": list(params.denominations), "term_count": count},
                    separators=(",", ":"),
                )
            )
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
            lines = ["j,bit"] + [f"{j},{b}" for j, b in enumerate(series.bits)]
            _emit("\n".join(lines))
        else:
            _emit(series.to_bitstring())
        return 0
    _emit_poly(p_k_poly(pair, args.k), args.format)
    return 0


# -- verify ---------------------------------------------------------------


def verify_pair(a: int, b: int, kmax: int, mmax: int) -> tuple[int, list[dict]]:
    """All closed-form vs oracle checks for one coprime pair.

    The oracle side is one certified scan per pair (enumerate_by_count up to
    the kmax window), which yields every exactly-k and at-most-k set.
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
        check("g", k, None, exact.maximum, frobenius_k(pair, k).value)
        check("c", k, None, len(exact), count_k(pair, k).value)
        check("s", k, None, exact.power_sum(1), sum_k(pair, k).value)

        pk = p_k_poly(pair, k)
        check("p_k 0/1 coefficients", k, None, True, pk.is_zero_one())
        check("p_k support", k, None, exact.elements, pk.support())

        at_most = at_most_sets[k]
        g_le, c_le, s_le = at_most_stats(pair, k)
        check("g<=", k, None, at_most.maximum, g_le.value)
        check("c<=", k, None, len(at_most), c_le.value)
        check("s<=", k, None, at_most.power_sum(1), s_le.value)

        if k >= 1:
            for m in range(mmax + 1):
                check("s^m", k, m, exact.power_sum(m), power_sum_k(pair, k, m).value)

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
            _emit(json.dumps(failure, separators=(",", ":")))
        return 1
    if args.format == "json":
        _emit(
            json.dumps(
                {"pairs": len(pairs), "checks": total_checks, "failures": 0},
                separators=(",", ":"),
            )
        )
    else:
        _emit(f"verified {len(pairs)} pair(s), {total_checks} checks, all passed")
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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


if __name__ == "__main__":
    sys.exit(main())
