"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of frobgen's modules in every
namespace where they are looked up (a module attribute, a name another
module imported, or a class attribute for methods), records one span per
call, and restores the originals afterwards.  Nothing in frobgen changes.

A span is (name, start, end, parent index, operation id, extra).  A layer's
self time is its spans' durations minus the parts their child spans cover.
"""
from __future__ import annotations

import functools
import gzip
import sys
from statistics import median
from time import perf_counter


def _entries(args, kwargs, result):
    return len(result) if result is not None else 0


def _query(args, kwargs, result):
    params, k = args[0], args[1]
    bound = args[2] if len(args) > 2 else kwargs.get("bound")
    complete = result is not None and result.complete
    return (params.denominations, k, bound, complete)


def _targets():
    """(span name, owner, attribute, extra) for every wrapped function."""
    from frobgen import bernoulli, cli, closedform, dp, genfun, intpoly, oracle

    out = [
        ("dp.rep_counts", dp, "rep_counts", _entries),
        ("oracle.rep_table", oracle, "rep_table", None),
        ("oracle.enumerate_exact_k", oracle, "enumerate_exact_k", _query),
        ("oracle.enumerate_at_most_k", oracle, "enumerate_at_most_k", _query),
        ("oracle.oracle_stats", oracle, "oracle_stats", None),
        ("oracle.power_sum", oracle.GapSet, "power_sum", None),
        ("bernoulli.evaluate", bernoulli.RatPoly, "evaluate", None),
        ("intpoly.mul", intpoly.IntPoly, "__mul__", None),
        ("intpoly.exact_div", intpoly, "poly_exact_div", None),
        ("intpoly.cyclotomic", intpoly, "cyclotomic", None),
        ("cli.main", cli, "main", None),
        ("cli.verify_pair", cli, "verify_pair", None),
    ]
    for fn in ("frobenius_k", "count_k", "sum_k", "power_sum_k", "at_most_stats", "structured_r_k"):
        out.append((f"closedform.{fn}", closedform, fn, None))
    for fn in ("numerator_h", "denham_term_count", "p_k_poly", "s_k_indicator",
               "rational_series", "cyclotomic_identity_check"):
        out.append((f"genfun.{fn}", genfun, fn, None))
    return out


class Tracer:
    """Records spans while installed; `op` is the id of the running operation."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._stack = [-1]
        self._patched: list = []

    def _wrap(self, name, fn, extra):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op,
                              extra(args, kwargs, result) if extra else None)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "frobgen" or n.startswith("frobgen.")]
        for name, owner, attr, extra in _targets():
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, extra)
            if isinstance(owner, type):
                # Aliases such as __rmul__ = __mul__ or __call__ = evaluate.
                homes = [(owner, k) for k, v in vars(owner).items() if v is original]
            else:
                homes = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            for home, key in homes:
                self._patched.append((home, key, original))
                setattr(home, key, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            home, key, original = self._patched.pop()
            setattr(home, key, original)

    def write(self, path, pass_starts) -> None:
        """All spans as tab-separated lines: pass, op, index, parent, name, start_ns, end_ns."""
        bounds = list(pass_starts) + [len(self.spans)]
        with gzip.open(path, "wt") as f:
            f.write("pass\top\tindex\tparent\tname\tstart_ns\tend_ns\n")
            for p, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                for i in range(lo, hi):
                    name, t0, t1, parent, op, _ = self.spans[i]
                    f.write(f"{p}\t{op}\t{i}\t{parent}\t{name}\t{int(t0 * 1e9)}\t{int(t1 * 1e9)}\n")


PER_LAYER = {
    # name: unit
    "dp.calls": "count", "dp.entries": "count", "dp.self_s": "s", "dp.ns_per_entry": "ns",
    "oracle.queries": "count", "oracle.table_builds": "count",
    "oracle.entries_needed": "count", "oracle.useful_ratio": "ratio",
    "oracle.self_s": "s", "oracle.power_sum_s": "s",
    "closedform.calls": "count", "closedform.self_s": "s",
    "bernoulli.evaluate_calls": "count", "bernoulli.evaluate_s": "s",
    "genfun.self_s": "s", "genfun.numerator_h_s": "s", "genfun.p_k_poly_s": "s",
    "genfun.s_k_indicator_s": "s",
    "intpoly.mul_calls": "count", "intpoly.mul_s": "s", "intpoly.cyclotomic_s": "s",
    "intpoly.exact_div_calls": "count",
    "cli.render_s": "s", "cli.out_bytes": "count", "cli.verify_self_s": "s",
}
COUNTS = [k for k, u in PER_LAYER.items() if u == "count"]


def layer_metrics(spans, lo: int, hi: int, out_bytes: int, window_start) -> dict[str, float]:
    """Per-layer metrics of the spans[lo:hi] of one pass; parents index `spans`."""
    child: dict[int, float] = {}
    for i in range(lo, hi):
        name, t0, t1, parent, op, extra = spans[i]
        if parent >= lo:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    needed = entries = 0
    for i in range(lo, hi):
        name, t0, t1, parent, op, extra = spans[i]
        dur = t1 - t0
        self_s[name] = self_s.get(name, 0.0) + dur - child.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
        if parent < lo or spans[parent][0] != name:
            incl_s[name] = incl_s.get(name, 0.0) + dur
        if name == "dp.rep_counts":
            entries += extra
        elif name.startswith("oracle.enumerate") and extra[2] is None and extra[3]:
            denoms, k = extra[0], extra[1]
            needed += window_start(denoms, k) + denoms[0]

    def layer(prefix, exclude=()):
        return sum(v for n, v in self_s.items() if n.startswith(prefix) and n not in exclude)

    dp_self = self_s.get("dp.rep_counts", 0.0)
    return {
        "dp.calls": calls.get("dp.rep_counts", 0),
        "dp.entries": entries,
        "dp.self_s": dp_self,
        "dp.ns_per_entry": dp_self / entries * 1e9 if entries else 0.0,
        "oracle.queries": calls.get("oracle.enumerate_exact_k", 0) + calls.get("oracle.enumerate_at_most_k", 0),
        "oracle.table_builds": calls.get("oracle.rep_table", 0),
        "oracle.entries_needed": needed,
        "oracle.useful_ratio": needed / entries if entries else 0.0,
        "oracle.self_s": layer("oracle.", exclude=("oracle.power_sum",)),
        "oracle.power_sum_s": self_s.get("oracle.power_sum", 0.0),
        "closedform.calls": sum(v for n, v in calls.items() if n.startswith("closedform.")),
        "closedform.self_s": layer("closedform."),
        "bernoulli.evaluate_calls": calls.get("bernoulli.evaluate", 0),
        "bernoulli.evaluate_s": self_s.get("bernoulli.evaluate", 0.0),
        "genfun.self_s": layer("genfun."),
        "genfun.numerator_h_s": incl_s.get("genfun.numerator_h", 0.0),
        "genfun.p_k_poly_s": incl_s.get("genfun.p_k_poly", 0.0),
        "genfun.s_k_indicator_s": incl_s.get("genfun.s_k_indicator", 0.0),
        "intpoly.mul_calls": calls.get("intpoly.mul", 0),
        "intpoly.mul_s": self_s.get("intpoly.mul", 0.0),
        "intpoly.cyclotomic_s": incl_s.get("intpoly.cyclotomic", 0.0),
        "intpoly.exact_div_calls": calls.get("intpoly.exact_div", 0),
        "cli.render_s": self_s.get("cli.main", 0.0),
        "cli.out_bytes": out_bytes,
        "cli.verify_self_s": self_s.get("cli.verify_pair", 0.0),
    }


def summarize(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Counts from the first traced pass, times as the median over traced passes."""
    out = {}
    for name in PER_LAYER:
        out[name] = per_pass[0][name] if name in COUNTS else median(p[name] for p in per_pass)
    return out
