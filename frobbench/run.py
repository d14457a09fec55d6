#!/usr/bin/env python3
"""frobgen benchmark: run one workload in one process and print its metrics.

    python3 frobbench/run.py --workload verify_sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports frobgen from its `src/`.
The timed phase repeats whole passes of the workload's operations for about
--seconds, with a fixed pure-Python reference loop run between operations.
Every output is then checked by the benchmark's own code.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
import zlib  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

REF_ITERS = 20_000  # one reference slice
# Time of one reference slice on the 2-core Intel Xeon VM the benchmark was
# built on, when its shared host is quiet.  Reported times are scaled to it.
REF_NOMINAL_S = 0.0016
REF_SHARE = 0.15  # reference-loop time as a share of operation time
SETUP_PROBES = 10  # fresh processes that repeat the set-up, besides the run's own

END_TO_END = {
    "wall_ref": "x", "wall_s": "s", "op_p50_ms": "ms", "op_p95_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def ref_loop() -> int:
    """Fixed pure-Python work; its time tracks how fast the machine runs now."""
    acc = 0
    for i in range(REF_ITERS):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def ref_time(n: int = 7) -> float:
    """Median time of n reference slices: how fast the machine runs now."""
    times = []
    for _ in range(n):
        t = time.perf_counter()
        ref_loop()
        times.append(time.perf_counter() - t)
    return median(times)


def import_frobgen() -> None:
    """Import frobgen from this checkout's src/ and nowhere else."""
    if not (SRC / "frobgen" / "__init__.py").is_file():
        sys.exit(f"error: no frobgen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("FROBGEN_MAX_BOUND", None)  # the default table cap applies
    import frobgen

    if Path(frobgen.__file__).resolve().parent != SRC / "frobgen":
        sys.exit(f"error: imported frobgen from {frobgen.__file__}, not {SRC}")


def set_up(workload: str, seed: int, tiny: bool):
    """First import of frobgen, input generation and warm-up.

    Returns the plan and the set-up time scaled to the nominal reference speed.
    """
    import_frobgen()
    sys.path.insert(0, str(HERE))
    import workloads

    plan = workloads.WORKLOADS[workload](seed, tiny)
    for op in plan.warmup:
        plan.run(op)
    setup_s = time.perf_counter() - T0
    return plan, setup_s * REF_NOMINAL_S / ref_time()


def probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Set-up time of a fresh process doing exactly what this one did."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-probe"] + (["--tiny"] if tiny else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Run:
    """Everything one timed phase observed."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.outputs: dict = {}  # operation -> its first output, pickled and compressed
        self.faults: set = set()
        self.problems: list[str] = []
        # Per position in the pass: the operation's time in each pass.
        self.slot_times: list[list[float]] = []
        self.passes: list[dict] = []
        self.attempted = self.failed = 0
        self.ref_est = 0.0

    def record(self, op, out, exc) -> int:
        """Book one operation's result; returns its output bytes."""
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            if self.plan.known_fault(op, exc):
                self.faults.add(op)
            else:
                self.problems.append(f"{op[:6]} failed: {exc!r}")
            return 0
        # Compressed, so that kept outputs add little to the run's peak memory.
        blob = zlib.compress(pickle.dumps(out), 1)
        if self.outputs.setdefault(op, blob) != blob:
            self.problems.append(f"{op[:6]}: output differs between passes")
        return self.plan.out_bytes(op, out)

    def run_pass(self, ops, tracer=None) -> None:
        plan = self.plan
        op_s = ref_s = 0.0
        ref_n = out_bytes = 0
        first = not self.passes
        lo = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            for i, op in enumerate(ops):
                if tracer:
                    tracer.op = i
                out = exc = None
                plan.prepare(op)
                t0 = time.perf_counter()
                try:
                    out = plan.run(op)
                except Exception as e:  # counted and reported, the run goes on
                    exc = e
                dt = time.perf_counter() - t0
                op_s += dt
                n = max(1, round(dt * REF_SHARE / self.ref_est))
                for _ in range(n):
                    t1 = time.perf_counter()
                    ref_loop()
                    ref_s += time.perf_counter() - t1
                ref_n += n
                if first:
                    self.slot_times.append([])
                self.slot_times[i].append(dt)
                self.ref_est = ref_s / ref_n
                out_bytes += self.record(op, out, exc)
        finally:
            if tracer:
                tracer.uninstall()
        self.passes.append({
            "traced": tracer is not None, "ops": len(ops), "op_s": op_s, "ref_s": ref_s,
            "ref_n": ref_n, "ref_mean": ref_s / ref_n, "ref_ratio": op_s / (ref_s / ref_n),
            "duration_s": time.perf_counter() - start, "out_bytes": out_bytes,
            "spans": (lo, len(tracer.spans)) if tracer else None,
        })


def timed_phase(run: Run, seconds: float, tracer=None) -> None:
    """Whole passes until the next one would end past `seconds`.

    With a tracer, passes alternate untraced and traced, at least one of each.
    """
    run.ref_est = ref_time()
    start = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        run.run_pass(run.plan.ops, tracer if traced else None)
        r += 1
        if tracer is not None and r < 2:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + median(p["duration_s"] for p in run.passes) > seconds:
            break


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(run: Run, setup_times: list[float], peak_rss_mb: float) -> dict:
    """Operation times are scaled by REF_NOMINAL_S over the pass's mean
    reference slice, then each position in the pass takes its median over
    passes; wall_s sums them and the percentiles rank them."""
    scale = [REF_NOMINAL_S / p["ref_mean"] for p in run.passes]
    times = sorted(median(t * f for t, f in zip(ts, scale)) for ts in run.slot_times)
    return {
        "wall_ref": median(p["ref_ratio"] for p in run.passes),
        "wall_s": sum(times),
        "op_p50_ms": median(times) * 1e3,
        "op_p95_ms": percentile(times, 0.95) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": median(setup_times),
    }


def per_layer(run: Run, tracer) -> dict:
    """Per-layer metrics of the traced passes, times scaled like end_to_end's."""
    import checks
    import spans

    def scaled(p, name, value):
        return value * REF_NOMINAL_S / p["ref_mean"] if spans.PER_LAYER[name] in ("s", "ns") else value

    traced = [p for p in run.passes if p["traced"]]
    plain = [p for p in run.passes if not p["traced"]]
    metrics = spans.summarize([
        {k: scaled(p, k, v) for k, v in
         spans.layer_metrics(tracer.spans, *p["spans"], p["out_bytes"], checks.window_start).items()}
        for p in traced
    ])
    pass_s = lambda ps: median(p["op_s"] * REF_NOMINAL_S / p["ref_mean"] for p in ps)
    metrics["trace.overhead_s"] = pass_s(traced) - pass_s(plain)
    units = dict(spans.PER_LAYER, **{"trace.overhead_s": "s"})
    return {k: (v, units[k]) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_sweep", "oracle_deep", "genfun_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    plan, setup_main = set_up(args.workload, args.seed, args.tiny)
    if args.setup_probe:
        print(f"{setup_main:.6f}")
        return 0

    tracer = None
    setup_times = [setup_main]
    if args.trace:
        import spans

        tracer = spans.Tracer()
    else:
        setup_times += [probe_setup(args.workload, args.seed, args.tiny) for _ in range(SETUP_PROBES)]

    run = Run(plan)
    timed_phase(run, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = list(run.problems)
    for op, blob in run.outputs.items():
        problems += plan.check(op, pickle.loads(zlib.decompress(blob)))
    for op in sorted(run.faults):
        problems += plan.check_fault(op)
    problems += plan.extra_checks()

    if args.trace:
        metrics = per_layer(run, tracer)
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(run, setup_times, peak_rss_mb).items()}
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  problems=problems[:50], passes=[{k: v for k, v in p.items() if k != "spans"}
                                                  for p in run.passes],
                  setup_times=setup_times, notes=plan.notes,
                  slot_times=run.slot_times)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.tsv.gz", [p["spans"][0] for p in run.passes if p["traced"]])
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
