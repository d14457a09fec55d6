#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each end-to-end metric's
median, quartiles and spread (quartile distance as a share of the median).

    python3 frobbench/spread.py --workloads verify_sweep oracle_deep genfun_cli --seeds 1-10

Every run is untraced and lasts BENCHMARK.json's run_seconds.  Runs are
sequential, one process at a time.  Results go to
frobbench/results/spread-<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds[name]
            mark = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:26s} median {q2:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.2%}"
                  f"  bound {bound}  {mark}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share: {sorted(shares)}\n", flush=True)
        (HERE / "results").mkdir(exist_ok=True)
        (HERE / "results" / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
