"""Tests of the benchmark itself: smoke runs at a tiny size, and checkers
that must reject deliberately wrong outputs.

    python3 -m pytest frobbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["verify_sweep", "oracle_deep", "genfun_cli"]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "frobbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if workload == "oracle_deep":
        # Tiny passes hold 6 seeded queries and the 3 known Indeterminate ones.
        assert result["failed"] * 9 == result["attempted"] * 3
    else:
        assert result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (json.loads(run_bench(workload, 1).stdout.splitlines()[-1]) for _ in range(2))
    for name in spans.COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["dp.entries"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_warmup_does_not_depend_on_seed(workload):
    make = workloads.WORKLOADS[workload]
    assert make(1, tiny=True).warmup == make(2, tiny=True).warmup


def test_cyclotomic_calls_start_with_empty_cache():
    from frobgen import intpoly

    plan = workloads.genfun_cli(3, tiny=True)
    op = next(op for op in plan.ops if op[0] == "cyclotomic")
    intpoly.cyclotomic(12)
    plan.prepare(op)
    assert not intpoly._cyclotomic_cache


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "frobbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_bench("verify_sweep", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- checkers reject wrong outputs --------------------------------------------------


def test_own_counts_match_two_coin_definition():
    assert checks.rep_counts((3, 5), 60) == checks.two_coin_counts(3, 5, 60)


def seeded_queries(plan):
    return [op for op in plan.ops if (op[1], op[2]) not in workloads.KNOWN_FAULTS]


def test_oracle_checker_rejects_dropped_element():
    plan = workloads.oracle_deep(5, tiny=True)
    op = next(op for op in seeded_queries(plan) if op[3])  # an at-most set, never empty
    elements, complete, stats = plan.run(op)
    assert checks.check_oracle_query(*op[1:], (elements, complete, stats)) == []
    assert checks.check_oracle_query(*op[1:], (elements[1:], complete, stats))


def test_oracle_checker_rejects_wrong_power_sum():
    plan = workloads.oracle_deep(5, tiny=True)
    op = seeded_queries(plan)[0]
    elements, complete, stats = plan.run(op)
    wrong = stats[:2] + [(stats[2][0], stats[2][1] + 1)]
    assert checks.check_oracle_query(*op[1:], (elements, complete, wrong))


def test_pair_sample_rejects_wrong_power_sum():
    from frobgen import closedform, oracle

    pair = closedform.PairParams(4, 7)
    exact = lambda k: oracle.enumerate_exact_k(pair.as_params(), k).elements
    power = lambda k, m: closedform.power_sum_k(pair, k, m).value
    assert checks.check_pair_sample(4, 7, 3, 2, exact, power) == []
    assert checks.check_pair_sample(4, 7, 3, 2, exact, lambda k, m: power(k, m) + (k == 2 and m == 2))
    assert checks.check_pair_sample(4, 7, 3, 2, lambda k: exact(k)[:-1], power)


def test_verify_checker_rejects_failures_and_missing_checks():
    assert checks.check_verify_pair(3, 5, 5, 4, (74, [])) == []
    assert checks.check_verify_pair(3, 5, 5, 4, (73, []))
    assert checks.check_verify_pair(3, 5, 5, 4, (74, [{"check": "g"}]))


def _genfun(argv):
    plan = workloads.genfun_cli(5, tiny=True)
    return plan.run(("x",) * 6 + (tuple(argv),))


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_cyclotomic_checker_rejects_flipped_coefficient(fmt):
    poly = checks.parse_poly(_genfun(["genfun", "--cyclotomic", "105", "--format", fmt]), fmt)
    assert checks.check_cyclotomic(105, poly) == []
    e = sorted(poly)[len(poly) // 2]
    assert checks.check_cyclotomic(105, {**poly, e: -poly[e]})


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_indicator_checker_rejects_wrong_bit(fmt):
    text = _genfun(["genfun", "--params", "4,9", "--indicator", "--k", "1", "--bound", "200", "--format", fmt])
    bits = checks.parse_bits(text, fmt)
    assert checks.check_indicator((4, 9), 1, 200, bits) == []
    bits[77] ^= 1
    assert checks.check_indicator((4, 9), 1, 200, bits)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_enumerate_checker_rejects_dropped_element(fmt):
    text = _genfun(["enumerate", "--params", "5,7,9", "--k", "2", "--bound", "300", "--format", fmt])
    elements, complete = checks.parse_enumerate(text, fmt)
    assert checks.check_enumerate((5, 7, 9), 2, False, 300, elements, complete) == []
    assert checks.check_enumerate((5, 7, 9), 2, False, 300, elements[:-1], complete)


def test_numerator_and_denham_checkers_reject_wrong_values():
    h = checks.parse_poly(_genfun(["genfun", "--params", "6,10,15", "--numerator"]), "plain")
    assert checks.check_numerator((6, 10, 15), h) == []
    e = max(h)
    assert checks.check_numerator((6, 10, 15), {**h, e: h[e] + 1})
    assert checks.check_denham((6, 10, 15), 4) != checks.check_denham((6, 10, 15), 6)
    assert checks.check_denham((6, 10, 15), 5)


def test_classify_and_p_k_checkers_reject_wrong_values():
    text = _genfun(["classify", "--params", "3,5,7", "--bound", "50", "--format", "csv"])
    counts = checks.parse_classify(text, "csv")
    assert checks.check_classify((3, 5, 7), 50, counts) == []
    counts[20] += 1
    assert checks.check_classify((3, 5, 7), 50, counts)
    poly = checks.parse_poly(_genfun(["genfun", "--params", "3,5", "--k", "2", "--format", "json"]), "json")
    assert checks.check_p_k(3, 5, 2, poly) == []
    assert checks.check_p_k(3, 5, 2, {**poly, max(poly) + 1: 1})
