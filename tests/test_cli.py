import argparse
import concurrent.futures
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, combinations
from math import gcd
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobgen import cli, closedform, dp, genfun, oracle
from frobgen.cli import main
from frobgen.intpoly import IntPoly
from frobgen.report import StatReport

from helpers import brute_counts


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args: str) -> tuple[int, str, str]:
    """Run ``python -m frobgen *args`` in a fresh child process.

    The child starts in ``src``, so ``python -m`` finds the package there on
    a checkout with no install step, with or without ``PYTHONPATH``. It
    inherits the parent's environment: a test that needs an environment
    variable sets it with ``monkeypatch.setenv`` before calling this; never
    pass a fresh ``env=`` dict, which would drop everything else.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "frobgen", *args],
        capture_output=True,
        text=True,
        cwd=SRC,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args: str) -> tuple[int, str]:
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


class TestCompute:
    def test_golden_g(self, capsys):
        code, out = run_main(capsys, "compute", "--params", "5,7", "--k", "0", "--stat", "g")
        assert code == 0
        assert "23" in out and "closed-form" in out

    def test_golden_c_json(self, capsys):
        code, out = run_main(
            capsys, "compute", "--params", "5,7", "--stat", "c", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "stat": "c",
            "a": 5,
            "b": 7,
            "k": 0,
            "value": "12",
            "provenance": "closed-form",
        }

    def test_power_sum_json_schema(self, capsys):
        code, out = run_main(
            capsys,
            "compute", "--params", "3,5", "--k", "1", "--stat", "sm", "--m", "2",
            "--format", "json",
        )
        assert code == 0
        assert (
            out.strip()
            == '{"stat":"s^m","a":3,"b":5,"k":1,"m":2,"value":"2335","provenance":"closed-form"}'
        )

    def test_oracle_routing_for_three_params(self, capsys):
        code, out = run_main(
            capsys, "compute", "--params", "3,5,7", "--stat", "g", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["provenance"] == "oracle"
        assert data["params"] == [3, 5, 7]
        assert data["value"] == "4"

    def test_forced_oracle_matches_closed_form(self, capsys):
        _, closed = run_main(
            capsys, "compute", "--params", "5,7", "--stat", "c", "--format", "json"
        )
        _, oracle = run_main(
            capsys, "compute", "--params", "5,7", "--stat", "c", "--oracle",
            "--format", "json",
        )
        assert json.loads(closed)["value"] == json.loads(oracle)["value"]
        assert json.loads(oracle)["provenance"] == "oracle"

    def test_empty_maximum_convention(self, capsys):
        code, out = run_main(
            capsys, "compute", "--params", "1,7", "--stat", "g", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "-1"
        assert data["empty"] is True

    def test_at_most_stats(self, capsys):
        code, out = run_main(
            capsys, "compute", "--params", "3,5", "--k", "1", "--stat", "sle",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == "179"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_value_past_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out = run_main(
            capsys,
            "compute", "--params", "3,5,7", "--k", "1", "--stat", "sm", "--m", "5000",
            "--format", "json",
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        # R_1(3,5,7), the integers with exactly one representation
        expected = sum(j**5000 for j in (0, 3, 5, 6, 7, 8, 9, 11))
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(out)["value"] == str(expected)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_oracle_sm_k0_m2(self, capsys):
        # no closed form implemented, but the oracle path is explicit and exact
        code, out = run_main(
            capsys,
            "compute", "--params", "3,5", "--k", "0", "--stat", "sm", "--m", "2",
            "--oracle", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == str(1 + 4 + 16 + 49)


def _stat_cases():
    for params in ("3,5", "5,7"):
        for flag in cli.STATS:
            for k in range(4):
                for m in range(4) if flag == "sm" else [None]:
                    if k == 0 and m is not None and m >= 2:
                        continue  # no closed form implemented: exit 3
                    yield params, flag, k, m


class TestStatDispatch:
    @pytest.mark.parametrize("params,flag,k,m", list(_stat_cases()))
    def test_closed_form_matches_oracle(self, capsys, params, flag, k, m):
        argv = ["compute", "--params", params, "--stat", flag, "--k", str(k)]
        if m is not None:
            argv += ["--m", str(m)]
        code, closed = run_main(capsys, *argv, "--format", "json")
        oracle_code, oracle = run_main(capsys, *argv, "--oracle", "--format", "json")
        assert code == oracle_code == 0
        closed, oracle = json.loads(closed), json.loads(oracle)
        assert closed.pop("provenance") == "closed-form"
        assert oracle.pop("provenance") == "oracle"
        assert closed == oracle


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ("classify", "--params", "3,5", "--bound", "200000"),  # 3 MB of rows
            ("enumerate", "--params", "3,5", "--k", "2000", "--at-most"),  # 169 KB
        ],
    )
    def test_closed_stdout(self, args):
        # more than a pipe buffer of output, of which the reader takes 20 bytes
        proc = subprocess.Popen(
            [sys.executable, "-m", "frobgen", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=SRC,
        )
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == ""  # no traceback, nor any other message

    def test_validation_not_coprime(self):
        code, _, err = run_cli("verify", "--params", "4,6")
        assert code == 2
        assert "NotCoprime" in err

    def test_unsupported_closed_form(self):
        code, _, err = run_cli(
            "compute", "--params", "3,5", "--k", "0", "--stat", "sm", "--m", "2"
        )
        assert code == 3
        assert "UnsupportedK" in err

    def test_infinite_set(self):
        code, _, err = run_cli("compute", "--params", "1", "--k", "1", "--stat", "c")
        assert code == 3
        assert "InfiniteSet" in err

    def test_resource_guard(self, monkeypatch):
        # the child reads the ceiling from its environment at startup
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "10")
        # rows stream block by block: the guard refuses before the first
        for fmt in ("plain", "csv", "json"):
            code, out, err = run_cli(
                "classify", "--params", "5,7", "--bound", "100", "--format", fmt
            )
            assert code == 4
            assert "BoundTooLarge" in err
            assert out == ""

    def test_enumerate_bound_guard(self, monkeypatch, capsys):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "10")
        code = main(["enumerate", "--params", "5,7", "--k", "0", "--bound", "100"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "BoundTooLarge" in captured.err

    @pytest.mark.parametrize("value", ["abc", "-1", "1e6"])
    def test_malformed_max_bound(self, monkeypatch, value):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", value)
        code, out, err = run_cli("enumerate", "--params", "3,5", "--k", "0")
        assert code == 2
        assert out == ""
        assert "ValidationError" in err and "FROBGEN_MAX_BOUND" in err

    def test_indeterminate(self, monkeypatch):
        # the window for (5,7,9) at k=3 closes far beyond j = 20
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "20")
        code, _, err = run_cli("compute", "--params", "5,7,9", "--k", "3", "--stat", "g")
        assert code == 4
        assert "Indeterminate" in err

    def test_indeterminate_coins_beyond_cap(self):
        # both coins exceed the default cap of 10^7 entries scanned
        code, out, err = run_cli(
            "compute", "--params", "1000000007,1000000009", "--k", "0", "--stat", "g",
            "--oracle",
        )
        assert code == 4
        assert out == ""
        assert "Indeterminate" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one(self, workers):
        code, out, err = run_cli("verify", "--params", "3,5", "--workers", workers)
        assert code == 2
        assert out == ""
        assert "ValidationError" in err and "--workers" in err

    @pytest.mark.parametrize(
        "args",
        [
            ("--params", "3,5", "--kmax", "-1"),
            ("--params", "3,5", "--mmax", "-3"),
            ("--sweep", "-5"),
            ("--sweep", "1"),
        ],
    )
    def test_verify_sizes_that_check_nothing(self, args):
        code, out, err = run_cli("verify", *args)
        assert code == 2
        assert out == ""
        assert "ValidationError" in err

    def test_cyclotomic_guard(self, monkeypatch):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "100")
        code, out, err = run_cli("genfun", "--cyclotomic", "210")
        assert code == 4
        assert out == ""
        assert "BoundTooLarge" in err
        code, out, _ = run_cli("genfun", "--cyclotomic", "30")
        assert code == 0
        assert out.strip() != ""

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_cyclotomic_below_one(self, n, capsys):
        code = main(["genfun", "--cyclotomic", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ValidationError" in captured.err and f"--cyclotomic must be at least 1, got {n}" in captured.err

    @pytest.mark.parametrize(
        "args",
        [
            ("--params", "3,5", "--indicator", "--k", "1000", "--bound", "1000"),
            ("--params", "3,5", "--indicator", "--k", "1", "--bound", "1000"),
            ("--params", "97,101", "--k", "0"),
            ("--params", "97,101", "--k", "1"),
        ],
        ids=["indicator-k-past-bound", "indicator", "p_k-0", "p_k-1"],
    )
    def test_genfun_pair_guard(self, args, monkeypatch, capsys):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "100")
        code = main(["genfun", *args])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "BoundTooLarge" in captured.err
        if "--bound" in args:
            assert "bound 1000 exceeds" in captured.err

    def test_bad_flag(self):
        code, _, _ = run_cli("compute", "--params", "5,7", "--stat", "median")
        assert code == 2

    @pytest.mark.parametrize("k,m", [("2", "-1"), ("1", "-2")])
    def test_negative_m_on_oracle_path(self, k, m):
        code, out, err = run_cli(
            "compute", "--params", "3,5,7", "--stat", "sm", "--k", k, "--m", m
        )
        assert code == 2
        assert out == ""
        assert "m must be >= 0" in err

    @pytest.mark.parametrize("params", ["997,1000,1001", "5,7"])
    def test_negative_m_refused_before_scan(self, params, monkeypatch, capsys):
        def no_scan(*args, **kwargs):
            raise AssertionError("a scan was started for a query --m refuses")

        monkeypatch.setattr("frobgen.oracle._stream", no_scan)
        code = main(
            ["compute", "--params", params, "--k", "3000", "--stat", "sm", "--m", "-1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ValidationError" in captured.err and "m must be >= 0" in captured.err

    @pytest.mark.parametrize("route", [(), ("--oracle",)], ids=["closed", "oracle"])
    def test_m_past_the_ceiling(self, route, monkeypatch, capsys):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "100")
        argv = ["compute", "--params", "3,5", "--k", "1", "--stat", "sm", *route]
        assert main([*argv, "--m", "100"]) == 0
        capsys.readouterr()

        def no_work(*args, **kwargs):
            raise AssertionError("work was started for an --m the ceiling refuses")

        monkeypatch.setattr(cli, "closed_report", no_work)
        monkeypatch.setattr(cli, "enumerate_exact_k", no_work)
        code = main([*argv, "--m", "101"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "BoundTooLarge" in captured.err and "101" in captured.err

    def test_mmax_past_the_ceiling(self, monkeypatch, capsys):
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "100")
        argv = ["verify", "--params", "2,3", "--kmax", "1"]
        assert main([*argv, "--mmax", "100"]) == 0
        capsys.readouterr()

        def no_work(*args, **kwargs):
            raise AssertionError("work was started for an --mmax the ceiling refuses")

        monkeypatch.setattr(cli, "verify_pair", no_work)
        code = main([*argv, "--mmax", "101"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "BoundTooLarge" in captured.err and "101" in captured.err

    def test_huge_kmax_refused_before_allocating(self, monkeypatch, capsys):
        # the window for k = 10^6 cannot end by j = 100: refused before the
        # scan, and before its 10^6 + 1 per-count lists exist
        monkeypatch.setenv("FROBGEN_MAX_BOUND", "100")
        cli.build_parser()  # built outside the measurement
        tracemalloc.start()
        try:
            code = main(["verify", "--params", "2,3", "--kmax", "1000000", "--mmax", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "Indeterminate" in captured.err
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "ceiling,argv,passes",
        [
            # (39, 40) at kmax 3: its window ends at 4 * 39 * 40 - 40 = 6200
            ("1000", ("--sweep", "40", "--kmax", "3"), None),
            # (9, 10) at kmax 1: its window ends at 2 * 9 * 10 - 10 = 170
            ("170", ("--sweep", "10", "--kmax", "1", "--mmax", "1"), (31, 589)),
            ("169", ("--sweep", "10", "--kmax", "1", "--mmax", "1"), None),
            # (9, 10) at kmax 0: numerator_h checks up to 9 * 10 = 90
            ("90", ("--sweep", "10", "--kmax", "0", "--mmax", "1"), (31, 279)),
            ("89", ("--sweep", "10", "--kmax", "0", "--mmax", "1"), None),
        ],
        ids=["kmax3-past", "kmax1-at", "kmax1-past", "kmax0-at", "kmax0-past"],
    )
    def test_sweep_past_the_ceiling(self, ceiling, argv, passes, monkeypatch, capsys):
        # the furthest position of the last pair goes through the ceiling
        # before any pair is scanned
        monkeypatch.setenv("FROBGEN_MAX_BOUND", ceiling)
        real = oracle._stream
        scans = []

        def counted(*args, **kwargs):
            scans.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "_stream", counted)
        code, out = run_main(capsys, "verify", *argv, "--format", "json")
        if passes is None:
            assert code == 4
            assert out == ""
            assert scans == []
        else:
            pairs, checks = passes
            assert code == 0
            assert json.loads(out) == {"pairs": pairs, "checks": checks, "failures": 0}
            assert len(scans) == pairs

    def test_negative_k(self):
        code, _, err = run_cli("compute", "--params", "5,7", "--k", "-1", "--stat", "g")
        assert code == 2
        assert "k must be >= 0" in err

    def test_sm_requires_m(self):
        code, _, err = run_cli("compute", "--params", "3,5", "--k", "1", "--stat", "sm")
        assert code == 2

    def test_wrong_arity_denham(self):
        code, _, err = run_cli("genfun", "--params", "3,5", "--denham")
        assert code == 2
        assert "WrongArity" in err


class TestEnumerate:
    def test_json_schema(self, capsys):
        code, out = run_main(
            capsys, "enumerate", "--params", "3,5", "--k", "1", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["params"] == [3, 5]
        assert data["k"] == 1
        assert data["complete"] is True
        assert data["elements"][0] == "0" and data["elements"][-1] == "22"

    def test_json_reemit_identity(self, capsys):
        _, out = run_main(
            capsys, "enumerate", "--params", "3,5", "--k", "1", "--format", "json"
        )
        text = out.strip()
        assert json.dumps(json.loads(text), separators=(",", ":")) == text

    @given(elements=st.lists(st.integers(min_value=0, max_value=10**40), unique=True))
    @example(elements=[])
    @example(elements=[0])
    def test_plain_line_is_the_join_form(self, elements):
        gs = oracle.GapSet(oracle.Params((3, 5)), 0, sorted(elements), False)
        out = io.StringIO()
        with patch.object(cli, "enumerate_exact_k", return_value=gs), redirect_stdout(out):
            assert main(["enumerate", "--params", "3,5"]) == 0
        line = " ".join(str(j) for j in gs.elements) if gs.elements else "(empty)"
        assert out.getvalue().split("\n")[1:] == [line, ""]

    def test_csv_one_element_per_line(self, capsys):
        code, out = run_main(
            capsys, "enumerate", "--params", "3,5", "--format", "csv"
        )
        assert code == 0
        assert out == "1\n2\n4\n7\n"

    def test_at_most(self, capsys):
        code, out = run_main(
            capsys, "enumerate", "--params", "3,5", "--k", "1", "--at-most",
            "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["elements"]) == 19

    def test_bounded_partial(self, capsys):
        code, out = run_main(
            capsys, "enumerate", "--params", "5,7", "--bound", "10", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["complete"] is False
        assert data["elements"] == ["1", "2", "3", "4", "6", "8", "9"]


class TestClassify:
    def test_csv_columns(self, capsys):
        code, out = run_main(
            capsys, "classify", "--params", "3,5", "--bound", "7", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,count,k"
        rows = {int(line.split(",")[0]): line.split(",")[1:] for line in lines[1:]}
        assert rows[0] == ["1", "1"]
        for j in (1, 2, 4, 7):
            assert rows[j] == ["0", "0"]

    def test_bound_zero(self, capsys):
        code, out = run_main(
            capsys, "classify", "--params", "3,5", "--bound", "0", "--format", "csv"
        )
        assert code == 0
        assert out.strip().splitlines()[1:] == ["0,1,1"]

    def test_golden_last_row_is_gap(self, capsys):
        code, out = run_main(
            capsys, "classify", "--params", "5,7", "--bound", "23", "--format", "csv"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "23,0,0"

    def test_json_roundtrip(self, capsys):
        _, out = run_main(
            capsys, "classify", "--params", "3,5", "--bound", "5", "--format", "json"
        )
        text = out.strip()
        assert json.dumps(json.loads(text), separators=(",", ":")) == text


# The three row layouts cmd_classify passes to cli._count_rows, each with
# the f-string that writes one of its rows.
COUNT_LAYOUTS = {
    "json": (
        (',{"j":%d', ',{"j":', ',"count":"', ('","k":"', '"}'), '{"j":'),
        lambda j, c, width: (',' if j else '') + f'{{"j":{j},"count":"{c}","k":"{c}"}}',
    ),
    "csv": (("%d", "", ",", (",", "\n")), lambda j, c, width: f"{j},{c},{c}\n"),
    "plain": (None, lambda j, c, width: f"{str(j).rjust(width)}  r={c}\n"),
}


def count_pieces(fmt, counts, width, run=None):
    """cli._count_rows's pieces for counts in one layout, in blocks of
    10 * run rows (run None: the default)."""
    size = 10 * (run or cli._RUN_DECADES)
    blocks = [list(counts[lo : lo + size]) for lo in range(0, len(counts), size)]
    args = COUNT_LAYOUTS[fmt][0] or (f"%{width - 1}d", " " * (width - 1), "  r=", ("\n",))
    return list(cli._count_rows(blocks, *args))


def count_rows_by_f_string(fmt, counts, width):
    row = COUNT_LAYOUTS[fmt][1]
    return "".join(row(j, c, width) for j, c in enumerate(counts))


class TestDecadeRows:
    """cli._count_rows: one decade prefix per ten rows, one join per block."""

    @settings(max_examples=300)
    @given(
        counts=st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=250),
        width=st.integers(min_value=1, max_value=6),
        fmt=st.sampled_from(sorted(COUNT_LAYOUTS)),
        run=st.sampled_from([None, 1, 2, 3]),
    )
    def test_equals_one_f_string_per_row(self, counts, width, fmt, run):
        # run None keeps the default length; 1-3 decades split 250 rows into
        # up to 25 blocks
        text = "".join(count_pieces(fmt, counts, width, run))
        assert text == count_rows_by_f_string(fmt, counts, width)

    @pytest.mark.parametrize("run", [None, 1, 2, 7])
    @pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1234])
    def test_the_callers_rows(self, n, run):
        counts = [(j * j) % 1001 for j in range(n)]
        width = len(str(n - 1))
        for fmt in COUNT_LAYOUTS:
            pieces = count_pieces(fmt, counts, width, run)
            assert len(pieces) == -(-n // (10 * (run or cli._RUN_DECADES)))
            assert "".join(pieces) == count_rows_by_f_string(fmt, counts, width)

    def test_runs_of_whole_decades(self):
        run = 10 * cli._RUN_DECADES
        counts = range(2 * run + 3)
        pieces = count_pieces("csv", counts, 0)
        assert [piece.count("\n") for piece in pieces] == [run, run, 3]
        assert pieces[1].startswith(f"{run},{run},{run}\n")


def classify_by_f_string(denoms, bound, fmt):
    """classify's whole stdout, one f-string per row."""
    rows = count_rows_by_f_string(fmt, dp.rep_counts(denoms, bound), len(str(bound)))
    if fmt == "json":
        return f'{{"params":[{",".join(map(str, denoms))}],"bound":{bound},"rows":[{rows}]}}\n'
    return "j,count,k\n" + rows if fmt == "csv" else rows


def assert_same_text(out, expected):
    # a thousand characters at a time, so a failure shows where the texts
    # part without diffing two texts of up to 100,001 rows
    for lo in range(0, max(len(out), len(expected)), 1000):
        assert (lo, out[lo : lo + 1000]) == (lo, expected[lo : lo + 1000])


def classify_out(denoms, bound, fmt, run=None):
    with patch.object(cli, "_RUN_DECADES", run or cli._RUN_DECADES):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["classify", "--params", ",".join(map(str, denoms)),
                         "--bound", str(bound), "--format", fmt])
    assert code == 0
    return out.getvalue()


class TestClassifyStream:
    """classify's table in blocks of 10 * _RUN_DECADES rows, each block's
    rows written by one join."""

    @settings(max_examples=100, deadline=None)
    @given(
        denoms=st.sampled_from([(1,), (3, 5, 7), (2, 9), (4, 6, 9, 25), (1, 1, 2)]),
        bound=st.integers(min_value=0, max_value=250),
        fmt=st.sampled_from(["plain", "csv", "json"]),
        run=st.sampled_from([None, 1, 2]),
    )
    def test_equals_one_f_string_per_row(self, denoms, bound, fmt, run):
        # run 1 and 2 break the table every 10 or 20 rows
        expected = classify_by_f_string(denoms, bound, fmt)
        assert_same_text(classify_out(denoms, bound, fmt, run), expected)

    @pytest.mark.parametrize("run", [None, 1, 2])
    @pytest.mark.parametrize(
        "bound", [9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001, 99999, 100000, 100001]
    )
    def test_every_band_edge(self, bound, run):
        for fmt in ("plain", "csv", "json"):
            expected = classify_by_f_string((7, 11, 13), bound, fmt)
            assert_same_text(classify_out((7, 11, 13), bound, fmt, run), expected)

    @pytest.mark.parametrize("run", [None, 1, 2])
    @pytest.mark.parametrize("bound", [0, 19, 20, 21, 100001])
    def test_pieces_hold_at_most_one_run(self, bound, run):
        rows = 10 * (run or cli._RUN_DECADES)
        written = []
        with patch.object(cli, "_write_rows", lambda head, pieces, end: written.append(list(pieces))):
            for fmt in ("plain", "csv", "json"):
                classify_out((3, 5, 7), bound, fmt, run)
                pieces = written.pop()
                assert len(pieces) == -(-(bound + 1) // rows)
                sizes = [piece.count("{" if fmt == "json" else "\n") for piece in pieces]
                assert sum(sizes) == bound + 1
                assert max(sizes) <= rows


def bit_pieces(bits, run=None):
    """cli._bit_rows's pieces, with its run length set to `run` decades."""
    with patch.object(cli, "_RUN_DECADES", run or cli._RUN_DECADES):
        return list(cli._bit_rows(bits))


def bit_rows_by_f_string(bits):
    return "".join(f"{j},{b}\n" for j, b in enumerate(bits))


class TestBitRows:
    @settings(max_examples=300)
    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), max_size=250).map(bytes),
        run=st.sampled_from([None, 1, 2, 3]),
    )
    def test_equals_one_f_string_per_row(self, bits, run):
        # run 1-3 cuts the 90- and 900-row bands into pieces of 10-30 rows
        assert "".join(bit_pieces(bits, run)) == bit_rows_by_f_string(bits)

    @pytest.mark.parametrize(
        "n", [9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001, 99999, 100000, 100001]
    )
    def test_every_band_edge(self, n):
        bits = bytes(j * j % 7 % 2 for j in range(n))
        assert "".join(cli._bit_rows(bits)) == bit_rows_by_f_string(bits)

    def test_pieces_hold_at_most_one_run(self):
        # the five-digit band's 81,925 rows span three runs, the last short
        run = 10 * cli._RUN_DECADES
        n = 10000 + 2 * run + 5
        bits = bytes(j % 3 % 2 for j in range(n))
        pieces = list(cli._bit_rows(bits))
        sizes = [piece.count("\n") for piece in pieces]
        assert sizes == [10, 90, 900, 9000, run, run, 5]
        assert max(sizes) <= run
        assert "".join(pieces) == bit_rows_by_f_string(bits)

    @pytest.mark.parametrize("lo", [0, 7, 123456789, 10**9 - 20000])
    @pytest.mark.parametrize("place", range(10))
    def test_digit_column_is_bounded(self, lo, place):
        # a place value far past the piece builds only the runs it meets
        v, hi = 10**place, lo + 10 * cli._RUN_DECADES
        tracemalloc.start()
        try:
            column = cli._digit_column(lo, hi, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert column == bytes(48 + j // v % 10 for j in range(lo, hi))
        assert peak < 4 * (hi - lo)


class TestGenfun:
    def test_numerator_text(self, capsys):
        code, out = run_main(capsys, "genfun", "--params", "3,5", "--numerator")
        assert code == 0
        assert out.strip() == "1 - z^15"

    def test_gap_polynomial_text(self, capsys):
        code, out = run_main(capsys, "genfun", "--params", "3,5", "--k", "0")
        assert code == 0
        assert out.strip() == "z + z^2 + z^4 + z^7"

    def test_denham(self, capsys):
        code, out = run_main(capsys, "genfun", "--params", "2,3,5", "--denham")
        assert code == 0
        assert out.strip() == "4"

    def test_cyclotomic(self, capsys):
        code, out = run_main(capsys, "genfun", "--cyclotomic", "6")
        assert code == 0
        assert out.strip() == "1 - z + z^2"

    def test_poly_json_roundtrip(self, capsys):
        _, out = run_main(
            capsys, "genfun", "--params", "3,5", "--k", "1", "--format", "json"
        )
        text = out.strip()
        assert json.dumps(json.loads(text), separators=(",", ":")) == text

    def test_indicator(self, capsys):
        code, out = run_main(
            capsys, "genfun", "--params", "2,3", "--indicator", "--k", "0",
            "--bound", "4",
        )
        assert code == 0
        assert out.strip() == "10111"


class TestVerify:
    def test_single_pair_passes(self, capsys):
        code, out = run_main(
            capsys, "verify", "--params", "3,5", "--kmax", "0", "--mmax", "1"
        )
        assert code == 0
        assert "all passed" in out

    def test_sweep_json(self, capsys):
        code, out = run_main(
            capsys, "verify", "--sweep", "8", "--kmax", "2", "--mmax", "2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["failures"] == 0
        assert data["pairs"] == len(
            [(a, b) for b in range(2, 9) for a in range(1, b) if gcd(a, b) == 1]
        )

    def test_worker_count_does_not_change_output(self):
        code1, out1, _ = run_cli(
            "verify", "--sweep", "6", "--kmax", "1", "--mmax", "1", "--workers", "1",
            "--format", "json",
        )
        code2, out2, _ = run_cli(
            "verify", "--sweep", "6", "--kmax", "1", "--mmax", "1", "--workers", "3",
            "--format", "json",
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_workers_capped_at_cpu_count(self, capsys, monkeypatch):
        sizes = []

        class InlinePool:
            # records the requested pool size and runs the jobs in-process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        code, out = run_main(
            capsys, "verify", "--sweep", "4", "--kmax", "0", "--mmax", "1",
            "--workers", "64",
        )
        assert code == 0
        assert "all passed" in out
        assert sizes == [2]

    def test_pool_machinery_not_imported_at_startup(self):
        # only verify --workers N > 1 imports concurrent.futures.process
        code = "import frobgen.cli, sys; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=SRC
        )
        assert proc.stdout == "False\n", proc.stderr

    def test_reports_every_failure(self, capsys, monkeypatch):
        # the closed row's c one too high at every k, its other entries kept
        real = cli._closed_row
        monkeypatch.setattr(
            cli, "_closed_row", lambda p, k: tuple(v + (i == 1) for i, v in enumerate(real(p, k)))
        )
        code, out = run_main(
            capsys, "verify", "--params", "3,5", "--kmax", "2", "--mmax", "0"
        )
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 3
        failures = [json.loads(line) for line in lines]
        assert [(f["check"], f["k"]) for f in failures] == [("c", 0), ("c", 1), ("c", 2)]
        assert all(int(f["actual"]) == int(f["expected"]) + 1 for f in failures)
        # the first line is the one a single-failure report always printed
        assert lines[0] == '{"check":"c","a":3,"b":5,"k":0,"expected":"4","actual":"5"}'

    def test_reports_a_wrong_numerator(self, capsys, monkeypatch):
        # h is compared with 1 - z^ab as a polynomial; the failure entry
        # gives both as text, and the check count does not move
        checks, _ = cli.verify_pair(3, 5, 2, 1)
        wrong = IntPoly({0: 1, 1: 1, 15: -1})
        monkeypatch.setattr(cli, "_numerator", lambda params, start, run: wrong)
        code, out = run_main(
            capsys, "verify", "--params", "3,5", "--kmax", "2", "--mmax", "1"
        )
        assert code == 1
        assert out.splitlines() == [
            '{"check":"h == 1 - z^ab","a":3,"b":5,"expected":"1 - z^15","actual":"1 + z - z^15"}'
        ]
        assert cli.verify_pair(3, 5, 2, 1)[0] == checks

    def test_reports_a_faulty_gap_run(self, capsys, monkeypatch):
        # the scan's E_0 run short of its last gap (7): h's check fails
        # with _numerator's assertion as its actual value, not a traceback,
        # and the k loop reports E_0's own g, c, s and support; the check
        # count does not move
        checks, _ = cli.verify_pair(3, 5, 2, 1)
        real = cli._by_count_bytes

        def drop_last_gap(params, kmax):
            runs = real(params, kmax)
            start, run = runs[0]
            run = run[: run.rfind(1)]
            runs[0] = (start, run[: run.rfind(1) + 1])
            return runs

        monkeypatch.setattr(cli, "_by_count_bytes", drop_last_gap)
        code, out = run_main(
            capsys, "verify", "--params", "3,5", "--kmax", "2", "--mmax", "1"
        )
        assert code == 1
        assert out.splitlines()[:5] == [
            '{"check":"h == 1 - z^ab","a":3,"b":5,"expected":"1 - z^15",'
            '"actual":"gap indicator differs from the representable-set bitset at degree 7"}',
            '{"check":"g","a":3,"b":5,"k":0,"expected":"4","actual":"7"}',
            '{"check":"c","a":3,"b":5,"k":0,"expected":"3","actual":"4"}',
            '{"check":"s","a":3,"b":5,"k":0,"expected":"7","actual":"14"}',
            '{"check":"p_k support","a":3,"b":5,"k":0,"expected":"(1, 2, 4)",'
            '"actual":"(1, 2, 4, 7)"}',
        ]
        assert cli.verify_pair(3, 5, 2, 1)[0] == checks

    def test_reports_a_gap_form_short_of_a_representable_n(self, capsys, monkeypatch):
        # the k = 0 form with its last representable n dropped marks 6 as a
        # fourth gap of (3, 5): its 0/1 check against Sylvester's count
        # (a-1)(b-1)/2 = 3 fails as well as its support
        real = closedform._rows

        def drop_last(p, length):
            bits = real(p, length)
            bits[bits.rfind(1)] = 0
            return bits

        monkeypatch.setattr(closedform, "_rows", drop_last)
        code, out = run_main(
            capsys, "verify", "--params", "3,5", "--kmax", "2", "--mmax", "2"
        )
        assert code == 1
        assert out.splitlines() == [
            '{"check":"p_k 0/1 coefficients","a":3,"b":5,"k":0,"expected":"True","actual":"False"}',
            '{"check":"p_k support","a":3,"b":5,"k":0,"expected":"(1, 2, 4, 7)",'
            '"actual":"(1, 2, 4, 6, 7)"}',
        ]

    def test_reports_a_wrong_power_sum(self, capsys, monkeypatch):
        real = cli._power_sums_by_k

        def off_at_cube(p, kmax, m):
            table = real(p, kmax, m)
            for sums in table:
                sums[3] += 1
            return table

        monkeypatch.setattr(cli, "_power_sums_by_k", off_at_cube)
        code, out = run_main(
            capsys, "verify", "--params", "3,5", "--kmax", "2", "--mmax", "3"
        )
        assert code == 1
        failures = [json.loads(line) for line in out.splitlines()]
        assert [(f["check"], f["k"], f["m"]) for f in failures] == [
            ("s^m", 1, 3),
            ("s^m", 2, 3),
        ]
        counts = brute_counts((3, 5), 60)  # R_2(3,5) ends at 37
        for f in failures:
            cubes = sum(j**3 for j, c in enumerate(counts) if c == f["k"])
            assert f["expected"] == str(cubes)
            assert int(f["actual"]) == cubes + 1

    def test_reports_a_wrong_at_most_stat(self, capsys, monkeypatch):
        # the closed form of one at-most statistic is off by one at each k: g<=
        # at k = 0, c<= at k = 1, s<= at k = 2 (entries 3, 4, 5 of the row)
        real = cli._closed_row

        def off_by_one(p, k):
            values = list(real(p, k))
            values[3 + k] += 1
            return tuple(values)

        monkeypatch.setattr(cli, "_closed_row", off_by_one)
        code, out = run_main(capsys, "verify", "--params", "3,5", "--kmax", "2")
        assert code == 1
        failures = [json.loads(line) for line in out.splitlines()]
        assert [(f["check"], f["k"]) for f in failures] == [("g<=", 0), ("c<=", 1), ("s<=", 2)]
        counts = brute_counts((3, 5), 60)  # R_2(3,5) ends at 37
        for f, stat in zip(failures, (max, len, sum)):
            at_most = [j for j, c in enumerate(counts) if c <= f["k"]]
            assert f["expected"] == str(stat(at_most))
            assert int(f["actual"]) == stat(at_most) + 1

    @pytest.mark.parametrize(
        "name,fault,line",
        [
            (
                "_closed_row",
                # the closed g of E_4 alone one too high
                lambda real: lambda p, k: tuple(
                    v + (k == 4 and i == 0) for i, v in enumerate(real(p, k))
                ),
                '{"check":"g","a":3,"b":5,"k":4,"expected":"67","actual":"68"}',
            ),
            (
                "_power_sums_by_k",
                # the closed squares of E_3 alone one too high
                lambda real: lambda p, kmax, m: [
                    [v + (k == 3 and i == 2) for i, v in enumerate(sums)]
                    for k, sums in enumerate(real(p, kmax, m), 1)
                ],
                '{"check":"s^m","a":3,"b":5,"k":3,"m":2,"expected":"25735","actual":"25736"}',
            ),
        ],
        ids=("g-at-k4", "squares-at-k3"),
    )
    def test_a_fault_at_one_k_fails_one_check(self, name, fault, line, monkeypatch):
        # the two tables differ in one entry: the walk after the one compare
        # reports that entry alone, and the check count does not move
        passed = cli.verify_pair(3, 5, 5, 4)
        monkeypatch.setattr(cli, name, fault(getattr(cli, name)))
        checks, failures = cli.verify_pair(3, 5, 5, 4)
        assert passed == (1 + 8 * 6 + 5 * 5, [])
        assert checks == passed[0]
        assert [json.dumps(f, separators=(",", ":")) for f in failures] == [line]

    def test_memory_linear_in_kmax(self):
        # the oracle side holds the exactly-k sets, |at-most-300| entries in
        # all, and no at-most set: one per k would hold Θ(300² · ab) entries
        tracemalloc.start()
        try:
            checks, failures = cli.verify_pair(7, 11, 300, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert failures == []
        assert checks == 1 + 8 * 301 + 300 * 2
        assert peak < 5_000_000

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (1, 7), (2, 3), (3, 5), (7, 10), (29, 30)])
    def test_one_scan_per_pair(self, a, b, monkeypatch):
        real = oracle._stream
        scans = []

        def counted(*args, **kwargs):
            scans.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "_stream", counted)
        checks, failures = cli.verify_pair(a, b, 5, 4)
        assert failures == []
        assert checks > 0
        assert len(scans) == 1

    def test_builds_no_report_or_polynomial(self, monkeypatch):
        # verify compares the closed forms' integers and bytes as computed
        def refuse(what):
            def refused(*args, **kwargs):
                raise AssertionError(f"verify_pair built {what}")

            return refused

        monkeypatch.setattr(StatReport, "__init__", refuse("a StatReport"))
        monkeypatch.setattr(genfun, "p_k_poly", refuse("p_k_poly"))
        monkeypatch.setattr(genfun, "p_k_exponents", refuse("p_k's exponents"))
        monkeypatch.setattr(cli, "p_k_exponents", refuse("p_k's exponents"))
        checks, failures = cli.verify_pair(29, 30, 5, 4)
        assert failures == []
        assert checks == 1 + 8 * 6 + 5 * 5

    @pytest.mark.parametrize(
        "fault,form",
        [
            # a coefficient 2 where the product form has a 1
            ("coefficient 2", lambda real: real.replace(b"\x01", b"\x02", 1)),
            # the top sum laid onto the bottom one: ab - 1 bytes set
            ("collision", lambda real: real[:-1] + b"\x00"),
        ],
        ids=("coefficient-2", "collision"),
    )
    def test_reports_a_product_form_outside_zero_one(self, fault, form, capsys, monkeypatch):
        real = closedform._grid_bytes
        monkeypatch.setattr(closedform, "_grid_bytes", lambda p: form(real(p)))
        code = main(["verify", "--params", "3,5", "--kmax", "3", "--mmax", "1"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        failures = [json.loads(line) for line in captured.out.splitlines()]
        zero_one = [f for f in failures if f["check"] == "p_k 0/1 coefficients"]
        assert [f["k"] for f in zero_one] == [1, 2, 3]
        assert all((f["expected"], f["actual"]) == ("True", "False") for f in zero_one)
        # a coefficient 2 is still in the support; a lost sum is not
        support = [f["k"] for f in failures if f["check"] == "p_k support"]
        assert support == ([] if fault == "coefficient 2" else [1, 2, 3])
        assert len(failures) == len(zero_one) + len(support)

    def test_reports_a_shifted_product_form(self, capsys, monkeypatch):
        # every row one place too high: 0/1 with ab ones, but the wrong set
        real = closedform._grid_bytes
        monkeypatch.setattr(closedform, "_grid_bytes", lambda p: b"\x00" + real(p))
        code, out = run_main(capsys, "verify", "--params", "3,5", "--kmax", "2", "--mmax", "1")
        assert code == 1
        failures = [json.loads(line) for line in out.splitlines()]
        assert [(f["check"], f["k"]) for f in failures] == [("p_k support", 1), ("p_k support", 2)]
        counts = brute_counts((3, 5), 40)  # R_2(3,5) ends at 37
        for f in failures:
            exact = tuple(j for j, c in enumerate(counts) if c == f["k"])
            assert f["expected"] == str(exact)
            assert f["actual"] == str(tuple(j + 1 for j in exact))

    def test_reports_a_wrong_k0_form(self, capsys, monkeypatch):
        # n = 1 marked representable: k = 0's form, which verify reads through
        # closedform's one builder, loses the gap 1, so it holds two ones
        # where Sylvester's count is 3 and fails its 0/1 check and its support
        real = closedform._rows

        def marked(p, length):
            bits = real(p, length)
            bits[1] = 1
            return bits

        monkeypatch.setattr(closedform, "_rows", marked)
        code, out = run_main(capsys, "verify", "--params", "3,5", "--kmax", "2", "--mmax", "1")
        assert code == 1
        assert [json.loads(line) for line in out.splitlines()] == [
            {"check": "p_k 0/1 coefficients", "a": 3, "b": 5, "k": 0,
             "expected": "True", "actual": "False"},
            {"check": "p_k support", "a": 3, "b": 5, "k": 0,
             "expected": "(1, 2, 4, 7)", "actual": "(2, 4, 7)"},
        ]

    def test_oracle_step_is_not_the_closed_forms_translate(self, capsys, monkeypatch):
        # the closed form's step into k = 2 translates by ab + 1, and k = 3
        # steps from that, so its sums of E_2 and E_3 are those of the sets
        # one higher; R_1's sums stay right.  The oracle steps E_k from
        # E_(k-1) by ab with its own rows, so it still gives the true sums.
        real = closedform._translate
        steps = []

        def one_more_once(rows, sums):
            steps.append(len(rows))
            sums = real(rows, sums)
            if len(steps) == 1:
                sums = real(closedform._translate_rows(1, len(rows) - 1), sums)
            return sums

        monkeypatch.setattr(closedform, "_translate", one_more_once)
        code, out = run_main(
            capsys, "verify", "--params", "3,5", "--kmax", "3", "--mmax", "3"
        )
        assert code == 1
        assert steps == [4, 4]  # one step into each of k = 2, 3, on 4 orders
        failures = [json.loads(line) for line in out.splitlines()]
        assert [(f["check"], f["k"], f["m"]) for f in failures] == [
            ("s^m", k, m) for k in (2, 3) for m in (1, 2, 3)
        ]
        counts = brute_counts((3, 5), 60)  # R_3(3,5) ends at 52
        for f in failures:
            exact = [j for j, c in enumerate(counts) if c == f["k"]]
            assert f["expected"] == str(sum(j ** f["m"] for j in exact))
            assert f["actual"] == str(sum((j + 1) ** f["m"] for j in exact))

    def test_a_failed_support_is_walked(self, capsys, monkeypatch):
        # E_3 without its largest element: E_3 and E_4 are walked (E_4 matches,
        # but E_3 does not), E_5 is stepped from E_4, and the failures are
        # those of a walk of every set
        real = cli._by_count_bytes

        def dropped(params, kmax):
            # E_3's run without its last 1, and the 0s before it
            runs = real(params, kmax)
            start, run = runs[3]
            runs[3] = (start, run[:-1].rstrip(b"\0"))
            return runs

        real_sums = oracle.GapSet.power_sums
        walked = []

        def counted(self, m):
            walked.append(self.k)
            return real_sums(self, m)

        monkeypatch.setattr(cli, "_by_count_bytes", dropped)
        monkeypatch.setattr(oracle.GapSet, "power_sums", counted)
        code, out = run_main(
            capsys, "verify", "--params", "3,5", "--kmax", "5", "--mmax", "3"
        )
        assert code == 1
        assert walked == [0, 1, 3, 4]
        assert out.splitlines() == [
            '{"check":"g","a":3,"b":5,"k":3,"expected":"49","actual":"52"}',
            '{"check":"c","a":3,"b":5,"k":3,"expected":"14","actual":"15"}',
            '{"check":"s","a":3,"b":5,"k":3,"expected":"563","actual":"615"}',
            '{"check":"p_k support","a":3,"b":5,"k":3,'
            '"expected":"(30, 33, 35, 36, 38, 39, 40, 41, 42, 43, 44, 46, 47, 49)",'
            '"actual":"(30, 33, 35, 36, 38, 39, 40, 41, 42, 43, 44, 46, 47, 49, 52)"}',
            '{"check":"g<=","a":3,"b":5,"k":3,"expected":"49","actual":"52"}',
            '{"check":"c<=","a":3,"b":5,"k":3,"expected":"48","actual":"49"}',
            '{"check":"s<=","a":3,"b":5,"k":3,"expected":"1132","actual":"1184"}',
            '{"check":"s^m","a":3,"b":5,"k":3,"m":0,"expected":"14","actual":"15"}',
            '{"check":"s^m","a":3,"b":5,"k":3,"m":1,"expected":"563","actual":"615"}',
            '{"check":"s^m","a":3,"b":5,"k":3,"m":2,"expected":"23031","actual":"25735"}',
            '{"check":"s^m","a":3,"b":5,"k":3,"m":3,"expected":"957167","actual":"1097775"}',
            '{"check":"c<=","a":3,"b":5,"k":4,"expected":"63","actual":"64"}',
            '{"check":"s<=","a":3,"b":5,"k":4,"expected":"1972","actual":"2024"}',
            '{"check":"c<=","a":3,"b":5,"k":5,"expected":"78","actual":"79"}',
            '{"check":"s<=","a":3,"b":5,"k":5,"expected":"3037","actual":"3089"}',
        ]

    @pytest.mark.parametrize("fault", ["past the end", "before the start"])
    def test_an_extra_element_fails_the_support(self, fault, capsys, monkeypatch):
        # E_2's run with one more 1: one byte past its end, or one byte
        # before its start.  E_2 and E_3 are walked, E_4 is stepped.
        real = cli._by_count_bytes

        def extra(params, kmax):
            runs = real(params, kmax)
            start, run = runs[2]
            runs[2] = (start, run + b"\1") if fault == "past the end" else (start - 1, b"\1" + run)
            return runs

        real_sums = oracle.GapSet.power_sums
        walked = []

        def counted(self, m):
            walked.append(self.k)
            return real_sums(self, m)

        monkeypatch.setattr(cli, "_by_count_bytes", extra)
        monkeypatch.setattr(oracle.GapSet, "power_sums", counted)
        code = main(["verify", "--params", "3,5", "--kmax", "4", "--mmax", "2"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        assert walked == [0, 1, 2, 3]

        counts = brute_counts((3, 5), 80)  # R_4(3,5) ends at 67
        exact = [[j for j, c in enumerate(counts) if c == k] for k in range(5)]
        added = exact[2][-1] + 1 if fault == "past the end" else exact[2][0] - 1
        seen = sorted(exact[2] + [added])  # the oracle's E_2

        def entry(check, k, expected, actual, m=None):
            d = {"check": check, "a": 3, "b": 5, "k": k}
            if m is not None:
                d["m"] = m
            d.update(expected=str(expected), actual=str(actual))
            return json.dumps(d, separators=(",", ":"))

        lines = []
        if seen[-1] != exact[2][-1]:
            lines.append(entry("g", 2, seen[-1], exact[2][-1]))
        lines.append(entry("c", 2, len(seen), len(exact[2])))
        lines.append(entry("s", 2, sum(seen), sum(exact[2])))
        lines.append(entry("p_k support", 2, tuple(seen), tuple(exact[2])))
        for k in (2, 3, 4):
            at_most = [j for j, c in enumerate(counts) if c <= k]
            if k == 2 and seen[-1] > at_most[-1]:
                lines.append(entry("g<=", 2, seen[-1], at_most[-1]))
            lines.append(entry("c<=", k, len(at_most) + 1, len(at_most)))
            lines.append(entry("s<=", k, sum(at_most) + added, sum(at_most)))
            if k == 2:
                for m in range(3):
                    sums = [sum(j**m for j in s) for s in (seen, exact[2])]
                    lines.append(entry("s^m", 2, *sums, m=m))
        assert captured.out.splitlines() == lines

    def test_stepped_sets_build_no_gapset(self, monkeypatch):
        # E_2..E_5 are stepped from their runs alone: only E_0 and E_1 are
        # expanded into GapSets
        real = oracle.GapSet._of
        built = []

        def counted(params, k, elements, complete):
            built.append(k)
            return real(params, k, elements, complete)

        monkeypatch.setattr(oracle.GapSet, "_of", staticmethod(counted))
        checks, failures = cli.verify_pair(29, 30, 5, 4)
        assert failures == []
        assert built == [0, 1]

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (7, 10), (29, 30)])
    def test_one_params_per_pair(self, a, b, monkeypatch):
        real = oracle.Params.__post_init__
        built = []

        def counted(self):
            real(self)
            built.append(self.denominations)

        monkeypatch.setattr(oracle.Params, "__post_init__", counted)
        checks, failures = cli.verify_pair(a, b, 5, 4)
        assert failures == []
        assert built == [(a, b)]

    def test_needs_params_or_sweep(self):
        code, _, err = run_cli("verify")
        assert code == 2


class TestOracleStep:
    @settings(max_examples=300, deadline=None)
    @given(
        elements=st.sets(st.integers(min_value=0, max_value=10**6), max_size=30),
        shift=st.integers(min_value=0, max_value=10**6),
        m=st.integers(min_value=0, max_value=12),
    )
    @example(elements={0, 3, 5}, shift=0, m=12)
    @example(elements=set(), shift=7, m=3)
    def test_step_is_the_translate_s_sums(self, elements, shift, m):
        params = oracle.Params([3, 5])
        base = oracle.GapSet(params, 1, sorted(elements), True)
        moved = oracle.GapSet(params, 1, sorted(e + shift for e in elements), True)
        rows = cli._shift_rows(shift, m)
        assert cli._shift_sums(rows, base.power_sums(m)) == moved.power_sums(m)

    @pytest.mark.parametrize(
        "a,b,kmax,mmax,walked",
        [
            (29, 30, 5, 4, [0, 1]),  # E_2..E_5 stepped
            (3, 5, 5, 200, [0, 1, 2, 3, 4, 5]),  # 200 orders >= ab = 15: walked
            (2, 3, 5, 6, [0, 1, 2, 3, 4, 5]),  # 6 orders, ab = 6: walked
            (2, 3, 5, 5, [0, 1]),  # 5 orders < ab = 6: stepped
            (1, 2, 5, 0, [0, 1]),  # mmax 0 still reads order 1 < ab = 2
            (1, 1, 5, 0, [0, 1, 2, 3, 4, 5]),  # ab = 1: walked
        ],
    )
    def test_walks_per_pair(self, a, b, kmax, mmax, walked, monkeypatch):
        real = oracle.GapSet.power_sums
        calls = []

        def counted(self, m):
            calls.append(self.k)
            return real(self, m)

        monkeypatch.setattr(oracle.GapSet, "power_sums", counted)
        checks, failures = cli.verify_pair(a, b, kmax, mmax)
        assert failures == []
        assert calls == walked

    def test_step_uses_no_closed_form_helper(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the oracle side called a closed-form helper")

        monkeypatch.setattr(cli, "_power_sums_by_k", lambda p, kmax, m: [[None] * (m + 1)] * kmax)
        for name in (
            "_binomial_convolution", "_powers", "_translate", "_translate_rows",
            "power_sums_k", "_power_sums_by_k", "_sumset_power_sums",
        ):
            monkeypatch.setattr(closedform, name, refused)
        checks, failures = cli.verify_pair(29, 30, 5, 4)
        assert {f["check"] for f in failures} == {"s^m"}
        assert len(failures) == 5 * 5


class TestFlagCombinations:
    GENFUN_MODES = [("--numerator",), ("--denham",), ("--cyclotomic", "6"), ("--indicator",)]

    @pytest.mark.parametrize(
        "modes",
        [*combinations(GENFUN_MODES, 2), tuple(GENFUN_MODES)],
        ids=lambda modes: "+".join(m[0].lstrip("-") for m in modes),
    )
    def test_genfun_takes_one_mode(self, modes, capsys):
        argv = ["genfun", "--params", "3,5,7", "--bound", "10", *chain(*modes)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    @pytest.mark.parametrize(
        "args,flag",
        [
            (("--params", "3,5", "--numerator", "--k", "7", "--bound", "99"), "--bound"),
            (("--params", "3,5", "--k", "1", "--bound", "5"), "--bound"),
            (("--params", "4,6", "--cyclotomic", "6"), "--params"),
            (("--params", "3,5", "--numerator", "--k", "0"), "--k"),
            (("--params", "2,3,5", "--denham", "--k", "1"), "--k"),
            (("--cyclotomic", "6", "--k", "1"), "--k"),
        ],
        ids=["numerator-k-bound", "p_k-bound", "cyclotomic-params", "numerator-k",
             "denham-k", "cyclotomic-k"],
    )
    def test_genfun_refuses_flags_its_mode_ignores(self, args, flag, capsys):
        code = main(["genfun", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ValidationError" in captured.err and f"{flag} " in captured.err

    @pytest.mark.parametrize(
        "args",
        [
            ("--params", "5,7", "--stat", "g", "--m", "3"),
            ("--params", "5,7", "--stat", "sle", "--k", "2", "--m", "1"),
            ("--params", "5,7", "--stat", "c", "--m", "0", "--oracle"),
            ("--params", "3,5,7", "--stat", "gle", "--m", "2"),
        ],
        ids=["closed-form", "closed-form-at-most", "oracle", "oracle-three-coins"],
    )
    def test_compute_refuses_m_without_sm(self, args, capsys, monkeypatch):
        def no_work(*_args, **_kwargs):
            raise AssertionError("work done before the flag check")

        for name in ("Params", "closed_report", "enumerate_exact_k",
                     "enumerate_at_most_k"):
            monkeypatch.setattr(cli, name, no_work)
        code = main(["compute", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ValidationError" in captured.err and "--m " in captured.err

    @pytest.mark.parametrize(
        "args", [("--params", "3,5"), ("--params", "2,3", "--indicator", "--bound", "8")]
    )
    def test_genfun_k_defaults_to_zero(self, args, capsys):
        code, out = run_main(capsys, "genfun", *args)
        assert code == 0
        assert out == run_main(capsys, "genfun", *args, "--k", "0")[1]

    @pytest.mark.parametrize(
        "args",
        [("--params", "3,5", "--sweep", "5"), ()],
        ids=["both", "neither"],
    )
    def test_verify_takes_params_or_sweep(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *args])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--params" in captured.err and "--sweep" in captured.err

    def test_verify_has_no_csv(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--params", "3,5", "--format", "csv"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "invalid choice: 'csv'" in captured.err

    def test_denham_has_no_csv(self, capsys):
        code = main(["genfun", "--params", "3,5,7", "--denham", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ValidationError" in captured.err and "csv" in captured.err

    @pytest.mark.parametrize(
        "command", [(), ("compute",), ("enumerate",), ("classify",), ("genfun",), ("verify",)]
    )
    def test_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: frobgen")


class TestParserReuse:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_carry_over(self, capsys):
        code, out = run_main(capsys, "enumerate", "--params", "3,5", "--k", "1", "--at-most")
        assert code == 0
        assert out.startswith("# params=3,5 at-most k=1 ")
        code, out = run_main(capsys, "enumerate", "--params", "3,5", "--k", "1")
        assert code == 0
        assert out == (
            "# params=3,5 exactly k=1 count=15 complete=true\n"
            "0 3 5 6 8 9 10 11 12 13 14 16 17 19 22\n"
        )

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--params", "3,5"])
        assert exc.value.code == 2
        assert "--bound" in capsys.readouterr().err
        code, out = run_main(capsys, "classify", "--params", "3,5", "--bound", "0")
        assert code == 0
        assert out == "0  r=1\n"


# Argv corpus of the one-pass parse: (argv split on spaces, exit code, first
# 16 hex digits of the sha256 of stdout), as the nested parse of the parent
# commit gave them.  None where stdout is argparse's help, whose wrapping
# varies with the Python version and the terminal width: that output, and all
# of stderr, is compared with the nested parse in the same interpreter.
ARGV_CORPUS = [
    # valid argv of every subcommand, in every format
    ("compute --params 3,5 --k 1 --stat g", 0, "859ab3d445b70584"),
    ("compute --params 3,5 --k 2 --stat sm --m 3 --format json", 0, "2deaec435e308632"),
    ("compute --params 3,5,7 --k 1 --stat sle --format csv", 0, "224e6f9e522e8e5f"),
    ("compute --params 3,5 --stat cle --oracle --format json", 0, "378bce9d69f34553"),
    ("enumerate --params 3,5 --k 1", 0, "3c933796eb048bc5"),
    ("enumerate --params 3,5,7 --k 2 --at-most --format json", 0, "a46ca02aa9f80db6"),
    ("enumerate --params 5,7 --k 1 --bound 40 --format csv", 0, "1f70d3a82fb981e6"),
    ("classify --params 3,5 --bound 30", 0, "9cbd332933911a65"),
    ("classify --params 3,5,7 --bound 30 --format json", 0, "4f3694d3b173f13a"),
    ("classify --params 2,9 --bound 30 --format csv", 0, "4e68e20c8b4f49f7"),
    ("genfun --params 3,5 --k 2", 0, "a39c321980e651ab"),
    ("genfun --params 3,5 --format json", 0, "4e4766101438ce78"),
    ("genfun --params 4,7 --k 1 --format csv", 0, "5c6856a21f2d39dc"),
    ("genfun --params 1,2 --k 0", 0, "9a271f2a916b0b6e"),
    ("genfun --params 1,2 --k 0 --format json", 0, "636174ce0c979c93"),
    ("genfun --params 1,2 --k 0 --format csv", 0, "9b4636e822f8b816"),
    ("genfun --params 1,1 --k 1", 0, "4355a46b19d348dc"),
    ("genfun --params 3,5,7 --numerator", 0, "fd3337eee213fcf4"),
    ("genfun --params 3,5,7 --numerator --format json", 0, "07f315dc942c36be"),
    ("genfun --params 3,5,7 --numerator --format csv", 0, "8ab5d08239543a5b"),
    ("genfun --params 3,5,7 --denham", 0, "06e9d52c1720fca4"),
    ("genfun --params 3,5,7 --denham --format json", 0, "fbfdd71b4ef805b5"),
    ("genfun --cyclotomic 12", 0, "a7f681bc3d0fac0d"),
    ("genfun --cyclotomic 12 --format json", 0, "ff6d2cd567116fcc"),
    ("genfun --cyclotomic 1 --format csv", 0, "d2fa954c6a59fe3b"),
    ("genfun --params 3,5 --indicator --bound 20", 0, "72690b5810f95b03"),
    ("genfun --params 3,5 --indicator --k 1 --bound 40 --format json", 0, "b5543ea9f1a8761b"),
    ("genfun --params 3,5 --indicator --k 9 --bound 0 --format json", 0, "ff8f82f478fa825e"),
    ("genfun --params 3,5 --indicator --k 2 --bound 40 --format csv", 0, "bf105b4d9ebb9dde"),
    ("verify --params 3,5 --kmax 2 --mmax 1", 0, "153b9b8ba6a3764b"),
    ("verify --sweep 4 --kmax 1 --format json", 0, "4e71fa43e3969a8a"),
    # validation errors raised after the parse
    ("genfun --params 3,5 --denham --format csv", 2, "e3b0c44298fc1c14"),
    ("genfun --params 3,5,7 --k 1", 2, "e3b0c44298fc1c14"),
    ("genfun --params 3,5 --k -1", 2, "e3b0c44298fc1c14"),
    ("genfun --params 3,5 --bound 9", 2, "e3b0c44298fc1c14"),
    ("compute --params 3,5 --stat g --m 2", 2, "e3b0c44298fc1c14"),
    ("verify --params 3,5 --workers 0", 2, "e3b0c44298fc1c14"),
    # no args, and help before and after the command
    ("", 2, "e3b0c44298fc1c14"),
    ("-h", 0, None),
    ("--help", 0, None),
    ("-h genfun", 0, None),
    ("--help verify", 0, None),
    ("genfun -h", 0, None),
    ("compute --help", 0, None),
    ("classify --params 3,5 -h", 0, None),
    ("--he genfun", 0, None),
    # an unknown command
    ("nosuch", 2, "e3b0c44298fc1c14"),
    ("nosuch --params 3,5", 2, "e3b0c44298fc1c14"),
    ("Genfun --params 3,5", 2, "e3b0c44298fc1c14"),
    ("gen --params 3,5", 2, "e3b0c44298fc1c14"),
    ("--params 3,5 genfun", 2, "e3b0c44298fc1c14"),
    # unrecognized arguments after the command
    ("genfun --params 3,5 --bogus", 2, "e3b0c44298fc1c14"),
    ("genfun --params 3,5 extra", 2, "e3b0c44298fc1c14"),
    ("compute --params 3,5 --stat g --bogus x y", 2, "e3b0c44298fc1c14"),
    ("classify --params 3,5 --bound 9 -x", 2, "e3b0c44298fc1c14"),
    ("enumerate --params 3,5 --k 1 --k2 3", 2, "e3b0c44298fc1c14"),
    ("genfun --bogus --params 3,5 --unknown=1", 2, "e3b0c44298fc1c14"),
    # abbreviated options
    ("genfun --par 3,5 --k 1", 0, "ea3d5a21053526c4"),
    ("enumerate --par 3,5 --at --bou 30", 0, "dc620bcf9c568a95"),
    ("verify --par 3,5 --km 1 --mm 1 --form json", 0, "66e4d741de9c2d06"),
    ("genfun --p 3,5 --num", 0, "6fc978735a4bc949"),
    # --opt=value
    ("genfun --params=3,5 --k=2 --format=csv", 0, "7b528f56a99e421c"),
    ("classify --params=3,5 --bound=12 --format=json", 0, "088191456f0cac9d"),
    ("genfun --params=3,5 --numerator=1", 2, "e3b0c44298fc1c14"),
    ("compute --params=3,5 --stat=q", 2, "e3b0c44298fc1c14"),
    # -- before and after the command
    ("-- genfun --params 3,5", 2, "e3b0c44298fc1c14"),
    ("genfun -- --params 3,5", 2, "e3b0c44298fc1c14"),
    ("genfun --params 3,5 --", 2, "e3b0c44298fc1c14"),
    ("genfun --params 3,5 -- --k 1", 2, "e3b0c44298fc1c14"),
    ("--", 2, "e3b0c44298fc1c14"),
    # a bad choice
    ("genfun --params 3,5 --format xml", 2, "e3b0c44298fc1c14"),
    ("compute --params 3,5 --stat q", 2, "e3b0c44298fc1c14"),
    ("verify --params 3,5 --format csv", 2, "e3b0c44298fc1c14"),
    # a mutually exclusive conflict
    ("genfun --params 3,5 --numerator --denham", 2, "e3b0c44298fc1c14"),
    ("genfun --params 3,5 --indicator --cyclotomic 5", 2, "e3b0c44298fc1c14"),
    ("verify --params 3,5 --sweep 5", 2, "e3b0c44298fc1c14"),
    # a missing required option or value
    ("classify --params 3,5", 2, "e3b0c44298fc1c14"),
    ("compute --params 3,5", 2, "e3b0c44298fc1c14"),
    ("verify", 2, "e3b0c44298fc1c14"),
    ("genfun --params", 2, "e3b0c44298fc1c14"),
    ("genfun --params -3,5", 2, "e3b0c44298fc1c14"),
    # a bad value
    ("genfun --params 3,5 --k x", 2, "e3b0c44298fc1c14"),
    ("genfun --params a,b", 2, "e3b0c44298fc1c14"),
    ("classify --params 3,5 --bound 1.5", 2, "e3b0c44298fc1c14"),
]


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) in process: exit code (SystemExit's too), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def nested_parse(argv):
    return cli.build_parser().parse_args(argv)


class TestOnePassParse:
    @pytest.mark.parametrize(
        "argv,code,digest", ARGV_CORPUS, ids=[a or "no-args" for a, _, _ in ARGV_CORPUS]
    )
    def test_same_as_nested_parse(self, monkeypatch, argv, code, digest):
        if code == 0 and digest is not None:
            assert vars(cli._parse_args(argv.split())) == vars(nested_parse(argv.split()))
        got = run_captured(argv.split())
        monkeypatch.setattr(cli, "_parse_args", nested_parse)
        assert got == run_captured(argv.split())
        assert got[0] == code
        if digest is not None:
            assert hashlib.sha256(got[1].encode()).hexdigest()[:16] == digest

    def test_unrecognized_arguments_line(self):
        code, out, err = run_captured(["genfun", "--params", "3,5", "--bogus", "x"])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "frobgen: error: unrecognized arguments: --bogus x"

    def test_one_parse_per_command(self, monkeypatch):
        # the top-level parser's pass is skipped: one parse_known_args call,
        # the subcommand's; the nested parse makes two
        calls = []
        real = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        commands = [a.split() for a, code, digest in ARGV_CORPUS if code == 0 and digest]
        assert {argv[0] for argv in commands} == set(cli._parsers()[1])  # every subcommand
        for argv in commands:
            calls.clear()
            assert run_captured(argv)[0] == 0
            assert calls == [f"frobgen {argv[0]}"]
        monkeypatch.setattr(cli, "_parse_args", nested_parse)
        calls.clear()
        run_captured(commands[0])
        assert calls == ["frobgen", f"frobgen {commands[0][0]}"]


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            pytest.param(
                ("compute", "--params", "3,5", "--k", "1", "--stat", "sm", "--m", "2",
                 "--format", "csv"),
                "stat,params,k,m,value,provenance\ns^m,3 5,1,2,2335,closed-form\n",
                id="compute-csv-closed",
            ),
            pytest.param(
                ("compute", "--params", "1,7", "--stat", "g", "--oracle", "--format", "csv"),
                "stat,params,k,m,value,provenance\ng,1 7,0,,-1,oracle\n",
                id="compute-csv-oracle",
            ),
            pytest.param(
                ("compute", "--params", "5,7", "--k", "1", "--stat", "cle"),
                "c<=_1(5,7) = 47  (closed-form)\n",
                id="compute-plain-closed",
            ),
            pytest.param(
                ("compute", "--params", "3,5,7", "--k", "2", "--stat", "sm", "--m", "3"),
                "s^3_2(3,5,7) = 11765  (oracle)\n",
                id="compute-plain-oracle",
            ),
            pytest.param(
                ("classify", "--params", "3,5", "--bound", "11"),
                " 0  r=1\n 1  r=0\n 2  r=0\n 3  r=1\n 4  r=0\n 5  r=1\n"
                " 6  r=1\n 7  r=0\n 8  r=1\n 9  r=1\n10  r=1\n11  r=1\n",
                id="classify-plain",
            ),
            pytest.param(
                ("classify", "--params", "2,3", "--bound", "3", "--format", "json"),
                '{"params":[2,3],"bound":3,"rows":[{"j":0,"count":"1","k":"1"},'
                '{"j":1,"count":"0","k":"0"},{"j":2,"count":"1","k":"1"},'
                '{"j":3,"count":"1","k":"1"}]}\n',
                id="classify-json",
            ),
            pytest.param(
                ("classify", "--params", "3,5", "--bound", "11", "--format", "csv"),
                "j,count,k\n0,1,1\n1,0,0\n2,0,0\n3,1,1\n4,0,0\n5,1,1\n6,1,1\n7,0,0\n"
                "8,1,1\n9,1,1\n10,1,1\n11,1,1\n",
                id="classify-csv",
            ),
            pytest.param(
                ("classify", "--params", "1,2", "--bound", "25", "--format", "json"),
                '{"params":[1,2],"bound":25,"rows":[{"j":0,"count":"1","k":"1"},'
                '{"j":1,"count":"1","k":"1"},{"j":2,"count":"2","k":"2"},'
                '{"j":3,"count":"2","k":"2"},{"j":4,"count":"3","k":"3"},'
                '{"j":5,"count":"3","k":"3"},{"j":6,"count":"4","k":"4"},'
                '{"j":7,"count":"4","k":"4"},{"j":8,"count":"5","k":"5"},'
                '{"j":9,"count":"5","k":"5"},{"j":10,"count":"6","k":"6"},'
                '{"j":11,"count":"6","k":"6"},{"j":12,"count":"7","k":"7"},'
                '{"j":13,"count":"7","k":"7"},{"j":14,"count":"8","k":"8"},'
                '{"j":15,"count":"8","k":"8"},{"j":16,"count":"9","k":"9"},'
                '{"j":17,"count":"9","k":"9"},{"j":18,"count":"10","k":"10"},'
                '{"j":19,"count":"10","k":"10"},{"j":20,"count":"11","k":"11"},'
                '{"j":21,"count":"11","k":"11"},{"j":22,"count":"12","k":"12"},'
                '{"j":23,"count":"12","k":"12"},{"j":24,"count":"13","k":"13"},'
                '{"j":25,"count":"13","k":"13"}]}\n',
                id="classify-json-two-digit-counts",
            ),
            pytest.param(
                ("classify", "--params", "1,2", "--bound", "25", "--format", "csv"),
                "j,count,k\n0,1,1\n1,1,1\n2,2,2\n3,2,2\n4,3,3\n5,3,3\n6,4,4\n7,4,4\n"
                "8,5,5\n9,5,5\n10,6,6\n11,6,6\n12,7,7\n13,7,7\n14,8,8\n15,8,8\n"
                "16,9,9\n17,9,9\n18,10,10\n19,10,10\n20,11,11\n21,11,11\n"
                "22,12,12\n23,12,12\n24,13,13\n25,13,13\n",
                id="classify-csv-two-digit-counts",
            ),
            pytest.param(
                ("classify", "--params", "1,2", "--bound", "25"),
                " 0  r=1\n 1  r=1\n 2  r=2\n 3  r=2\n 4  r=3\n 5  r=3\n 6  r=4\n"
                " 7  r=4\n 8  r=5\n 9  r=5\n10  r=6\n11  r=6\n12  r=7\n13  r=7\n"
                "14  r=8\n15  r=8\n16  r=9\n17  r=9\n18  r=10\n19  r=10\n"
                "20  r=11\n21  r=11\n22  r=12\n23  r=12\n24  r=13\n25  r=13\n",
                id="classify-plain-two-digit-counts",
            ),
            pytest.param(
                ("classify", "--params", "3,5", "--bound", "0", "--format", "json"),
                '{"params":[3,5],"bound":0,"rows":[{"j":0,"count":"1","k":"1"}]}\n',
                id="classify-json-bound-0",
            ),
            pytest.param(
                ("classify", "--params", "3,5", "--bound", "0", "--format", "csv"),
                "j,count,k\n0,1,1\n",
                id="classify-csv-bound-0",
            ),
            pytest.param(
                ("classify", "--params", "3,5", "--bound", "0"),
                "0  r=1\n",
                id="classify-plain-bound-0",
            ),
            pytest.param(
                ("genfun", "--params", "3,5", "--k", "1", "--format", "csv"),
                "exp,coeff\n0,1\n3,1\n5,1\n6,1\n8,1\n9,1\n10,1\n11,1\n12,1\n"
                "13,1\n14,1\n16,1\n17,1\n19,1\n22,1\n",
                id="polynomial-csv",
            ),
            pytest.param(
                ("genfun", "--params", "2,3", "--indicator", "--k", "1", "--bound", "8",
                 "--format", "csv"),
                "j,bit\n0,0\n1,0\n2,0\n3,0\n4,0\n5,0\n6,1\n7,0\n8,1\n",
                id="indicator-csv",
            ),
            pytest.param(
                ("genfun", "--params", "2,3", "--indicator", "--k", "1", "--bound", "8",
                 "--format", "json"),
                '{"params":[2,3],"k":1,"bound":8,"bits":[0,0,0,0,0,0,1,0,1]}\n',
                id="indicator-json",
            ),
            pytest.param(
                ("genfun", "--params", "2,3", "--indicator", "--k", "1", "--bound", "8"),
                "000000101\n",
                id="indicator-plain",
            ),
            pytest.param(
                ("genfun", "--params", "3,5", "--k", "0"),
                "z + z^2 + z^4 + z^7\n",
                id="gap-polynomial-plain",
            ),
            pytest.param(
                ("genfun", "--params", "3,5", "--k", "0", "--format", "json"),
                '{"terms":[[1,"1"],[2,"1"],[4,"1"],[7,"1"]]}\n',
                id="gap-polynomial-json",
            ),
            pytest.param(
                ("genfun", "--params", "2,3,5", "--denham", "--format", "json"),
                '{"params":[2,3,5],"term_count":4}\n',
                id="denham-json",
            ),
            pytest.param(
                ("verify", "--params", "3,5", "--kmax", "5", "--mmax", "4"),
                "verified 1 pair(s), 74 checks, all passed\n",
                id="verify-plain",
            ),
            pytest.param(
                ("verify", "--sweep", "5", "--kmax", "2", "--mmax", "1", "--format", "json"),
                '{"pairs":9,"checks":261,"failures":0}\n',
                id="verify-json",
            ),
            pytest.param(
                ("verify", "--sweep", "30", "--kmax", "5", "--mmax", "4", "--format", "json"),
                '{"pairs":277,"checks":20498,"failures":0}\n',
                id="verify-json-sweep-30",
            ),
            pytest.param(
                ("enumerate", "--params", "3,5", "--k", "1", "--at-most"),
                "# params=3,5 at-most k=1 count=19 complete=true\n"
                "0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 16 17 19 22\n",
                id="enumerate-plain",
            ),
            pytest.param(
                ("enumerate", "--params", "5,7", "--bound", "10"),
                "# params=5,7 exactly k=0 count=7 complete=false\n1 2 3 4 6 8 9\n",
                id="enumerate-plain-bounded",
            ),
        ],
    )
    def test_stdout_bytes(self, capsys, argv, expected):
        code, out = run_main(capsys, *argv)
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize(
        "argv,digest",
        [
            pytest.param(
                ("genfun", "--params", "61,97", "--k", "3", "--format", "csv"),
                "a15e8e935576d8726c7a42c09fb12eedaf89653843ce75ee65ef86cac0ea000b",
                id="p_k-csv-61-97-k3",
            ),
            pytest.param(
                ("genfun", "--params", "31,47,60", "--numerator", "--format", "json"),
                "e9ee38d69645f187e56230ce144bd1a5894acee1fe751f6698b6521e49c72f92",
                id="numerator-json-31-47-60",
            ),
            pytest.param(
                ("compute", "--params", "37,61", "--k", "9", "--stat", "sm", "--m", "200"),
                "f13c3c073b41db5fc87958ed469f794d5a82012a76d6b75ba4adb30268d1d162",
                id="power-sum-37-61-k9-m200",
            ),
            pytest.param(
                ("genfun", "--params", "37,39", "--indicator", "--k", "2", "--bound", "30000",
                 "--format", "csv"),
                "080e60b3d7fdb94299db34dca9aa4b002e6e8a45aefff66870d2c339860f6ada",
                id="indicator-csv-37-39-k2",
            ),
            pytest.param(
                ("genfun", "--params", "3,5", "--indicator", "--k", "1000", "--bound", "1000",
                 "--format", "json"),
                "87ac999006a6a40f85cdbc1599d3b2dfadd7beb0e374b422d64b1c589bf4b65c",
                id="indicator-json-shift-past-bound",
            ),
            pytest.param(
                ("genfun", "--params", "61,97", "--k", "0", "--format", "json"),
                "ed726e8b416644ef8d628e4ba71983a433d8cebc252bffd668cf9d2e7dc800b9",
                id="gap-polynomial-json-61-97",
            ),
            pytest.param(
                ("genfun", "--params", "1000003,1000033", "--indicator", "--k", "0", "--bound",
                 "20"),
                "b5b644fc550fec16884c31f68449fc7b5a57044564e2c6f27e6f2a4510b705c3",
                id="indicator-plain-huge-pair",
            ),
            # j runs through the 10/100/1000 prefix widths of the decade rows
            pytest.param(
                ("classify", "--params", "3,5,7", "--bound", "1234"),
                "e69b6230dec4244ae1f53ffcd12bf5045d75c4234d0d524fc0ce013a4e09e65c",
                id="classify-plain-3-5-7-1234",
            ),
            pytest.param(
                ("classify", "--params", "3,5,7", "--bound", "1234", "--format", "csv"),
                "8247fca78d14345faae23eb3b63e4640d91c30146fdd7f61f02f5992bf01f444",
                id="classify-csv-3-5-7-1234",
            ),
            pytest.param(
                ("classify", "--params", "3,5,7", "--bound", "1234", "--format", "json"),
                "4387ee25393233b5ba7678906e84446fa1e0bb4f622c45a19614a9c97b115e30",
                id="classify-json-3-5-7-1234",
            ),
            pytest.param(
                ("genfun", "--params", "3,5", "--indicator", "--k", "1", "--bound", "1234",
                 "--format", "csv"),
                "ad82c06266e90c25ff02e4514aef678faf3dcf3ea993c844eb7d56cea3e907ff",
                id="indicator-csv-3-5-k1-1234",
            ),
            # 12,346 decades: three runs of rows, the last one short
            pytest.param(
                ("classify", "--params", "3,5,7", "--bound", "123457", "--format", "json"),
                "abe944a69d96a11ed728db7f5daf387febd5b490ebc16ef683ed8b6ece23b1ac",
                id="classify-json-3-5-7-three-runs",
            ),
            # 0/1 polynomials and gap sets written through one % template
            pytest.param(
                ("genfun", "--params", "76,79", "--k", "1"),
                "b53aac9c1601d352697c2f11591d96c1dcabdb13f61def028f7b130856756b77",
                id="p_k-plain-76-79-k1",
            ),
            pytest.param(
                ("genfun", "--params", "76,79", "--k", "3", "--format", "json"),
                "bc291ed29c716f4585586ebb5f12b4832e3efa6e0005a7b3021c493e8964b491",
                id="p_k-json-76-79-k3",
            ),
            pytest.param(
                ("genfun", "--params", "61,97", "--k", "0"),
                "338810c19502fb848a09cf8d224c108db46875a43cdd1cb797530f2a00a49f56",
                id="gap-polynomial-plain-61-97",
            ),
            pytest.param(
                ("enumerate", "--params", "31,37", "--k", "5", "--at-most", "--bound", "60000"),
                "a92983f535f4aae195dd61d31c66b81336110439fd8e65ee67ec0ae1093cb3be",
                id="enumerate-plain-31-37-k5",
            ),
            pytest.param(
                ("enumerate", "--params", "31,37", "--k", "5", "--at-most", "--bound", "60000",
                 "--format", "csv"),
                "a7007ff7e9be55d01b42f9d289c039fbdb995853250610b97d81e234b6e1e90b",
                id="enumerate-csv-31-37-k5",
            ),
            pytest.param(
                ("enumerate", "--params", "31,37", "--k", "5", "--at-most", "--bound", "60000",
                 "--format", "json"),
                "0dc0aaeb370c7804aa392732c687847ed1f75d57e45eb22b5be40071b0a5b4c3",
                id="enumerate-json-31-37-k5",
            ),
            # p_0 of (1,2) is the zero polynomial: the header line alone
            pytest.param(
                ("genfun", "--params", "1,2", "--k", "0", "--format", "csv"),
                "9b4636e822f8b816dc690ccd62dd0275f3ac610832889c89a0812fe818cae187",
                id="zero-polynomial-csv",
            ),
            pytest.param(
                ("genfun", "--cyclotomic", "2310", "--format", "json"),
                "aa3d599f6f7a3766eedc66c06733244ce2d4113f86d0c717e7443ca46859f80d",
                id="cyclotomic-json-2310",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out = run_main(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_power_sum_m1000_json(self, capsys):
        # s^1000_1(3,5) is 1,423 bytes of JSON; its hash pins every digit
        code, out = run_main(
            capsys, "compute", "--params", "3,5", "--k", "1", "--stat", "sm", "--m", "1000",
            "--format", "json",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5881df8db0c97fd22940ef0147a89e2965da753ecf70c6c562987267a75fdad3"
        )
