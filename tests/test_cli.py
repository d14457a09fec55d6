import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from math import gcd

import pytest

from frobgen import cli
from frobgen.cli import main

from helpers import brute_counts


def run_cli(*args: str) -> tuple[int, str, str]:
    """Run ``python -m frobgen *args`` in a fresh child process.

    The child inherits the parent's environment; that is how
    ``PYTHONPATH=src`` reaches it on a checkout with no install step. A test
    that needs an environment variable sets it with ``monkeypatch.setenv``
    before calling this; never pass a fresh ``env=`` dict, which would drop
    everything else.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "frobgen", *args],
        capture_output=True,
        text=True,
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
        code, _, err = run_cli("classify", "--params", "5,7", "--bound", "100")
        assert code == 4
        assert "BoundTooLarge" in err

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
        def no_ring(*args, **kwargs):
            raise AssertionError("a ring was built for a query --m refuses")

        monkeypatch.setattr("frobgen.oracle.deque", no_ring)
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

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        code, out = run_main(
            capsys, "verify", "--sweep", "4", "--kmax", "0", "--mmax", "1",
            "--workers", "64",
        )
        assert code == 0
        assert "all passed" in out
        assert sizes == [2]

    def test_reports_every_failure(self, capsys, monkeypatch):
        real = cli.count_k
        monkeypatch.setattr(
            cli, "count_k", lambda p, k: replace(real(p, k), value=real(p, k).value + 1)
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

    def test_reports_a_wrong_power_sum(self, capsys, monkeypatch):
        real = cli.power_sum_k

        def off_at_cube(p, k, m):
            report = real(p, k, m)
            return replace(report, value=report.value + 1) if m == 3 else report

        monkeypatch.setattr(cli, "power_sum_k", off_at_cube)
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

    def test_needs_params_or_sweep(self):
        code, _, err = run_cli("verify")
        assert code == 2


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
