"""CLI integration: subcommands, file formats, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dtmseries import DtmError, OrderMismatchError, cli, load_series
from dtmseries.bratu import _comparison
from dtmseries.cli import build_parser, main


def run_cli(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


SQ_INPUT = '{"order":3,"coeffs":[1,1,0,0]}'


class TestOps:
    def test_pow_from_stdin(self, capsys, monkeypatch):
        code, out, err = run_cli(
            ["ops", "pow", "--m", "2", "--count"], capsys, SQ_INPUT, monkeypatch
        )
        assert code == 0
        assert json.loads(out) == {"order": 3, "coeffs": [1.0, 2.0, 1.0, 0.0]}
        # One Cauchy square to order 3: 1 + 1 + 2 + 2 multiplies.
        assert err.strip() == "multiplies: 6"

    def test_pow_files(self, capsys, tmp_path):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        src.write_text(SQ_INPUT)
        code, out, err = run_cli(
            ["ops", "pow", "--m", "2", "--in", str(src), "--out", str(dst)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(dst.read_text()) == {"order": 3, "coeffs": [1.0, 2.0, 1.0, 0.0]}

    def test_pow_naive_agrees(self, capsys, monkeypatch):
        code, out, _ = run_cli(["ops", "pow", "--m", "2"], capsys, SQ_INPUT, monkeypatch)
        code2, out2, _ = run_cli(
            ["ops", "pow", "--m", "2", "--naive"], capsys, SQ_INPUT, monkeypatch
        )
        assert code == code2 == 0
        assert out == out2

    def test_exp(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["ops", "exp"], capsys, '{"order":2,"coeffs":[0,0,0]}', monkeypatch
        )
        assert code == 0
        assert json.loads(out) == {"order": 2, "coeffs": [1.0, 0.0, 0.0]}

    def test_exp_naive_count(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["ops", "exp", "--naive", "--count"],
            capsys,
            '{"order":4,"coeffs":[0,1,0,0,0]}',
            monkeypatch,
        )
        assert code == 0
        assert err.startswith("multiplies: ")

    def test_exp_naive_beyond_order_170_exits_0(self, capsys, monkeypatch):
        series = json.dumps({"order": 200, "coeffs": [0.5, 1.0] + [0.0] * 199})
        code, out, _ = run_cli(["ops", "exp", "--naive"], capsys, series, monkeypatch)
        assert code == 0
        assert len(json.loads(out)["coeffs"]) == 201

    def test_csv_input(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["ops", "pow", "--m", "2"], capsys, "0,1.0\n1,2.5\n", monkeypatch
        )
        assert code == 0
        assert json.loads(out) == {"order": 1, "coeffs": [1.0, 5.0]}

    def test_output_round_trips_through_reader(self, capsys, monkeypatch):
        _, out, _ = run_cli(["ops", "pow", "--m", "3"], capsys, SQ_INPUT, monkeypatch)
        series = load_series(out)
        assert series.coeffs == (1.0, 3.0, 3.0, 1.0)

    def test_zero_to_the_zero_is_domain_error(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["ops", "pow", "--m", "0"], capsys, '{"order":3,"coeffs":[0,0,0,0]}', monkeypatch
        )
        assert code == 3
        assert "0^0" in err

    def test_malformed_json(self, capsys, monkeypatch):
        code, _, err = run_cli(["ops", "exp"], capsys, '{"order":2,"coeffs":[0,0]}', monkeypatch)
        assert code == 2
        assert "error" in err

    def test_garbage_input(self, capsys, monkeypatch):
        code, _, _ = run_cli(["ops", "exp"], capsys, "garbage[", monkeypatch)
        assert code == 2

    def test_integer_too_large_for_a_float(self, capsys, monkeypatch):
        huge = '{"order":0,"coeffs":[' + "9" * 400 + "]}"
        code, out, err = run_cli(["ops", "exp"], capsys, huge, monkeypatch)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "index 0" in err

    def test_bad_csv_index(self, capsys, monkeypatch):
        code, _, err = run_cli(["ops", "exp"], capsys, "0,1.0\n2,2.0\n", monkeypatch)
        assert code == 2
        assert "contiguous" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, _ = run_cli(["ops", "exp", "--in", str(tmp_path / "nope.json")], capsys)
        assert code == 2

    def test_undecodable_input_exits_2(self, capsys, monkeypatch, tmp_path):
        src = tmp_path / "in.json"
        src.write_bytes(b"\xff{")
        code, out, err = run_cli(["ops", "exp", "--in", str(src)], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {src}: 'utf-8' codec can't decode")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff{"), "utf-8"))
        code, out, err = run_cli(["ops", "exp"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read standard input: 'utf-8' codec")

    def test_pow_requires_m(self, capsys, monkeypatch):
        code, _, _ = run_cli(["ops", "pow"], capsys, SQ_INPUT, monkeypatch)
        assert code == 2

    def test_negative_m_rejected(self, capsys, monkeypatch):
        code, _, _ = run_cli(["ops", "pow", "--m", "-2"], capsys, SQ_INPUT, monkeypatch)
        assert code == 2
        code, out, err = run_cli(
            ["ops", "pow", "--m", "-1", "--naive"], capsys, SQ_INPUT, monkeypatch
        )
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_out_is_a_directory(self, capsys, monkeypatch, tmp_path):
        code, out, err = run_cli(
            ["ops", "exp", "--out", str(tmp_path)], capsys, SQ_INPUT, monkeypatch
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {tmp_path}: ")

    def test_m_meaningless_for_exp(self, capsys, monkeypatch):
        code, _, _ = run_cli(["ops", "exp", "--m", "2"], capsys, SQ_INPUT, monkeypatch)
        assert code == 2

    @pytest.mark.parametrize(
        "argv,series",
        [
            (["exp"], [800, 1, 0, 0]),
            (["exp", "--naive"], [800, 1, 0, 0]),
            (["pow", "--m", "3"], [1e200, 1, 0, 0]),
            (["pow", "--m", "3", "--naive"], [1e200, 1, 0, 0]),
        ],
    )
    def test_overflow_is_domain_error(self, capsys, monkeypatch, argv, series):
        text = json.dumps({"order": 3, "coeffs": series})
        code, out, err = run_cli(["ops"] + argv, capsys, text, monkeypatch)
        assert code == 3
        assert out == ""
        assert err == "error: non-finite coefficient produced at order 0\n"

    @pytest.mark.parametrize("error", [
        OrderMismatchError("mul requires equal truncation orders"),
        DtmError("some failure"),
    ], ids=type)
    def test_any_library_error_exits_with_its_code(self, capsys, monkeypatch, error):
        def fail(series):
            raise error

        monkeypatch.setattr(cli, "exp_series", fail)
        code, out, err = run_cli(["ops", "exp"], capsys, SQ_INPUT, monkeypatch)
        assert (code, out, err) == (2, "", f"error: {error}\n")


class TestSolve:
    def test_exponential(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--eq", "D(u,1) = u", "--ic", "1", "--order", "5"], capsys
        )
        assert code == 0
        coeffs = json.loads(out)["coeffs"]
        want = [1.0, 1.0, 0.5, 1 / 6, 1 / 24, 1 / 120]
        assert max(abs(g - w) for g, w in zip(coeffs, want)) <= 1e-15

    def test_scaled_exp_equation(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--eq", "D(u,2) = -2 * exp(u)", "--ic", "0,3", "--order", "3"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == [0.0, 3.0, -1.0, -1.0]

    def test_signed_zero_scales_stay_apart(self, capsys):
        # -0.0*u + 0.0*u is 0.0 at every order; a plan that merged the two
        # Scale nodes (equal as dataclasses) would print -0.0.
        code, out, _ = run_cli(
            ["solve", "--eq", "D(u,1) = -0.0*u + 0.0*u", "--ic", "1", "--order", "2"],
            capsys,
        )
        assert code == 0
        assert out == '{"order": 2, "coeffs": [1.0, 0.0, 0.0]}\n'

    def test_derivative_order_171_exits_0(self, capsys):
        # 171! has no float, yet U(171) = 1/171! is a finite subnormal.
        ic = ",".join(["1"] * 171)
        code, out, _ = run_cli(
            ["solve", "--eq", "D(u,171) = u", "--ic", ic, "--order", "171"], capsys
        )
        assert code == 0
        assert json.loads(out)["coeffs"][171] == 1 / math.factorial(171)

    def test_implicit_form_exits_2(self, capsys):
        code, _, err = run_cli(
            ["solve", "--eq", "D(u,1) = D(u,1)", "--ic", "1", "--order", "5"], capsys
        )
        assert code == 2
        assert "implicit form" in err

    def test_syntax_error_reports_position(self, capsys):
        code, _, err = run_cli(
            ["solve", "--eq", "D(u,1) = sin(u)", "--ic", "1", "--order", "5"], capsys
        )
        assert code == 2
        assert "position" in err

    def test_non_finite_literal_exits_2(self, capsys):
        code, out, err = run_cli(
            ["solve", "--eq", "D(u,1) = 1e999*u", "--ic", "0", "--order", "2"], capsys
        )
        assert code == 2
        assert out == ""
        assert "1e999" in err and "position 9" in err
        code, out, err = run_cli(
            ["solve", "--eq", "D(u,1) = 1e200*1e200*u", "--ic", "0", "--order", "2"], capsys
        )
        assert code == 2
        assert out == ""
        assert "not a finite float" in err and "position 14" in err

    @pytest.mark.parametrize("eq,position", [
        ("D(u,{}) = u", 4), ("D(u,1) = x^{}", 11), ("D(u,1) = pow(u, {})", 16),
    ], ids=["order", "x-power", "exponent"])
    def test_integer_beyond_int_digit_limit_exits_2(self, capsys, eq, position):
        code, out, err = run_cli(
            ["solve", "--eq", eq.format("1" * 5000), "--ic", "1", "--order", "2"], capsys
        )
        assert code == 2 and out == ""
        assert "too many digits" in err and f"position {position}" in err

    def test_sum_of_3000_terms_exits_0(self, capsys):
        # A left-deep chain of 2999 Add nodes, lowered without recursion.
        eq = "D(u,1) = " + " + ".join(["u"] * 3000)
        code, out, _ = run_cli(["solve", "--eq", eq, "--ic", "1", "--order", "2"], capsys)
        assert code == 0
        assert json.loads(out)["coeffs"] == [1.0, 3000.0, 4.5e6]

    @pytest.mark.parametrize("opening,position", [("(", 209), ("exp(", 812)],
                             ids=["paren", "exp"])
    def test_2000_nested_parentheses_exit_2(self, capsys, opening, position):
        eq = "D(u,1) = " + opening * 2000 + "u" + ")" * 2000
        code, out, err = run_cli(["solve", "--eq", eq, "--ic", "1", "--order", "2"], capsys)
        assert code == 2 and out == ""
        assert f"more than 200 nested parentheses (at position {position})" in err

    def test_wrong_ic_count(self, capsys):
        code, _, _ = run_cli(
            ["solve", "--eq", "D(u,2) = u", "--ic", "1", "--order", "5"], capsys
        )
        assert code == 2

    def test_bad_ic_literal(self, capsys):
        for ic in ("1;2", "nan", "inf"):
            code, _, err = run_cli(
                ["solve", "--eq", "D(u,1) = u", "--ic", ic, "--order", "5"], capsys
            )
            assert code == 2
            assert err.startswith("error: ")

    def test_order_too_small(self, capsys):
        code, _, _ = run_cli(
            ["solve", "--eq", "D(u,2) = u", "--ic", "0,1", "--order", "0"], capsys
        )
        assert code == 2
        code, out, err = run_cli(
            ["solve", "--eq", "D(u,2) = u", "--ic", "0,1", "--order", "-3"], capsys
        )
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_out_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            ["solve", "--eq", "D(u,1) = u", "--ic", "1", "--order", "5", "--out", str(path)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_runs_as_module(self, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        for eq, code in (("D(u,1) = u", 0), ("D(u,1) = sin(u)", 2)):
            argv = ["solve", "--eq", eq, "--ic", "1", "--order", "3"]
            done = subprocess.run(
                [sys.executable, "-m", "dtmseries.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == code
            assert done.stdout == run_cli(argv, capsys)[1]
            assert (done.stdout != "") == (code == 0)

    def test_overflow_is_domain_error(self, capsys):
        code, _, err = run_cli(
            ["solve", "--eq", "D(u,1) = exp(u)", "--ic", "710", "--order", "4"], capsys
        )
        assert code == 3
        assert "order 1" in err


class TestBratu:
    def test_happy_path(self, capsys, tmp_path):
        csv_path = tmp_path / "cmp.csv"
        json_path = tmp_path / "summary.json"
        code, out, err = run_cli(
            [
                "bratu", "--lambda", "1", "--order", "30", "--grid", "101",
                "--branch", "lower",
                "--out-csv", str(csv_path), "--out-json", str(json_path),
            ],
            capsys,
        )
        assert code == 0 and out == "" and err == ""
        summary = json.loads(json_path.read_text())
        assert set(summary) == {"lambda", "gamma", "theta", "residual", "max_abs_err", "order"}
        assert summary["order"] == 30
        assert abs(summary["residual"]) <= 1e-12
        assert summary["max_abs_err"] <= 1e-6
        assert abs(summary["gamma"] - summary["theta"] * math.tanh(summary["theta"] / 4)) <= 1e-6

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,u_dtm,u_analytic,abs_err"
        assert len(lines) == 102
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0 and float(last[0]) == 1.0
        assert float(first[2]) == 0.0 and float(last[2]) == 0.0

    def test_summary_to_stderr_by_default(self, capsys):
        code, out, err = run_cli(
            ["bratu", "--lambda", "1", "--order", "10", "--grid", "3", "--branch", "lower"],
            capsys,
        )
        assert code == 0
        assert out.startswith("x,u_dtm,u_analytic,abs_err")
        assert json.loads(err)["order"] == 10

    def test_upper_branch_runs(self, capsys, tmp_path):
        # The upper-branch series cannot converge at x = 1 (at N = 10 its
        # answer had max_abs_err 2.67), so the command refuses and writes
        # no output file.
        json_path = tmp_path / "upper.json"
        code, out, err = run_cli(
            [
                "bratu", "--lambda", "1", "--order", "10", "--grid", "11",
                "--branch", "upper", "--out-csv", str(tmp_path / "u.csv"),
                "--out-json", str(json_path),
            ],
            capsys,
        )
        assert code == 4 and out == ""
        assert err.startswith("error: no series converges at x = 1 on the upper branch")
        assert not json_path.exists()

    def test_upper_branch_non_root_exits_4(self, capsys):
        # The N = 30 truncated residual changes sign near gamma = 40.634
        # across a pole (the true slope is 10.847); no gamma is run.
        code, out, err = run_cli(
            ["bratu", "--lambda", "1", "--order", "30", "--grid", "5", "--branch", "upper"],
            capsys,
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: no series converges at x = 1 on the upper branch")
        assert "Traceback" not in err

    def test_no_branch_exits_4(self, capsys):
        # Above the fold the refusal is shoot's, as in the library: the
        # theta condition is not solved first.
        code, out, err = run_cli(
            ["bratu", "--lambda", "5", "--order", "30", "--grid", "11", "--branch", "lower"],
            capsys,
        )
        assert code == 4 and out == ""
        assert err.startswith("error: no series converges at x = 1 on the lower branch "
                              "at lambda=5.0")

    def test_lower_branch_at_order_600(self, capsys, tmp_path):
        # The climb stops at its first sign change, long before the gamma
        # that overflows this order.
        json_path = tmp_path / "summary.json"
        code, _, err = run_cli(
            ["bratu", "--lambda", "1", "--order", "600", "--grid", "11", "--branch", "lower",
             "--out-csv", str(tmp_path / "cmp.csv"), "--out-json", str(json_path)],
            capsys,
        )
        assert code == 0 and err == ""
        summary = json.loads(json_path.read_text())
        assert abs(summary["gamma"] - summary["theta"] * math.tanh(summary["theta"] / 4)) <= 1e-6

    @pytest.mark.parametrize("lam, order, branch, grid", [
        ("1", "30", "lower", "101"),
        ("0.001", "10", "lower", "2"),
        ("2.4", "60", "lower", "37"),
        ("1", "10", "lower", "21"),
    ])
    def test_csv_bytes_are_the_repr_of_each_row(self, capsys, lam, order, branch, grid):
        code, out, _ = run_cli(["bratu", "--lambda", lam, "--order", order, "--grid", grid,
                                "--branch", branch], capsys)
        assert code == 0
        _, _, rows = _comparison(float(lam), int(order), int(grid), branch)
        want = ["x,u_dtm,u_analytic,abs_err"] + [",".join(map(repr, row)) for row in rows]
        assert out == "\n".join(want) + "\n"

    # From lambda = 3.1722 (bratu.LAMBDA_RADIUS) the lower-branch series
    # diverges at x = 1, so a root of its truncated residual is a wrong
    # answer (max_abs_err 0.45, 0.58, 0.50 and 0.27 at these inputs). The
    # command exits 4 before any gamma is run.
    @pytest.mark.parametrize("lam, order", [("3.5", "60"), ("3.5138307", "30"), ("3.3", "10"),
                                            ("3.5", "10")])
    def test_divergent_truncation_exits_4(self, capsys, lam, order):
        code, out, err = run_cli(["bratu", "--lambda", lam, "--order", order, "--grid", "101",
                                  "--branch", "lower"], capsys)
        assert code == 4 and out == ""
        assert err.startswith("error: no series converges at x = 1 on the lower branch "
                              f"at lambda={float(lam)!r}")

    # Wrong answers with tiny residuals (ROADMAP item 1): the truncated
    # series converges too slowly at x = 1 (lower, lambda = 3.0) or not at
    # all there (lambda above 3.172, or upper). (3.0, 30) still exits 0,
    # with max_abs_err 0.024, until a tail bound refuses it. (3.0, 10),
    # max_abs_err 0.58, exits 4 because its residual's slope grows before
    # the sign change; the other four (0.17, 0.14, 228 and 3.57) exit 4
    # before any run.
    _no_tail_bound = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")

    @pytest.mark.parametrize("lam, order, branch", [
        pytest.param("3.0", "30", "lower", marks=_no_tail_bound),
        ("3.0", "10", "lower"),
        ("3.3", "30", "lower"),
        ("3.3", "60", "lower"),
        ("2.0", "10", "upper"),
        ("0.1", "30", "upper"),
    ])
    def test_wrong_answer_with_tiny_residual(self, capsys, lam, order, branch):
        code, _, err = run_cli(["bratu", "--lambda", lam, "--order", order, "--grid", "101",
                                "--branch", branch], capsys)
        assert code in (3, 4) or json.loads(err)["max_abs_err"] <= 1e-6

    def test_lambda_range(self, capsys):
        for bad in ("0.0005", "11", "nan", "inf", "-1"):
            code, out, err = run_cli(
                ["bratu", "--lambda", bad, "--order", "30", "--grid", "11", "--branch", "lower"],
                capsys,
            )
            assert code == 2
            assert out == "" and err.startswith("error: ")

    def test_grid_and_order_validation(self, capsys):
        code, _, _ = run_cli(
            ["bratu", "--lambda", "1", "--order", "2", "--grid", "11", "--branch", "lower"],
            capsys,
        )
        assert code == 2
        code, _, _ = run_cli(
            ["bratu", "--lambda", "1", "--order", "30", "--grid", "1", "--branch", "lower"],
            capsys,
        )
        assert code == 2
        code, out, err = run_cli(
            ["bratu", "--lambda", "1", "--order", "30", "--grid", "0", "--branch", "upper"],
            capsys,
        )
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_out_json_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "summary.json"
        csv_path = tmp_path / "cmp.csv"
        argv = ["bratu", "--lambda", "1", "--order", "10", "--grid", "3", "--branch", "lower",
                "--out-json", str(path)]
        # No output is written, to stdout or to --out-csv, when one cannot be.
        for extra in ([], ["--out-csv", str(csv_path)]):
            code, out, err = run_cli(argv + extra, capsys)
            assert code == 2 and out == ""
            assert err.startswith(f"error: cannot write {path}: ")
            assert not csv_path.exists() or csv_path.read_text() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_out_json_on_full_device(self, capsys):
        # The file opens but its write fails: the CSV must not reach stdout.
        code, out, err = run_cli(
            ["bratu", "--lambda", "1", "--order", "10", "--grid", "3", "--branch", "lower",
             "--out-json", "/dev/full"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write /dev/full: ")

    def test_outputs_naming_one_file_are_refused(self, capsys, tmp_path, monkeypatch):
        # The JSON summary once overwrote the head of the CSV and exited 0.
        path = tmp_path / "out.txt"
        path.write_text("kept\n")
        monkeypatch.chdir(tmp_path)
        argv = ["bratu", "--lambda", "1", "--order", "10", "--grid", "5", "--branch", "lower"]
        for csv_name, json_name in (("out.txt", "out.txt"), (str(path), "./sub/../out.txt")):
            (tmp_path / "sub").mkdir(exist_ok=True)
            code, out, err = run_cli(argv + ["--out-csv", csv_name, "--out-json", json_name],
                                     capsys)
            assert code == 2 and out == ""
            assert err == f"error: two outputs name the same file {os.path.realpath(path)}\n"
            assert path.read_text() == "kept\n"

    def test_invalid_branch_choice(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bratu", "--lambda", "1", "--order", "30", "--grid", "11", "--branch", "mid"])
        assert err.value.code == 2
        capsys.readouterr()


class TestBench:
    def test_pow_counts(self, capsys):
        code, out, _ = run_cli(["bench", "--op", "pow", "--order", "64", "--m", "8"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["op"] == "pow" and report["order"] == 64 and report["m"] == 8
        assert report["count_naive"] == 15015
        # Miller's N(N+2), plus 3 squares for Y(0)^8: the paper's
        # comparison, although pow_int raises to m = 8 by binary powering.
        assert report["count_recurrence"] == 4227
        assert report["ratio"] >= 3.0
        assert report["time_recurrence_ns"] > 0 and report["time_naive_ns"] > 0

    def test_pow_m2_count(self, capsys):
        _, out, _ = run_cli(["bench", "--op", "pow", "--order", "64", "--m", "2"], capsys)
        report = json.loads(out)
        assert report["count_naive"] == 2145
        assert report["count_recurrence"] == 64 * 66 + 1

    def test_exp_counts(self, capsys):
        code, out, _ = run_cli(["bench", "--op", "exp", "--order", "64"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["m"] is None
        assert report["count_recurrence"] <= report["count_naive"]

    def test_pow_defaults_to_m8(self, capsys):
        code, out, _ = run_cli(["bench", "--op", "pow", "--order", "64"], capsys)
        assert code == 0
        assert json.loads(out)["m"] == 8

    def test_exp_rejects_m_equal_to_pow_default(self, capsys):
        code, _, err = run_cli(["bench", "--op", "exp", "--order", "4", "--m", "8"], capsys)
        assert code == 2
        assert "--m is only meaningful for bench --op pow" in err

    def test_validation(self, capsys):
        assert run_cli(["bench", "--op", "pow", "--order", "-1"], capsys)[0] == 2
        assert run_cli(["bench", "--op", "pow", "--order", "8", "--reps", "0"], capsys)[0] == 2
        assert run_cli(["bench", "--op", "exp", "--order", "8", "--m", "3"], capsys)[0] == 2
        code, out, err = run_cli(["bench", "--op", "pow", "--order", "8", "--m", "-2"], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["ops", "pow", "--naive", "--m", "1000000000000"],
        ["bench", "--op", "pow", "--order", "4", "--m", "1000000000000"],
    ], ids=["ops", "bench"])
    def test_naive_fold_refuses_a_huge_m_at_once(self, argv):
        # The fold runs m - 1 convolutions; without a bound these never return.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "dtmseries.cli", *argv], input=SQ_INPUT,
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == "error: pow_naive exponent must be in 0..1024, got 1000000000000\n"


class TestParser:
    def test_main_is_unaffected_by_changes_to_a_built_parser(self, capsys):
        parser = build_parser()
        assert parser is not build_parser()
        parser.prog = "changed"
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["bratu", "--lambda", "1", "--order", "30", "--grid", "11"])
            assert err.value.code == 2
            assert capsys.readouterr().err.startswith("usage: dtmseries bratu")


class TestDeterminism:
    def test_ops_byte_identical(self, capsys, tmp_path):
        src = tmp_path / "in.json"
        src.write_text('{"order":6,"coeffs":[1.25,-0.5,0.125,0.75,-1.0,0.3,0.9]}')
        outs = []
        for name in ("a.json", "b.json"):
            dst = tmp_path / name
            code, _, _ = run_cli(
                ["ops", "pow", "--m", "5", "--in", str(src), "--out", str(dst)], capsys
            )
            assert code == 0
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]

    def test_solve_byte_identical(self, capsys, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            dst = tmp_path / name
            code, _, _ = run_cli(
                ["solve", "--eq", "D(u,2) = -1 * exp(u)", "--ic", "0,0.5",
                 "--order", "25", "--out", str(dst)],
                capsys,
            )
            assert code == 0
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]

    def test_bratu_byte_identical(self, capsys, tmp_path):
        pairs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            code, _, _ = run_cli(
                [
                    "bratu", "--lambda", "1", "--order", "20", "--grid", "41",
                    "--branch", "lower",
                    "--out-csv", str(csv_path), "--out-json", str(json_path),
                ],
                capsys,
            )
            assert code == 0
            pairs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert pairs[0] == pairs[1]

    def test_bench_counts_deterministic(self, capsys):
        reports = []
        for _ in range(2):
            _, out, _ = run_cli(["bench", "--op", "pow", "--order", "32", "--m", "4"], capsys)
            r = json.loads(out)
            reports.append((r["count_recurrence"], r["count_naive"], r["ratio"]))
        assert reports[0] == reports[1]
