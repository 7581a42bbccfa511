from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from staircase import cli, objects
from staircase.objects import decompose, destabilizing_sequence, parse_tree, rank_one
from staircase.oracle import (
    CHECK_NAMES,
    Failure,
    VerificationReport,
    render_reports,
    run_check,
)

BIG_IDEAL = "x^9,x^7y^2,x^6y^4,x^4y^5,x^3y^6,y^8"
CHECKER_IDEAL = "x^7,x^6y,x^2y^3,xy^4,y^5"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_slope_checker_table(capsys):
    code, out, _ = run(capsys, "slope", CHECKER_IDEAL)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Z: rows 7,6,6,2,1 (degree 22)"
    assert "  mu_3 = 19/3" in lines
    assert "  mu'_1 = 4" in lines
    assert lines[-1] == "mu(Z) = 19/3 (horizontal, k=3)"


def test_slope_approx_flag(capsys):
    code, out, _ = run(capsys, "slope", CHECKER_IDEAL, "--approx")
    assert code == 0
    assert out.splitlines()[-1] == "mu(Z) = 6.33333 (horizontal, k=3)"


def test_interp_pinned_line(capsys):
    code, out, _ = run(capsys, "interp", BIG_IDEAL)
    assert code == 0
    assert out.splitlines()[-1] == "mu = 43/5, Delta = 72/25"


def test_interp_takes_one_destabilizing_step(capsys, monkeypatch):
    calls = []

    def counted(obj):
        calls.append(obj)
        return destabilizing_sequence(obj)

    monkeypatch.setattr(cli, "destabilizing_sequence", counted)
    monkeypatch.setattr(objects, "destabilizing_sequence", counted)
    code, out, _ = run(capsys, "interp", BIG_IDEAL)
    assert code == 0
    assert out.splitlines()[-1] == "mu = 43/5, Delta = 72/25"
    assert len(calls) == 1


def test_wall_pinned_output(capsys):
    code, out, _ = run(capsys, "wall", BIG_IDEAL)
    assert code == 0
    lines = out.splitlines()
    assert "  sub = I(4,3,3)(-5)" in lines
    assert "  quotient = I(9,9,7,7,6 in 5L)" in lines
    assert "center = -101/10" in lines
    assert "radius^2 = 601/100" in lines


def test_decompose_empty_scheme_is_domain_error(capsys):
    code, out, err = run(capsys, "decompose", "rows:0")
    assert code == 3
    assert out == ""
    assert "empty scheme" in err


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "slope", "x^2,,y")
    assert code == 2
    assert "position" in err


def test_whitespace_between_digits_is_a_usage_error(capsys):
    code, out, err = run(capsys, "slope", "rows: 3 1")
    assert code == 2
    assert out == ""
    assert "whitespace between digits (position 6)" in err


def test_decompose_json_round_trips(capsys):
    code, out, _ = run(capsys, "decompose", "rows: 4,3,3", "--format", "json")
    assert code == 0
    assert parse_tree(out) == decompose(rank_one((4, 3, 3)))
    payload = json.loads(out)
    assert payload["object"]["type"] == "rank1"


def test_decompose_dot_output(capsys):
    code, out, _ = run(capsys, "decompose", "x,y", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert 'label="sub"' in out
    assert 'label="quotient"' in out


def test_decompose_text_default(capsys):
    code, out, _ = run(capsys, "decompose", "x,y")
    assert code == 0
    assert out.splitlines()[0].startswith("I(1)")
    assert "O(-2)[1]" in out


def test_dual_pinned(capsys):
    code, out, _ = run(capsys, "dual", "rows: 7,7,7,7,6")
    assert code == 0
    assert out.splitlines() == ["F = F(7,7,7,7,6 in 5x7)", "dual = I(1)(12)[-1]"]


def test_dual_of_rows_3_1(capsys):
    code, out, _ = run(capsys, "dual", "rows: 3,1")
    assert code == 0
    assert out.splitlines()[-1] == "dual = I(2)(5)[-1]"


def test_dual_of_the_full_box_is_a_line_bundle(capsys):
    code, out, _ = run(capsys, "dual", "rows: 3,3")
    assert code == 0
    assert out.splitlines() == ["F = O(-5)[1]", "dual = O(5)[-1]"]


def test_dual_rejects_the_removed_lines_flag(capsys):
    code, _, err = run(capsys, "dual", "rows: 3,1", "--lines", "1")
    assert code == 2
    assert "unrecognized arguments" in err


def test_resolution_display_and_betti(capsys):
    code, out, _ = run(capsys, "resolution", "x^5,x^4y^2,x^3y^3,y^5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 -> O(-7)^2 (+) O(-8) -> O(-5)^2 (+) O(-6)^2 -> I_Z -> 0"
    assert "betti:" in lines
    assert lines[-1] == " b1  0  0  2  1"


def test_resolution_matrix_flag(capsys):
    code, out, _ = run(capsys, "resolution", "x,y", "--matrix")
    assert code == 0
    assert "[  y ]" in out
    assert "[ -x ]" in out


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--max-degree", "6", "--check", "rootwall")
    assert code == 0
    assert "check: rootwall" in out
    assert "status: pass" in out


def test_verify_writes_report_file(capsys, monkeypatch, tmp_path):
    path = tmp_path / "report.txt"
    monkeypatch.setenv(cli.REPORT_PATH_VAR, str(path))
    code, out, _ = run(capsys, "verify", "--max-degree", "5", "--check", "purity")
    assert code == 0
    assert path.read_text() == out


def test_verify_unwritable_report_path_is_a_usage_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "missing" / "r.txt"
    monkeypatch.setenv(cli.REPORT_PATH_VAR, str(path))
    code, out, err = run(capsys, "verify", "--max-degree", "3", "--check", "purity")
    assert code == 2
    assert "status: pass" in out
    assert err.startswith(f"error: cannot write report to {path}: ")
    assert err.count("\n") == 1
    assert not path.parent.exists()


def test_verify_negative_bound_is_a_domain_error(capsys):
    code, out, err = run(capsys, "verify", "--max-degree", "-3")
    assert code == 3
    assert out == ""
    assert err == "error: degree bound must be nonnegative, got -3\n"


def test_verify_all_prints_the_library_reports(capsys):
    code, out, _ = run(capsys, "verify", "--check", "all", "--max-degree", "6")
    assert code == 0
    assert out == render_reports([run_check(name, 6) for name in CHECK_NAMES]) + "\n"


def test_verify_rejects_the_removed_sharding_flag(capsys):
    code, _, err = run(capsys, "verify", "--workers", "2")
    assert code == 2
    assert "unrecognized arguments" in err


def test_too_deep_input_is_a_domain_error(capsys):
    staircase = "rows: " + ",".join(str(h) for h in range(60, 0, -1))
    for fmt in ("text", "json"):
        decompose.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            code, out, err = run(capsys, "decompose", staircase, "--format", fmt)
        finally:
            sys.setrecursionlimit(limit)
        assert code == 3
        assert out == ""
        assert err.startswith("error: input too deep")
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("slope", "x^99999999999999999999,y"),
        ("wall", "x^99999999999999999999,y"),
        ("interp", "x^99999999999999999999,y"),
        ("decompose", "x^99999999999999999999,y"),
        ("slope", "rows:99999999999999999999"),
    ],
)
def test_exponent_too_large_to_index_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: input too large")
    assert err.count("\n") == 1


def test_verify_failure_exit_code(capsys, monkeypatch):
    broken = VerificationReport(
        "nesting", 6, 3, (Failure((2, 1), "made-up failure"),), 0.0
    )
    monkeypatch.setattr(cli, "run_check", lambda *a, **k: broken)
    code, out, err = run(capsys, "verify", "--check", "nesting")
    assert code == 1
    assert "made-up failure" in out
    assert "FAILED" in err


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_shared_parser_keeps_calls_independent(capsys):
    sequence = [
        ("bogus",),
        ("--help",),
        ("slope", "--approx", CHECKER_IDEAL),
        ("slope", CHECKER_IDEAL),
        ("decompose", "--format", "dot", CHECKER_IDEAL),
        ("decompose", CHECKER_IDEAL),
    ]
    first_calls = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        first_calls.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in sequence]
    assert shared == first_calls
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0]
    assert shared[3][1].splitlines()[-1] == "mu(Z) = 19/3 (horizontal, k=3)"
    assert shared[5][1].startswith("I(7,6,6,2,1)")
    assert "digraph" not in shared[5][1]


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    queries = [
        ("slope", "x,y"), ("wall", "x,y"), ("interp", "x,y"), ("dual", "x,y"),
        ("resolution", "x,y"), ("decompose", "x,y"), ("bogus",),
    ]
    for i in range(50):
        run(capsys, *queries[i % len(queries)])
    assert len(built) == 8  # the main parser and its 7 subcommands


def test_help_width_follows_the_terminal_on_every_call(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    helps = []
    for columns in ("40", "200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run(capsys, "slope", "--help")
        assert code == 0
        helps.append(out)
    assert helps[0] == helps[2]
    assert helps[1] != helps[0]


def run_python(*args):
    """Run a fresh interpreter that imports staircase from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_importing_the_cli_builds_no_parser():
    code, out, _ = run_python(
        "-c", "from staircase import cli; print(cli.build_parser.cache_info().currsize)"
    )
    assert (code, out) == (0, "0\n")


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_python("-m", "staircase", "slope", "x,y") == run(capsys, "slope", "x,y")
    usage_error = run_python("-m", "staircase", "bogus")
    assert usage_error[0] == 2
    assert usage_error == run(capsys, "bogus")
