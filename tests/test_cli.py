import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sqtilings import cli, engine, gfun, identities, oracle
from sqtilings.cli import main
from sqtilings.engine import SWEEP_BUDGET, TRANSITION_BUDGET
from sqtilings.identities import IdentityReport

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_paper_format(capsys):
    code, out, _ = run(capsys, "table", "--s", "2", "--n", "3", "--m", "5",
                       "--format", "paper")
    assert code == 0
    assert out == "2 3 5 : 1 8 12 : 21\n"


def test_table_paper_format_empty_board(capsys):
    # the empty board has its one tiling, with no squares
    code, out, _ = run(capsys, "table", "--s", "2", "--n", "2", "--m", "0",
                       "--format", "paper")
    assert (code, out) == (0, "2 2 0 : 1 : 1\n")


def test_table_defaults_to_paper_format(capsys):
    code, out, _ = run(capsys, "table", "--s", "2", "--n", "3", "--m", "5")
    assert (code, out) == (0, "2 3 5 : 1 8 12 : 21\n")


def test_table_range_csv(capsys):
    code, out, _ = run(capsys, "table", "--s", "2", "--n", "2", "--m-max", "2",
                       "--format", "csv")
    assert code == 0
    assert out == (
        "s,n,m,k,count\n"
        "2,2,0,0,1\n"
        "2,2,1,0,1\n"
        "2,2,2,0,1\n"
        "2,2,2,1,1\n"
    )


def test_table_csv_text(capsys):
    # one row per k, up to the largest k that has a tiling
    code, out, _ = run(capsys, "table", "--s", "2", "--n", "3", "--m", "3",
                       "--format", "csv")
    assert (code, out) == (0, "s,n,m,k,count\n2,3,3,0,1\n2,3,3,1,4\n")


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--s", "3", "--n", "6", "--m", "6",
                       "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records == [
        {"s": 3, "n": 6, "m": 6, "counts": [1, 16, 30, 12, 1], "row_sum": 60}
    ]


def test_table_json_text(capsys):
    # two-space indent, one line per list item, keys in field order
    code, out, _ = run(capsys, "table", "--s", "2", "--n", "3", "--m-max", "1",
                       "--format", "json")
    assert code == 0
    assert out == """\
[
  {
    "s": 2,
    "n": 3,
    "m": 0,
    "counts": [
      1
    ],
    "row_sum": 1
  },
  {
    "s": 2,
    "n": 3,
    "m": 1,
    "counts": [
      1
    ],
    "row_sum": 1
  }
]
"""


@pytest.mark.parametrize("fmt", ["paper", "csv", "json"])
def test_tables_print_counts_past_the_int_digit_limit(capsys, monkeypatch, fmt):
    # table --s 1 --n 120 --m 120 sums to 2^14400, about 4335 digits
    from sqtilings import series

    big = 10**4400 + 7
    table = series.CountTable(1, 1, 1, (big, 1))
    monkeypatch.setattr(series, "count_table", lambda *args: table)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "table", "--s", "1", "--n", "1", "--m", "1",
                       "--format", fmt)
    assert code == 0
    assert "1" + "0" * 4399 + "7" in out
    # main lifts the limit for its own call only
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--s", "0", "--n", "3", "--m", "2"],
        ["table", "--s", "2", "--n", "3", "--m", "-1"],
        ["table", "--s", "2", "--n", "0", "--m", "3"],
        ["table", "--s", "2", "--n", "3", "--m-max", "x"],
        ["gf", "--s", "-1", "--n", "3"],
        ["square", "--s", "2", "--size-max", "-3"],
        ["verify", "--oracle-cap", "-1"],
        ["cas", "--s", "2", "--n", "0"],
    ],
)
def test_bad_numbers_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: argument --" in err
    assert "Traceback" not in err


def test_table_requires_one_length_flag(capsys):
    for lengths in ([], ["--m", "4", "--m-max", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--s", "2", "--n", "3", *lengths])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--m" in err
        assert "Traceback" not in err


def test_gf_exact_output(capsys):
    code, out, _ = run(capsys, "gf", "--s", "2", "--n", "2")
    assert code == 0
    assert out == "(1) / (1 - z - z^2*t)\n"


@pytest.mark.parametrize("argv, line", [
    (("table", "--s", "2000000", "--n", "3", "--m", "5"), "2000000 3 5 : 1 : 1"),
    (("gf", "--s", "2000000", "--n", "3"), "(1) / (1 - z)"),
])
def test_square_wider_than_any_code_point_fits_nowhere(capsys, argv, line):
    # chr(s - 1) does not exist for s > 0x110000; a width no square fits
    # is answered with its one state before any front search, and where
    # one fits the lanes budget refuses every s > 5476 before the search
    assert run(capsys, *argv) == (0, line + "\n", "")


def test_gf_row_sums_line(capsys):
    code, out, _ = run(capsys, "gf", "--s", "2", "--n", "2", "--row-sums")
    assert code == 0
    assert out == "(1) / (1 - z - z^2*t)\n(1) / (1 - z - z^2)\n"


def test_gf_dimension_cap_exit_code(capsys, monkeypatch):
    # the cap applies to the lumped system: 34 states from 51 mirror fronts
    monkeypatch.setattr(gfun, "DIM_CAP", 33)
    code, _, err = run(capsys, "gf", "--s", "2", "--n", "10")
    assert code == 2
    assert "unknowns of the transfer system: 34," in err


def test_state_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(engine, "STATE_CAP", 100)
    code, _, err = run(capsys, "table", "--s", "2", "--n", "16", "--m", "16")
    assert code == 2
    assert err.endswith(", over the limit of 100\n")


def test_verify_state_cap_exit_code(capsys, monkeypatch):
    # the grid charge is 5 * (14 + 2) = 80 classes, under the cap, and
    # s = 2, n = 14 alone meets 184, so a front search inside verify passes it
    monkeypatch.setattr(engine, "STATE_CAP", 100)
    code, out, err = run(capsys, "verify", "--n-max", "14")
    assert code == 2
    assert out == ""
    assert err.startswith("error: lower bound on the advance classes of the front search: ")
    assert err.endswith(", over the limit of 100\n")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,budget",
    [
        (["table", "--s", "2", "--n", "3", "--m", "99999999999"], SWEEP_BUDGET),
        (["table", "--s", "3", "--n", "99999999999", "--m", "1"], SWEEP_BUDGET),
        (["gf", "--s", "2", "--n", "40"], TRANSITION_BUDGET),
        (["square", "--s", "2", "--size-max", "100000"], TRANSITION_BUDGET),
        # every command charges the s = 1 graph before its binomials, about
        # n^2 bits, are built
        (["table", "--s", "1", "--n", "100000", "--m-max", "1"], SWEEP_BUDGET),
        (["square", "--s", "1", "--size-max", "100000"], SWEEP_BUDGET),
        (["gf", "--s", "1", "--n", "100000"], SWEEP_BUDGET),
        (["cas", "--s", "1", "--n", "100000"], SWEEP_BUDGET),
    ],
)
def test_over_budget_runs_exit_2_at_once(capsys, argv, budget):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith(f", over the limit of {budget}\n")


def test_unit_square_refusal_names_the_graph(capsys):
    # gf runs no sweep: the refusal names the s = 1 graph it would build
    code, _, err = run(capsys, "gf", "--s", "1", "--n", "100000")
    assert code == 2
    assert err.startswith("error: estimated word operations of the s = 1 graph of width 100000: ")
    assert err.endswith(f", over the limit of {SWEEP_BUDGET}\n")



def _oracle_capped_at(cap):
    # verify never asks the oracle for a board past --oracle-cap, so its
    # source is handed a lower cap than the one it was given
    return lambda s, n, m_max, cell_cap: oracle.brute_force_tables(s, n, m_max, cap)


@pytest.mark.parametrize(
    "argv,patch,line",
    [
        (["table", "--s", "2", "--n", "3", "--m", "99999999999"], None,
         "estimated word operations of a sweep of 99999999999 steps: "
         "11718750000234375000301171874994, over the limit of 10000000000"),
        (["gf", "--s", "1", "--n", "100000"], None,
         "estimated word operations of the s = 1 graph of width 100000: "
         "15625468853126, over the limit of 10000000000"),
        (["gf", "--s", "2", "--n", "40"], None,
         "lower bound on the lanes of the front search's transitions: 33281600, "
         "over the limit of 30000000"),
        # the flat front's anchor table stops at its first entry past the budget
        (["gf", "--s", "20000", "--n", "40000"], None,
         "lower bound on the lanes of the front search's transitions: 30040000, "
         "over the limit of 30000000"),
        # s = 2, n = 14 builds 5353 transitions of 14 lanes, charged front by front
        (["gf", "--s", "2", "--n", "14"], (engine, "TRANSITION_BUDGET", 5353 * 14 - 1),
         "lower bound on the lanes of the front search's transitions: 74942, "
         "over the limit of 74941"),
        (["table", "--s", "2", "--n", "16", "--m", "16"], (engine, "STATE_CAP", 100),
         "lower bound on the advance classes of the front search: 101, "
         "over the limit of 100"),
        (["gf", "--s", "2", "--n", "16"], None,
         "unknowns of the transfer system: 438, over the limit of 400"),
        (["verify", "--s-max", "1", "--n-max", "2", "--m-max", "3", "--oracle-cap", "16"],
         (identities, "brute_force_tables", _oracle_capped_at(2)),
         "cells of the oracle's 1 x 3 board: 3, over the limit of 2"),
        # the first length refused at s = 1, n = 2
        (["table", "--s", "1", "--n", "2", "--m-max", "1442"], None,
         "estimated bits of the 1443 kept tables: 4006246594, "
         "over the limit of 4000000000"),
        # verify's grid would keep about 4.5 GB; its first tables, s = 1 and
        # n = 1, are refused
        (["verify", "--s-max", "2", "--n-max", "2", "--m-max", "3000"], None,
         "estimated bits of the 3001 kept tables: 9013506500, "
         "over the limit of 4000000000"),
        # an advance class per planned graph at least, charged before the plan
        (["verify", "--s-max", "1000000000"], None,
         "lower bound on the advance classes of the verify grid's front searches: "
         "12000000000, over the limit of 100000"),
        # its plan would hold 6.02e8 entries
        (["verify", "--s-max", "70000", "--n-max", "8600", "--m-max", "0"], None,
         "lower bound on the advance classes of the verify grid's front searches: "
         "602140000, over the limit of 100000"),
        # priced from the width alone: 2^n, about 12.5 GB here, is never built
        (["gf", "--s", "1", "--n", "100000000000"], None,
         "estimated word operations of the s = 1 graph of width 100000000000: "
         "15625000000468750000103125000001, over the limit of 10000000000"),
        # a small m_max does not hide a wide grid
        (["verify", "--n-max", "100000000", "--m-max", "0"], None,
         "lower bound on the advance classes of the verify grid's front searches: "
         "500000010, over the limit of 100000"),
        # the s - 1 fronts one square leaves are priced before the search:
        # (s + 1) * s lanes at n = s, the number the search would reach
        (["gf", "--s", "5477", "--n", "5477"], None,
         "lower bound on the lanes of the front search's transitions: 30003006, "
         "over the limit of 30000000"),
        # and before chr(s - 1), which does not exist here, is asked for
        (["gf", "--s", "1200000", "--n", "1200000"], None,
         "lower bound on the lanes of the front search's transitions: 1440001200000, "
         "over the limit of 30000000"),
    ],
    ids=["sweep", "unit-graph", "flat-front", "wide-front", "search", "state-cap",
         "dim-cap", "oracle-cap", "table-kept", "verify-kept", "verify-grid",
         "verify-plan", "unit-graph-wide", "verify-width", "square-chain",
         "square-chain-wide"],
)
def test_every_refusal_is_one_error_line(capsys, monkeypatch, argv, patch, line):
    # every cap and budget is worded by engine.charge and exits 2 through
    # cli.main's one handler, before the work it prices
    if patch:
        monkeypatch.setattr(*patch)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {line}\n")

@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--s", "2", "--n", "3", "--m", "5"],
        ["square", "--s", "2", "--size-max", "3"],
        ["gf", "--s", "2", "--n", "3"],
        ["verify"],
        ["cas", "--s", "2", "--n", "3"],
    ],
)
def test_state_and_dimension_caps_are_not_options(capsys, argv):
    # both are engine constants; --oracle-cap is the one limit option
    with pytest.raises(SystemExit) as exit_:
        main([argv[0], "--help"])
    assert exit_.value.code == 0
    assert "-cap" not in capsys.readouterr().out.replace("--oracle-cap", "")
    for flag in ("--state-cap", "--gf-cap"):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, flag, "3"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 3" in captured.err


def test_oracle_cap_default_is_the_engine_constant():
    assert cli.build_parser().parse_args(["verify"]).oracle_cap == 64


def test_square_paper_lines(capsys):
    code, out, _ = run(capsys, "square", "--s", "2", "--size-max", "3")
    assert code == 0
    assert out == (
        "2 1 1 : 1 : 1\n"
        "2 2 2 : 1 1 : 2\n"
        "2 3 3 : 1 4 : 5\n"
    )


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "gf.txt"
    code, out, _ = run(capsys, "gf", "--s", "2", "--n", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "(1) / (1 - z - 2*z^2*t)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--s", "2", "--n", "3", "--m", "5"],
        ["verify", "--s-max", "1", "--n-max", "2", "--m-max", "2",
         "--oracle-cap", "0"],
    ],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_out_is_opened_before_the_work(tmp_path, capsys, monkeypatch):
    def fail(**kwargs):
        raise AssertionError("verification ran before --out was opened")

    monkeypatch.setattr(cli, "run_verification", fail)
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "verify", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--s-max", "2", "--n-max", "4",
                       "--m-max", "4", "--oracle-cap", "16")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("[PASS] basic count identities:")
    assert lines[-1].endswith("all passed")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--s-max", "2", "--n-max", "3",
                       "--m-max", "3", "--oracle-cap", "0", "--format", "json")
    assert code == 0
    assert out.startswith('{\n  "passed": true,\n  "reports": [\n    {\n')
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["reports"]) == 5


def test_failed_verification_exits_1(capsys, monkeypatch):
    # 1 is kept for a failed check; usage errors and caps exit 2
    report = IdentityReport("rigged", [])
    report.add("one_is_two", {}, 1, 2)
    monkeypatch.setattr(cli, "run_verification", lambda **kwargs: [report])
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert out.endswith("\n1 enforced checks: FAILURES above\n")


def test_failing_check_is_rendered(capsys, monkeypatch):
    report = IdentityReport("demo", [])
    report.add("always_one", {"s": 2}, 1, 1)
    report.add("broken", {"s": 2, "n": 3}, (1, 2), (1, 3))
    report.add("side_note", {"s": 2}, True, False, informational=True)
    monkeypatch.setattr(cli, "run_verification", lambda **kwargs: [report])
    code, text, _ = run(capsys, "verify")
    assert code == 1
    assert text.splitlines()[0] == "[FAIL] demo: 2 checks"
    assert "FAIL broken [s=2 n=3]: expected (1, 2), got (1, 3)" in text
    assert "note side_note [s=2]: does not hold (informational)" in text


def test_report_json_shape(capsys, monkeypatch):
    report = IdentityReport("demo", [])
    report.add("x", {"s": 1}, (1, 2), (1, 2))
    monkeypatch.setattr(cli, "run_verification", lambda **kwargs: [report])
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)["reports"][0]
    assert payload["name"] == "demo"
    assert payload["passed"] is True
    assert payload["checks"][0] == {
        "identity": "x",
        "params": {"s": 1},
        "expected": [1, 2],
        "actual": [1, 2],
        "ok": True,
        "informational": False,
    }


# SHA-256 of verify's stdout, so that a change to either report format shows
VERIFY_DIGESTS = {
    (): "82542a2646d61bc44911c4e15e20c53b20f77e0eb68f26421ddbf3b93a2256b5",
    ("--format", "json"): "58bf1bf6bcabbfbd4ef3208461ed3f2d8811f579ec950ed1cbbb90996e088f7e",
    # the one grid of these with note lines
    ("--s-max", "1", "--m-max", "3"):
        "262b96e7a5d5b7babee20f05fa955c3210f180ea38c746539f42de90595b2f93",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_DIGESTS),
                         ids=lambda argv: " ".join(argv) or "default")
def test_verify_stdout_is_pinned(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[argv]


def _checks_sha256(checks):
    """sha256 of a report's sorted (identity, params) list, one JSON line per check."""
    lines = sorted(json.dumps([c["identity"], c["params"]], sort_keys=True) for c in checks)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "case",
    json.loads((ROOT / "tests" / "fixtures" / "verify_checks.json").read_text()),
    ids=lambda case: case["name"],
)
def test_verify_runs_the_pinned_checks(capsys, case):
    # a check dropped or mislabelled changes a count or a digest, even when
    # every remaining check still passes; "verify-wide" is the benchmark's argv
    code, out, _ = run(capsys, *case["argv"], "--format", "json")
    assert code == 0
    reports = [
        {
            "name": r["name"],
            "enforced": sum(not c["informational"] for c in r["checks"]),
            "checks_sha256": _checks_sha256(r["checks"]),
        }
        for r in json.loads(out)["reports"]
    ]
    assert reports == case["reports"]
    assert sum(r["enforced"] for r in reports) == case["enforced"]


def test_cas_emits_script_and_checks(capsys):
    code, out, err = run(capsys, "cas", "--s", "2", "--n", "2", "--check")
    assert code == 0
    assert out.startswith("eq_0 := x0 = 1 + z*x0 + z*x1;\n")
    assert out.endswith("print(normal(subs(sol, x0)));\n")
    assert "cas round-trip ok" in err


def test_cas_round_trip_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(gfun, "parse_cas_script", lambda script: ())
    code, out, err = run(capsys, "cas", "--s", "2", "--n", "2", "--check")
    assert code == 1
    assert out.startswith("eq_0 := ")
    assert err == "cas round-trip mismatch\n"


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "call, package_modules",
    [
        pytest.param("build_parser()", {"cli", "engine"}, id="parser"),
        pytest.param('main(["gf", "--s", "2", "--n", "3"])',
                     {"cli", "engine", "gfun", "poly"}, id="gf"),
        pytest.param('main(["table", "--s", "2", "--n", "3", "--m", "5", '
                     '"--format", "paper"])',
                     {"cli", "engine", "series"}, id="table"),
        pytest.param('main(["table", "--s", "2", "--n", "3", "--m-max", "4", '
                     '"--format", "csv"])',
                     {"cli", "engine", "series"}, id="table-csv"),
        pytest.param('main(["verify", "--s-max", "1", "--n-max", "2", "--m-max", "2"])',
                     {"cli", "engine", "identities", "oracle", "series"}, id="verify"),
    ],
)
def test_cli_loads_only_what_the_command_runs(call, package_modules):
    # every CLI process pays to load (and, without bytecode caches, to
    # compile) each module it imports; dataclasses pulls in inspect, ast,
    # dis and tokenize, json serves only its output format, and the csv
    # format is plain joined ints, which needs no csv module
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = (
        "import sys\n"
        "from sqtilings.cli import build_parser, main\n"
        f"{call}\n"
        "print(*sorted(sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert {m for m in loaded if m.startswith("sqtilings")} == {
        "sqtilings", *(f"sqtilings.{m}" for m in package_modules)
    }
    assert not loaded & {"dataclasses", "json", "csv"}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"
