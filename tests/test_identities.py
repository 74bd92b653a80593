import json

from sqtilings import identities, series
from sqtilings.identities import (
    CheckResult,
    IdentityReport,
    check_basic,
    check_conjectures,
    check_single_lane,
    check_subwidth,
    check_two_s_square,
    run_verification,
)


def test_basic_identities_pass():
    report = check_basic(s_max=3, n_max=6, m_max=6, oracle_cell_cap=30)
    assert report.passed
    assert report.failures == []
    names = {c.identity for c in report.checks}
    assert names == {
        "zero_squares",
        "one_square",
        "monomers_only",
        "unique_full_packing",
        "jacobsthal_row_sum",
        "rotation_symmetry",
        "oracle_agreement",
    }


def test_basic_reads_oracle_once_per_width(monkeypatch):
    calls = []
    tables = identities.brute_force_tables

    def counting_tables(s, n, m_max, cell_cap):
        calls.append((s, n))
        return tables(s, n, m_max, cell_cap)

    monkeypatch.setattr(identities, "brute_force_tables", counting_tables)
    report = check_basic(s_max=3, n_max=6, m_max=6, oracle_cell_cap=30)
    boards = {
        (c.params["s"], c.params["n"], c.params["m"])
        for c in report.checks
        if c.identity == "oracle_agreement"
    }
    assert boards == {
        (s, n, m)
        for s in range(1, 4)
        for n in range(1, 7)
        for m in range(n, 7)
        if n * m <= 30
    }
    assert sorted(calls) == sorted({(s, n) for s, n, _ in boards})
    assert len(calls) == len(set(calls))


def test_single_lane_report():
    report = check_single_lane(s_max=4, m_max=12)
    assert report.passed
    lag3 = {
        c.params["s"]: c.ok
        for c in report.checks
        if c.identity == "single_lane_lag_3_recurrence"
    }
    assert lag3 == {1: False, 2: False, 3: True, 4: False}
    # the lag-3 notes must not drag the report down
    assert all(c.informational for c in report.checks if not c.ok)


def test_subwidth_and_two_s_square_pass():
    assert check_subwidth(s_max=4, n_max=8, m_max=8).passed
    assert check_two_s_square(s_max=5).passed


def test_conjecture_instances():
    report = check_conjectures(oracle_cell_cap=48)
    assert report.passed
    params = {
        (c.params["s"], c.params["n"], c.params["m"])
        for c in report.checks
        if c.identity in ("near_square_counts", "offset_square_counts")
    }
    assert params == {(2, 4, 5), (3, 6, 7), (4, 8, 9), (3, 6, 8), (4, 8, 10)}
    crosses = [c for c in report.checks if c.identity == "oracle_agreement"]
    assert {(c.params["n"], c.params["m"]) for c in crosses} == {(4, 5), (6, 7), (6, 8)}


def test_conjectures_skip_degenerate_sizes():
    report = check_conjectures(near_square_s=(1, 2), offset_square_s=(2, 3))
    sizes = {(c.params["s"], c.identity) for c in report.checks}
    assert (1, "near_square_counts") not in sizes
    assert (2, "offset_square_counts") not in sizes


def test_failing_check_is_reported():
    report = IdentityReport("demo")
    report.add("always_one", {"s": 2}, 1, 1)
    report.add("broken", {"s": 2, "n": 3}, (1, 2), (1, 3))
    report.add("side_note", {"s": 2}, True, False, informational=True)
    assert not report.passed
    assert report.enforced == 2  # the informational check is not counted
    assert len(report.failures) == 1
    assert report.failures[0].identity == "broken"
    text = report.render_text()
    assert text.splitlines()[0] == "[FAIL] demo: 2 checks"
    assert "FAIL broken [s=2 n=3]: expected (1, 2), got (1, 3)" in text
    assert "note side_note [s=2]: does not hold (informational)" in text


def test_report_json_shape():
    report = IdentityReport("demo")
    report.add("x", {"s": 1}, (1, 2), (1, 2))
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["passed"] is True
    assert payload["checks"][0] == {
        "identity": "x",
        "params": {"s": 1},
        "expected": [1, 2],
        "actual": [1, 2],
        "ok": True,
        "informational": False,
    }


def test_check_result_is_frozen():
    c = CheckResult("x", {}, 1, 1, True)
    try:
        c.ok = False
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("CheckResult should be immutable")


def test_run_verification_bundle():
    reports = run_verification(s_max=2, n_max=4, m_max=4, oracle_cell_cap=16)
    assert len(reports) == 5
    assert all(r.passed for r in reports)


def test_run_verification_sweeps_each_system_once(monkeypatch):
    swept = []
    sweep = series._flat_entry_sweep

    def counting_sweep(s, n, m_max, state_cap):
        swept.append((s, n))
        return sweep(s, n, m_max, state_cap)

    monkeypatch.setattr(series, "_flat_entry_sweep", counting_sweep)
    assert all(r.passed for r in run_verification())
    # s = 1..5 by n = 1..10; every later check reads boards check_basic swept
    assert len(set(swept)) == 50
    assert len(swept) == 50
