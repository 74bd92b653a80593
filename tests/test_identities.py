from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqtilings import engine, identities, series
from sqtilings.engine import CapExceeded, enumerate_states
from sqtilings.identities import (
    CheckResult,
    IdentityReport,
    _check_basic,
    _check_conjectures,
    _check_single_lane,
    _check_subwidth,
    _check_two_s_square,
    _plan,
    run_verification,
)
from sqtilings.oracle import brute_force_tables
from sqtilings.series import count_tables

from conftest import planned_sources


def test_basic_identities_pass():
    tables, brute = planned_sources(3, 6, 6, 30)
    report = _check_basic(3, 6, 6, tables, 30, brute)
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


def test_basic_reads_oracle_once_per_width():
    tables, brute = planned_sources(3, 6, 6, 30)
    report = _check_basic(3, 6, 6, tables, 30, brute)
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
    # one pass per width, to its longest board; the conjectures' 6 x 7 and
    # 6 x 8 boards are past 30 cells and add none
    assert _plan(3, 6, 6, 30)[1] == {
        (s, n): max(m for t, w, m in boards if (t, w) == (s, n)) for s, n, _ in boards
    }


def test_basic_oracle_widths_stop_at_n_max():
    # boards of width n_max + 1 fit the cell cap here, but are not in the
    # grid; the conjectures' 4 x 5 board puts a pass of width 4 in the plan
    tables, brute = planned_sources(2, 3, 8, 24)
    assert (2, 4) in brute
    report = _check_basic(2, 3, 8, tables, 24, brute)
    assert report.passed
    widths = {c.params["n"] for c in report.checks if c.identity == "oracle_agreement"}
    assert widths == {1, 2, 3}


def test_single_lane_report():
    report = _check_single_lane(4, 12, planned_sources(4, 1, 12, 0)[0])
    assert report.passed
    lag3 = {
        c.params["s"]: c.ok
        for c in report.checks
        if c.identity == "single_lane_lag_3_recurrence"
    }
    assert lag3 == {1: False, 2: False, 3: True, 4: False}
    # the lag-3 notes must not drag the report down
    assert all(c.informational for c in report.checks if not c.ok)


def test_single_lane_lag_3_note_from_length_3():
    # as in `verify --s-max 1 --m-max 3`: 3 is the shortest length with a lag-3 term
    def notes(m_max):
        report = _check_single_lane(1, m_max, planned_sources(1, 1, m_max, 0)[0])
        return [c for c in report.checks if c.identity == "single_lane_lag_3_recurrence"]

    assert len(notes(3)) == 1
    assert notes(3)[0].informational
    assert notes(2) == []


def test_subwidth_and_two_s_square_pass():
    assert _check_subwidth(4, 8, 8, planned_sources(4, 8, 8, 0)[0]).passed
    assert _check_two_s_square(5, planned_sources(5, 1, 0, 0)[0]).passed


def test_conjecture_instances():
    tables, brute = planned_sources(1, 1, 0, 48)
    report = _check_conjectures(tables, 48, brute)
    assert report.passed
    params = {
        (c.params["s"], c.params["n"], c.params["m"])
        for c in report.checks
        if c.identity in ("near_square_counts", "offset_square_counts")
    }
    assert params == {(2, 4, 5), (3, 6, 7), (4, 8, 9), (3, 6, 8), (4, 8, 10)}
    crosses = [c for c in report.checks if c.identity == "oracle_agreement"]
    assert {(c.params["n"], c.params["m"]) for c in crosses} == {(4, 5), (6, 7), (6, 8)}


def test_failing_check_is_reported():
    report = IdentityReport("demo", [])
    report.add("always_one", {"s": 2}, 1, 1)
    report.add("broken", {"s": 2, "n": 3}, (1, 2), (1, 3))
    report.add("side_note", {"s": 2}, True, False, informational=True)
    assert not report.passed
    assert report.enforced == 2  # the informational check is not counted
    assert len(report.failures) == 1
    assert report.failures[0].identity == "broken"


def test_check_result_is_frozen():
    c = CheckResult("x", {}, 1, 1, True)
    try:
        c.ok = False
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("CheckResult should be immutable")


def test_run_verification_bundle():
    reports = run_verification(2, 4, 4, 16)
    assert len(reports) == 5
    assert all(r.passed for r in reports)


def test_oracle_cap_zero_never_calls_the_oracle(monkeypatch):
    def no_oracle(*args):
        raise AssertionError(f"oracle called with {args}")

    monkeypatch.setattr(identities, "brute_force_tables", no_oracle)
    reports = run_verification(2, 4, 4, 0)
    assert all(r.passed for r in reports)
    assert not any(
        c.identity == "oracle_agreement" for r in reports for c in r.checks
    )


def test_run_verification_makes_one_oracle_pass_per_system(monkeypatch):
    calls = []
    tables = identities.brute_force_tables

    def counting_tables(s, n, m_max, cell_cap):
        calls.append((s, n))
        return tables(s, n, m_max, cell_cap)

    monkeypatch.setattr(identities, "brute_force_tables", counting_tables)
    reports = run_verification(5, 10, 10, 64)  # the default `verify` grid
    assert sum(r.enforced for r in reports) == 2216
    # _check_conjectures' boards 4 x 5, 6 x 7 and 6 x 8 reuse _check_basic's passes
    assert {(2, 4), (3, 6)} <= set(calls)
    assert len(calls) == len(set(calls))
    # 3 widths for each s, and one pass of width 6 for both 6 x 7 and 6 x 8,
    # which lie past the grid's widths
    calls.clear()
    run_verification(12, 4, 3, 64)
    assert len(calls) == len(set(calls)) == 38


def test_run_verification_sweeps_each_system_once(monkeypatch):
    swept = []
    sweep = series._flat_entry_sweep

    def counting_sweep(s, n, m_max):
        swept.append((s, n))
        return sweep(s, n, m_max)

    monkeypatch.setattr(series, "_flat_entry_sweep", counting_sweep)
    assert all(r.passed for r in run_verification(5, 10, 10, 0))
    # s = 1..5 by n = 1..10; every later check reads boards _check_basic swept
    assert len(set(swept)) == 50
    assert len(swept) == 50
    # here the single-lane and 2s x 2s boards run past the grid's lengths
    # and widths, and each of their systems is still swept once
    for grid, systems in [((8, 10, 10, 64), 83), ((12, 4, 3, 64), 66)]:
        swept.clear()
        assert all(r.passed for r in run_verification(*grid))
        assert len(swept) == len(set(swept)) == systems


class _Reads:
    """One (s, n)'s tables, noting the longest m read from them."""

    def __init__(self, tables, key, longest):
        self.tables, self.key, self.longest = tables, key, longest

    def __getitem__(self, m):
        self.longest[self.key] = max(m, self.longest.get(self.key, m))
        return self.tables[m]


class _OnDemand(dict):
    """(s, n) -> :class:`_Reads`, run on the first lookup of each (s, n)."""

    def __init__(self, run):
        super().__init__()
        self.run, self.longest = run, {}

    def __missing__(self, key):
        self[key] = _Reads(self.run(*key), key, self.longest)
        return self[key]


# s_max, n_max, m_max, oracle_cell_cap
_grids = st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(0, 8),
                   st.sampled_from([0, 16, 40]))


@settings(deadline=None, max_examples=25)
@given(_grids)
def test_plan_is_what_the_checks_read(grid):
    # sources that sweep every (s, n) asked for to length 12, past every
    # planned board, and pass each width as far as the cell cap allows
    s_max, n_max, m_max, cap = grid
    tables = _OnDemand(lambda s, n: count_tables(s, n, 12))
    brute = _OnDemand(lambda s, n: brute_force_tables(s, n, cap // n, cap))
    reports = [
        _check_basic(s_max, n_max, m_max, tables, cap, brute),
        _check_single_lane(s_max, max(m_max, 2 * s_max), tables),
        _check_subwidth(s_max, n_max, m_max, tables),
        _check_two_s_square(s_max, tables),
        _check_conjectures(tables, cap, brute),
    ]
    assert (tables.longest, brute.longest) == _plan(*grid)
    assert reports == run_verification(*grid)


@settings(deadline=None, max_examples=25)
@given(_grids)
def test_grid_charge_is_under_the_planned_classes(grid):
    # each planned graph's search stores at least as many advance classes
    # as the graph has states
    with mock.patch.object(engine, "STATE_CAP", -1):
        with pytest.raises(CapExceeded) as refused:
            run_verification(*grid)
    assert "verify grid" in str(refused.value)
    assert refused.value.need <= sum(enumerate_states(*sn).dim for sn in _plan(*grid)[0])
