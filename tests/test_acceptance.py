"""End-to-end acceptance checks for the whole package.

One test per criterion; each prints a single [PASS]/[FAIL] line (shown
with ``-rA`` or on failure) and enforces its runtime budget.  The
``stretch`` tier reproduces every remaining published closed form and is
excluded from default runs; select it with ``pytest -m stretch``.
"""

import time

import pytest

from sqtilings.engine import enumerate_states
from sqtilings.gfun import generating_function, parse_cas_script, emit_cas_script, series_expand
from sqtilings.identities import check_conjectures, run_verification
from sqtilings.oracle import brute_force_tables
from sqtilings.series import count_table

from conftest import FIXTURE_DIR

# generating functions reproduced in the default acceptance pass
CLOSED_FORM_CASES = [
    (2, 2), (2, 3), (2, 4), (2, 5), (3, 6), (3, 7), (4, 8), (5, 10), (6, 12),
]
ROW_SUM_CASES = [(2, 4), (3, 6), (4, 8), (5, 10), (6, 12)]
NARROW_CASES = [(3, 3), (3, 4), (3, 5), (4, 4)]

# the remaining published forms, longer but still exact; stretch tier
STRETCH_FULL = [(2, 6), (2, 7), (2, 8), (3, 8), (3, 9), (4, 9), (5, 11), (6, 13)]
STRETCH_T1 = [
    (2, 5), (2, 6), (2, 7), (2, 8), (3, 7), (3, 8), (3, 9), (4, 9), (5, 11), (6, 13),
]


def _verdict(line: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


def test_acceptance_1_headline_board_dual_route():
    t0 = time.perf_counter()
    via_transfer = count_table(2, 3, 5)
    via_oracle = brute_force_tables(2, 3, 5)[5]
    elapsed = time.perf_counter() - t0
    ok = (
        via_transfer.counts[2] == 12
        and via_oracle.counts[2] == 12
        and via_transfer.counts == via_oracle.counts
        and elapsed < 1.0
    )
    _verdict(
        f"criterion 1: 3x5 board with two 2x2 squares counted as 12 by both "
        f"routes in {elapsed:.3f}s (< 1s)",
        ok,
    )


def test_acceptance_2_closed_forms(load_gf_fixture):
    failures = []
    worst = 0.0
    for s, n in CLOSED_FORM_CASES:
        t0 = time.perf_counter()
        mine = generating_function(enumerate_states(s, n).edges, dim_cap=400)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        if not mine.equivalent(load_gf_fixture(f"s{s}_n{n}")) or elapsed > 30.0:
            failures.append((s, n, round(elapsed, 2)))
    _verdict(
        f"criterion 2: {len(CLOSED_FORM_CASES)} generating functions match "
        f"their fixtures, worst case {worst:.2f}s (<= 30s each); "
        f"failures: {failures or 'none'}",
        not failures,
    )


def test_acceptance_3_row_sum_forms(gf_of, load_gf_fixture):
    failures = [
        (s, n)
        for s, n in ROW_SUM_CASES
        if not gf_of(s, n).substitute_t(1).equivalent(load_gf_fixture(f"s{s}_n{n}_t1"))
    ]
    _verdict(
        f"criterion 3: t=1 specializations match the row-sum fixtures for "
        f"{len(ROW_SUM_CASES)} boards; failures: {failures or 'none'}",
        not failures,
    )


# the one criterion-4 system whose elimination takes seconds (dimension 49);
# it is checked in the stretch tier instead
SERIES_STRETCH_CASE = (2, 11)


def _series_mismatches(s, n, edges):
    rows = series_expand(generating_function(edges), 12)
    return [
        m for m in range(13) if tuple(rows[m].as_list()) != count_table(s, n, m).counts
    ]


def test_acceptance_4_series_equal_tables():
    failures = []
    systems = 0
    for s in range(1, 7):
        for n in range(1, 13):
            graph = enumerate_states(s, n)
            if graph.dim > 60 or (s, n) == SERIES_STRETCH_CASE:
                continue
            failures += [(s, n, m) for m in _series_mismatches(s, n, graph.edges)]
            systems += 1
    _verdict(
        f"criterion 4: series expansion equals count tables for m <= 12 on "
        f"{systems} systems (s <= 6, n <= 12, dimension <= 60, "
        f"s{SERIES_STRETCH_CASE[0]}n{SERIES_STRETCH_CASE[1]} in the stretch "
        f"tier); failures: {failures or 'none'}",
        not failures,
    )


def test_acceptance_5_oracle_equivalence():
    boards = [
        (s, n, m)
        for s in (1, 2, 3)
        for n in range(1, 7)
        for m in range(1, 7)
    ]
    boards += [(4, n, m) for n in range(1, 9) for m in range(1, 9)]
    t0 = time.perf_counter()
    failures = [
        (s, n, m)
        for s, n, m in boards
        if brute_force_tables(s, n, m)[m].counts != count_table(s, n, m).counts
    ]
    elapsed = time.perf_counter() - t0
    # the oracle scans every board as given, so on these it checks the
    # sweep that count_table runs along the shorter side
    turned = sum(1 for s, n, m in boards if m < n)
    ok = not failures and elapsed <= 120.0
    _verdict(
        f"criterion 5: exhaustive oracle agrees with the transfer matrix on "
        f"{len(boards)} boards ({turned} with m < n, swept turned) in "
        f"{elapsed:.1f}s (<= 120s); failures: {failures or 'none'}",
        ok,
    )


def test_acceptance_6_identity_suite():
    reports = run_verification(s_max=5, n_max=10, m_max=10, oracle_cell_cap=64)
    bad = [r.name for r in reports if not r.passed]
    checks = sum(r.enforced for r in reports)
    _verdict(
        f"criterion 6: identity suite (s <= 5, boards up to 10x10) passed "
        f"{checks} enforced checks; failing reports: {bad or 'none'}",
        not bad,
    )


def test_acceptance_7_conjectured_patterns():
    report = check_conjectures(
        near_square_s=(2, 3, 4), offset_square_s=(3, 4), oracle_cell_cap=64
    )
    _verdict(
        "criterion 7: conjectured count vectors hold on 4x5, 6x7, 8x9 and "
        "6x8, 8x10 boards"
        + ("" if report.passed else f"; failures: {report.failures}"),
        report.passed,
    )


def test_acceptance_8_cas_round_trip():
    failures = []
    cases = [(1, 3), (2, 2), (2, 4), (3, 6)]
    for s, n in cases:
        edges = enumerate_states(s, n).edges
        if parse_cas_script(emit_cas_script(edges)) != edges:
            failures.append((s, n))
    _verdict(
        f"criterion 8: script emission round-trips the transfer graph's edges "
        f"for {len(cases)} boards; failures: {failures or 'none'}",
        not failures,
    )


def test_every_fixture_file_is_exercised():
    names = {p.stem for p in FIXTURE_DIR.glob("*.txt")}
    covered = {
        f"s{s}_n{n}"
        for s, n in CLOSED_FORM_CASES + NARROW_CASES + STRETCH_FULL
    } | {f"s{s}_n{n}_t1" for s, n in ROW_SUM_CASES + STRETCH_T1}
    assert names == covered


def test_narrow_board_fixtures(gf_of, load_gf_fixture):
    for s, n in NARROW_CASES:
        assert gf_of(s, n).equivalent(load_gf_fixture(f"s{s}_n{n}"))


@pytest.mark.stretch
@pytest.mark.parametrize("s,n", STRETCH_FULL)
def test_stretch_closed_form(s, n, gf_of, load_gf_fixture):
    assert gf_of(s, n).equivalent(load_gf_fixture(f"s{s}_n{n}"))


@pytest.mark.stretch
@pytest.mark.parametrize("s,n", STRETCH_T1)
def test_stretch_row_sum_form(s, n, gf_of, load_gf_fixture):
    assert gf_of(s, n).substitute_t(1).equivalent(load_gf_fixture(f"s{s}_n{n}_t1"))


@pytest.mark.stretch
def test_stretch_series_equal_tables():
    s, n = SERIES_STRETCH_CASE
    assert _series_mismatches(s, n, enumerate_states(s, n).edges) == []
