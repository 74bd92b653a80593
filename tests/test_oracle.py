import ast
import sys
from math import comb
from pathlib import Path

import pytest

from sqtilings import oracle
from sqtilings.engine import CapExceeded
from sqtilings.oracle import brute_force_tables
from sqtilings.series import CountTable, count_tables


def test_headline_board():
    # whole tables: each orientation is scanned as given, n and m are kept
    assert brute_force_tables(2, 3, 5)[5] == CountTable(2, 3, 5, (1, 8, 12))
    assert brute_force_tables(2, 5, 3)[3] == CountTable(2, 5, 3, (1, 8, 12))


def test_known_counts():
    assert brute_force_tables(2, 4, 5)[5].counts == (1, 12, 37, 34, 9)
    assert brute_force_tables(3, 6, 6)[6].counts == (1, 16, 30, 12, 1)


def test_unit_squares_are_binomials():
    for n, m in [(1, 5), (3, 4), (6, 6)]:
        counts = brute_force_tables(1, n, m)[m].counts
        assert counts == tuple(comb(n * m, k) for k in range(n * m + 1))


def test_rotation():
    # the oracle never turns a board, so n x m and m x n are two scans
    for s in range(1, 5):
        for n in range(1, 6):
            wide = brute_force_tables(s, n, 6)
            for m in range(n + 1, 7):
                assert wide[m].counts == brute_force_tables(s, m, n)[n].counts


def test_empty_length():
    # the pass yields the empty board before its first row
    assert brute_force_tables(2, 4, 5)[0].counts == (1,)


def test_negative_length_is_rejected():
    # length 0 is a board, so the message names the length, not the sides
    for route in (brute_force_tables, count_tables):
        with pytest.raises(ValueError, match="board length must be >= 0"):
            route(2, 3, -1)
    with pytest.raises(ValueError, match="square size and width must be positive"):
        brute_force_tables(2, 0, 3)


def test_cell_cap():
    with pytest.raises(CapExceeded) as err:
        brute_force_tables(2, 9, 8)
    assert err.value.need == 72
    assert err.value.cap == 64
    # raising the cap admits the same board
    assert brute_force_tables(2, 9, 8, cell_cap=72)[8].counts[0] == 1


def test_table_rejects_a_slot_past_the_area_bound():
    # a 2 x 2 board holds at most one square of side 2: slots k = 0 and 1
    assert oracle._table(2, 2, 2, 1 | 1 << 8, 1) == CountTable(2, 2, 2, (1, 1))
    with pytest.raises(RuntimeError, match="2 squares of side 2 exceed the area bound"):
        oracle._table(2, 2, 2, 1 | 1 << 8 | 1 << 16, 1)


def test_long_board_keeps_recursion_limit():
    limit = sys.getrecursionlimit()
    assert brute_force_tables(2, 1, 3000, cell_cap=3000)[3000].counts == (1,)
    assert sys.getrecursionlimit() == limit


def test_long_thin_board():
    assert brute_force_tables(2, 4, 400, cell_cap=1600) == count_tables(2, 4, 400)


def test_agrees_with_transfer_matrix():
    # every board with s <= 6 and both sides <= 8, each as the last table of
    # its own pass: n < m and n > m, and the footprints of s = 5 and 6 that
    # are wider than some boards
    for s in range(1, 7):
        for n in range(1, 9):
            tables = count_tables(s, n, 8)
            for m in range(9):
                assert brute_force_tables(s, n, m)[m] == tables[m]


def test_tables_agree_with_transfer_matrix():
    # the pass over 8 rows reads the shorter boards at boundaries that
    # squares anchored higher up may straddle
    for s in range(1, 7):
        for n in range(1, 9):
            assert brute_force_tables(s, n, 8) == count_tables(s, n, 8)


def test_tables_empty_length():
    assert brute_force_tables(2, 4, 0) == [CountTable(2, 4, 0, (1,))]


def test_tables_cell_cap_charges_longest_board():
    with pytest.raises(CapExceeded) as err:
        brute_force_tables(2, 5, 13)
    assert err.value.need == 65
    assert err.value.cap == 64
    assert len(brute_force_tables(2, 5, 13, cell_cap=65)) == 14


def test_oracle_imports_no_counting_code():
    # a second route: nothing from the transfer graph or the GF solver, only
    # the cap and the function that charges it from engine and the table
    # type from series
    tree = ast.parse(Path(oracle.__file__).read_text())
    package = [
        (node.level, node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.startswith("sqtilings"))
    ]
    assert package == [
        (1, "engine", ["DEFAULT_CELL_CAP", "charge"]),
        (1, "series", ["CountTable"]),
    ]
    assert not any(
        alias.name.startswith("sqtilings")
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    )
