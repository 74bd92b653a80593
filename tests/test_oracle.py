import sys
from math import comb

import pytest

from sqtilings.oracle import BoardTooLarge, brute_force_counts
from sqtilings.series import CountTable, count_tables


def test_headline_board():
    # whole tables: the scan runs along the shorter side, but n and m are kept
    assert brute_force_counts(2, 3, 5) == CountTable(2, 3, 5, (1, 8, 12))
    assert brute_force_counts(2, 5, 3) == CountTable(2, 5, 3, (1, 8, 12))


def test_known_counts():
    assert brute_force_counts(2, 4, 5).counts == (1, 12, 37, 34, 9)
    assert brute_force_counts(3, 6, 6).counts == (1, 16, 30, 12, 1)


def test_unit_squares_are_binomials():
    for n, m in [(1, 5), (3, 4), (6, 6)]:
        counts = brute_force_counts(1, n, m).counts
        assert counts == tuple(comb(n * m, k) for k in range(n * m + 1))


def test_rotation():
    assert brute_force_counts(2, 3, 6).counts == brute_force_counts(2, 6, 3).counts


def test_empty_length():
    assert brute_force_counts(2, 4, 0).counts == (1,)


def test_cell_cap():
    with pytest.raises(BoardTooLarge) as err:
        brute_force_counts(2, 9, 8)
    assert err.value.cells == 72
    assert err.value.cap == 64
    # raising the cap admits the same board
    assert brute_force_counts(2, 9, 8, cell_cap=72).counts[0] == 1


def test_long_board_keeps_recursion_limit():
    limit = sys.getrecursionlimit()
    assert brute_force_counts(2, 1, 3000, cell_cap=3000).counts == (1,)
    assert sys.getrecursionlimit() == limit


def test_long_thin_board():
    assert brute_force_counts(2, 4, 400, cell_cap=1600) == count_tables(2, 4, 400)[400]


def test_agrees_with_transfer_matrix():
    # every board with s <= 6 and both sides <= 8: n < m and n > m, and the
    # footprints of s = 5 and 6 that are wider than some boards
    for s in range(1, 7):
        for n in range(1, 9):
            tables = count_tables(s, n, 8)
            for m in range(9):
                assert brute_force_counts(s, n, m) == tables[m]
