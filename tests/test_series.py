import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqtilings.engine import enumerate_states, transitions
from sqtilings.series import (
    CountTable,
    _flat_entry_sweep,
    count_table,
    count_tables,
    paper_line,
    table_record,
    tables_to_csv,
)


def test_headline_board():
    table = count_table(2, 3, 5)
    assert table.counts == (1, 8, 12)
    assert table.row_sum == 21


@pytest.mark.parametrize(
    "s,n,m,expected",
    [
        (2, 2, 5, (1, 4, 3)),
        (2, 3, 3, (1, 4)),
        (2, 4, 4, (1, 9, 16, 8, 1)),
        (2, 4, 5, (1, 12, 37, 34, 9)),
        (3, 6, 6, (1, 16, 30, 12, 1)),
    ],
)
def test_known_tables(s, n, m, expected):
    assert count_table(s, n, m).counts == expected


def test_empty_and_tiny_boards():
    assert count_table(2, 3, 0).counts == (1,)
    assert count_table(2, 1, 7).counts == (1,)
    assert count_table(5, 4, 9).counts == (1,)
    with pytest.raises(ValueError):
        count_table(2, 3, -1)


def test_single_board_swept_along_shorter_side():
    # a 24 x 1 board runs on the 1-state width-1 graph, far under the cap
    table = count_table(2, 24, 1, state_cap=10)
    assert table.counts == (1,)
    assert (table.n, table.m) == (24, 1)


def test_single_board_matches_tables():
    # boards with m < n run on the width-m graph, the tables on width n
    for s in range(1, 5):
        for n in range(1, 9):
            tables = count_tables(s, n, 8)
            for m in range(1, 9):
                assert count_table(s, n, m) == tables[m], (s, n, m)


def test_counts_trimmed_to_max_achieved():
    # 3 x 3 with a 2 x 2 square: a second square never fits even though
    # the area bound allows k = 2
    table = count_table(2, 3, 3)
    assert table.counts[-1] != 0
    assert len(table.counts) == 2


def row_sums(s, n, m_max):
    return [t.row_sum for t in count_tables(s, n, m_max)]


def test_row_sums_match_tables():
    assert row_sums(2, 4, 8) == [count_table(2, 4, m).row_sum for m in range(9)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unit_squares_give_binomials(n):
    # s = 1 has binomial parallel edges (mult > 1 in the sweep)
    for m, table in enumerate(count_tables(1, n, 6)):
        assert table.counts == tuple(comb(n * m, k) for k in range(n * m + 1))


def _dict_sweep(edges, m_max):
    """Flat-front t-polynomials for m = 0 .. m_max over (dst, k, mult)
    edge lists, one dict entry per coefficient."""
    vec = [{} for _ in edges]
    vec[0] = {0: 1}
    series = [vec[0]]
    for _ in range(m_max):
        nxt_vec = [{} for _ in edges]
        for src, poly in enumerate(vec):
            for dst, k, mult in edges[src]:
                acc = nxt_vec[dst]
                for e, c in poly.items():
                    acc[e + k] = acc.get(e + k, 0) + c * mult
        vec = nxt_vec
        series.append(vec[0])
    return series


@pytest.mark.parametrize(
    "s,n,m_max",
    [(1, 4, 60), (2, 1, 40), (2, 8, 120), (3, 9, 100), (6, 14, 40), (2, 8, 0)],
)
def test_packed_sweep_matches_dict_sweep(s, n, m_max):
    # long enough for the packed slots to widen several times
    rows = _flat_entry_sweep(s, n, m_max, 1000)
    assert len(rows) == m_max + 1
    assert all(c > 0 for row in rows for c in row.values())
    assert rows == _dict_sweep(enumerate_states(s, n).edges, m_max)


def test_long_boards_match_closed_forms():
    for m, table in enumerate(count_tables(1, 3, 150)):
        assert table.counts == tuple(comb(3 * m, k) for k in range(3 * m + 1))
    # a 2 x m strip: the squares fill k disjoint windows of length 2
    for m, table in enumerate(count_tables(2, 2, 300)):
        assert table.counts == tuple(comb(m - k, k) for k in range(m // 2 + 1))


def _unlumped_flat_series(s, n, m_max, dim_cap):
    """Flat-front t-polynomials for m = 0 .. m_max, swept over the graph of
    all reachable fronts with no mirror lumping; None above dim_cap fronts."""
    start = (0,) * n
    index = {start: 0}
    states = [start]
    edges = []
    for h in states:  # grows while it is walked: a plain breadth-first search
        out = []
        for nxt, k in transitions(h, s):
            if nxt not in index:
                if len(states) == dim_cap:
                    return None
                index[nxt] = len(states)
                states.append(nxt)
            out.append((index[nxt], k, 1))
        edges.append(out)
    return _dict_sweep(edges, m_max)


def test_lumped_tables_match_unlumped_sweep():
    # the tables run on the mirror-lumped graph; this sweep does not
    systems = 0
    for s in range(2, 7):
        for n in range(1, 13):
            series = _unlumped_flat_series(s, n, 2 * n + 2, dim_cap=60)
            if series is None:
                continue
            tables = count_tables(s, n, 2 * n + 2)
            for poly, table in zip(series, tables, strict=True):
                counts = tuple(poly.get(k, 0) for k in range(max(poly) + 1))
                assert counts == table.counts, (s, n, table.m)
            systems += 1
    assert systems == 47


def test_fibonacci_row_sums():
    seq = row_sums(2, 2, 12)
    assert seq[0] == seq[1] == 1
    for m in range(2, 13):
        assert seq[m] == seq[m - 1] + seq[m - 2]


def test_jacobsthal_row_sums():
    seq = row_sums(2, 3, 12)
    assert seq == [(2 ** (m + 1) + (-1) ** m) // 3 for m in range(13)]
    assert seq[4] == 11


def test_lag_three_row_sums():
    seq = row_sums(3, 3, 12)
    assert seq[:9] == [1, 1, 1, 2, 3, 4, 6, 9, 13]


def test_single_lane_binomial_counts():
    for s in (2, 3, 4):
        for m in range(0, 3 * s + 1):
            counts = count_table(s, s, m).counts
            for k, c in enumerate(counts):
                assert c == comb(m - (s - 1) * k, k)


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=7),
)
def test_rotation_symmetry(s, n, m):
    if m == 0:
        return
    assert count_table(s, n, m).counts == count_table(s, m, n).counts


def test_square_boards():
    # the square boards that `square --size-max 4` prints
    tables = [count_table(2, i, i) for i in range(1, 5)]
    assert [t.m for t in tables] == [1, 2, 3, 4]
    assert tables[1].counts == (1, 1)
    assert tables[2].counts == (1, 4)
    assert tables[3].counts == (1, 9, 16, 8, 1)


def test_paper_line_format():
    assert paper_line(count_table(2, 3, 5)) == "2 3 5 : 1 8 12 : 21"
    assert paper_line(count_table(2, 2, 0)) == "2 2 0 : 1 : 1"


def test_csv_format():
    text = tables_to_csv([count_table(2, 3, 3)])
    assert text == "s,n,m,k,count\n2,3,3,0,1\n2,3,3,1,4\n"


def test_json_record():
    rec = table_record(count_table(2, 3, 5))
    assert rec == {"s": 2, "n": 3, "m": 5, "counts": [1, 8, 12], "row_sum": 21}
    json.dumps(rec)  # stays serializable


def test_count_table_is_value_object():
    a = count_table(2, 3, 5)
    b = CountTable(2, 3, 5, (1, 8, 12))
    assert a == b
    with pytest.raises(AttributeError):
        a.counts = ()
