from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqtilings import engine
from sqtilings.engine import (
    SWEEP_BUDGET,
    TABLE_BUDGET,
    CapExceeded,
    _sweep_bits,
    _sweep_words,
    enumerate_states,
    transitions,
)
from sqtilings.series import (
    CountTable,
    _flat_entry_sweep,
    _packed_sweep,
    _slot_sum,
    count_table,
    count_tables,
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


def test_single_board_swept_along_shorter_side(monkeypatch):
    # a 24 x 1 board runs on the 1-state width-1 graph, far under the cap
    monkeypatch.setattr(engine, "STATE_CAP", 10)
    table = count_table(2, 24, 1)
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
    rows = _flat_entry_sweep(s, n, m_max)
    assert len(rows) == m_max + 1
    assert all(c > 0 for row in rows for c in row.values())
    assert rows == _dict_sweep(enumerate_states(s, n).edges, m_max)


@pytest.mark.parametrize(
    "s,n,m_max,widths",
    [(2, 8, 60, [1, 8, 14, 21, 25]), (3, 9, 80, [1, 7, 10, 14, 18, 22]), (2, 1, 40, [1])],
)
def test_sweep_slots_bound_the_t1_growth(s, n, m_max, widths):
    # ahead of each block of 16 steps, the slots widen to the bytes of the
    # largest t = 1 value at the block start times rho^steps, rho the
    # largest summed multiplicity into a state, and a slot never narrows
    edges = enumerate_states(s, n).edges
    into = Counter()
    for lst in edges:
        for dst, _, mult in lst:
            into[dst] += mult
    rho = max(into.values())
    ones = [1] + [0] * (len(edges) - 1)  # each state's polynomial at t = 1
    expected = [1]
    for start in range(0, m_max, 16):
        steps = min(16, m_max - start)
        bits = (max(ones) * rho**steps).bit_length()
        expected += [max(expected[-1], -(-bits // 8))] * steps
        for _ in range(steps):
            nxt = [0] * len(edges)
            for src, lst in enumerate(edges):
                for dst, _, mult in lst:
                    nxt[dst] += ones[src] * mult
            ones = nxt
    got = [width for _, width in _packed_sweep(s, n, m_max)]
    assert got == expected
    assert sorted(set(got)) == widths
    # engine._sweep_bits prices step j at j * b + 1 bits, b = ceil(log2 rho);
    # a block's slots are set for its last step, so they fit that step's price
    b = (rho - 1).bit_length()
    for j, width in enumerate(got):
        last = min(-(-j // 16) * 16, m_max)
        assert width <= -(-(last * b + 1) // 8), j


@given(st.integers(1, 8), st.lists(st.integers(0, 2**64), max_size=40))
def test_slot_sum_is_the_sum_of_the_slots(width, coeffs):
    # exact whenever the sum fits one slot, as at every block start
    slot = 8 * width
    coeffs = [c % (1 << slot) // 40 for c in coeffs]
    x = sum(c << (k * slot) for k, c in enumerate(coeffs))
    assert _slot_sum(x, slot) == sum(coeffs)


def test_long_boards_match_closed_forms():
    for m, table in enumerate(count_tables(1, 3, 150)):
        assert table.counts == tuple(comb(3 * m, k) for k in range(3 * m + 1))
    # a 2 x m strip: the squares fill k disjoint windows of length 2
    for m, table in enumerate(count_tables(2, 2, 300)):
        assert table.counts == tuple(comb(m - k, k) for k in range(m // 2 + 1))


def _unlumped_flat_series(s, n, m_max, dim_cap):
    """Flat-front t-polynomials for m = 0 .. m_max, swept over the graph of
    all reachable fronts with no mirror lumping; None above dim_cap fronts."""
    start = "\0" * n  # a front as the front search holds it
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


def test_count_table_is_value_object():
    a = count_table(2, 3, 5)
    b = CountTable(2, 3, 5, (1, 8, 12))
    assert a == b
    with pytest.raises(AttributeError):
        a.counts = ()


def test_count_table_refuses_counts_past_the_area_bound():
    # a 2 x 2 board holds at most one square of side 2
    with pytest.raises(RuntimeError, match="2 squares of side 2 exceed the area bound"):
        CountTable(2, 2, 2, (1, 1, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: CountTable(2, 2, 2, (1, 1))._replace(counts=(1, 1, 1)),
        lambda: CountTable._make((2, 2, 2, (1, 1, 1))),
    ],
)
def test_count_table_rebuilt_from_fields_keeps_the_area_bound(build):
    # namedtuple's _make, which _replace calls, would build past __new__
    with pytest.raises(RuntimeError, match="2 squares of side 2 exceed the area bound"):
        build()
    assert CountTable(2, 2, 2, (1, 1))._replace(m=3) == CountTable(2, 2, 3, (1, 1))


def sweep_words(s, n, steps):
    graph = enumerate_states(s, n)
    into = [0] * graph.dim
    for edges in graph.edges:
        for dst, _, mult in edges:
            into[dst] += mult
    return _sweep_words(s, n, steps, sum(map(len, graph.edges)), max(into))


def test_sweep_estimate_calibration():
    # on a 2-core VM table --s 2 --n 8 --m 400 takes about 1.2 s and
    # --m 1000 about 18 s: the estimate grows with the cube of the length
    # and admits both
    assert sweep_words(2, 8, 400) == 212_083_400
    assert sweep_words(2, 8, 1000) == 3_300_392_875 < SWEEP_BUDGET
    assert sweep_words(3, 9, 80) == 531_342
    # every edge costs a word on every step, even on a one-state graph
    assert _sweep_words(3, 1, 10**11, 1, 1) >= 10**11
    # count_tables(1, 2, 1000) keeps 9.6e8 bits (238 MiB peak on a 2-core VM);
    # its graph has one state with summed multiplicity 4 into it
    assert _sweep_bits(1, 2, 1000, 4) == 1_337_337_000 < TABLE_BUDGET


def test_sweep_budget_admits_its_own_estimate(monkeypatch):
    need = sweep_words(2, 3, 5)
    monkeypatch.setattr(engine, "SWEEP_BUDGET", need)
    assert count_table(2, 3, 5).counts == (1, 8, 12)
    monkeypatch.setattr(engine, "SWEEP_BUDGET", need - 1)
    with pytest.raises(CapExceeded) as err:
        count_table(2, 3, 5)
    assert (err.value.need, err.value.cap) == (need, need - 1)


def test_table_budget_charges_only_kept_tables(monkeypatch):
    monkeypatch.setattr(engine, "TABLE_BUDGET", 0)
    with pytest.raises(CapExceeded) as err:
        count_tables(2, 3, 5)
    assert (err.value.need, err.value.cap) == (72, 0)
    # one board keeps no table but its last
    assert count_table(2, 3, 5).counts == (1, 8, 12)
    monkeypatch.setattr(engine, "TABLE_BUDGET", 72)
    assert count_tables(2, 3, 5)[5].counts == (1, 8, 12)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: count_table(2, 3, 99999999999),
        lambda: count_table(3, 99999999999, 1),  # swept along its width-1 side
        lambda: count_tables(2, 1, 10**11),
    ],
)
def test_sweep_budget_refuses_before_the_first_step(monkeypatch, sweep):
    # every case runs on a graph of at most 2 states
    monkeypatch.setattr(engine, "STATE_CAP", 3)
    with pytest.raises(CapExceeded) as err:
        sweep()
    assert err.value.cap == SWEEP_BUDGET
    assert err.value.need > SWEEP_BUDGET
    assert str(err.value).endswith(f", over the limit of {SWEEP_BUDGET}")


@pytest.mark.parametrize(
    "build",
    [
        lambda: count_tables(1, 100000, 1),
        lambda: count_table(1, 100000, 100000),
        lambda: enumerate_states(1, 100000),
    ],
)
def test_unit_square_sweep_budget_refuses_before_enumeration(monkeypatch, build):
    # the s = 1 graph is charged one sweep step before its binomials are
    # built, which alone would take about 0.9 GB; they are built by
    # accumulate, so the graph is refused before any of them exists
    def accumulate(*args, **kwargs):
        raise AssertionError("built the binomials of a graph past the sweep budget")

    monkeypatch.setattr(engine, "accumulate", accumulate)
    with pytest.raises(CapExceeded) as err:
        build()
    assert err.value.need > SWEEP_BUDGET
    assert str(err.value).endswith(f", over the limit of {SWEEP_BUDGET}")


def test_unit_square_graph_is_admitted_to_width_8600():
    # one sweep step over n + 1 edges, about n^3 / 64 words
    assert enumerate_states(1, 8600).edges[0][-1] == (0, 8600, 1)
    with pytest.raises(CapExceeded) as err:
        enumerate_states(1, 8700)
    assert err.value.need == 10_292_665_229
