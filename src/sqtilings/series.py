"""Exact per-board coefficient tables via transfer-operator iteration.

Iterating the weighted adjacency operator of the transfer graph m times on
the unit vector of the flat front and reading the flat-front entry gives
the polynomial in t whose t^k coefficient is the number of tilings of the
n x m board using exactly k large squares.  One sweep to length M reads off
that entry after every step, so :func:`count_tables` returns the tables of
all boards n x 0 .. n x M at the cost of the longest; :func:`count_table`
is one entry of it.  This path involves no rational-function
arithmetic at all, so it scales to long boards and independently
cross-checks the closed forms from :mod:`sqtilings.gfun`.

The sweep packs each state's polynomial into one int, coefficient k in
the k-th slot of B bits (Kronecker substitution), so an edge of weight
mult * t^k costs one shift-and-add: ``nxt[dst] += (x << k*B) * mult``.
Every count is positive, so no coefficient, nor any partial sum of one,
exceeds its polynomial's value at t = 1; a plain integer sweep at t = 1
over the same edges therefore bounds every slot.  Both run ``_step``: at
t = 1 with slot 0 and each source's edges merged into one k = 0 group,
packed with slot B and the edges grouped by k.  Ahead of each block of
``_BLOCK`` steps B is set to the t = 1 bound in whole bytes, and the packed
ints are repacked when B grows, so early steps do not carry the width
of the last.  The sweep hands back the packed flat-front entry of every
step: :func:`count_tables` unpacks each one, :func:`count_table` only
the last.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple

from .engine import DEFAULT_STATE_CAP, enumerate_states


class CountTable(namedtuple("CountTable", "s n m counts")):
    """Tiling counts of one n x m board, indexed by number of squares used.

    counts[k] is exact and arbitrary precision; trailing zero entries are
    trimmed, so the last entry is the largest k any tiling achieves (the
    area bound floor(n*m / s^2) is an upper limit, not always attained).
    """

    __slots__ = ()

    @property
    def row_sum(self) -> int:
        return sum(self.counts)


# Steps swept at one slot width, set ahead of them by the t = 1 sweep.
_BLOCK = 16


def _step(vec, groups, slot):
    """One transfer step of the packed vector over edges grouped by k."""
    nxt = [0] * len(vec)
    for src, x in enumerate(vec):
        if not x:
            continue
        for k, targets in groups[src]:
            y = x << (k * slot)
            for dst, mult in targets:
                nxt[dst] += y if mult == 1 else y * mult
    return nxt


def _packed_sweep(s, n, m_max, state_cap):
    """Yield the flat-front entry for m = 0 .. m_max as (packed int, slot bytes).

    See the module docstring for the packing.
    """
    if m_max < 0:
        raise ValueError("board length must be >= 0")
    graph = enumerate_states(s, n, state_cap)
    # packed edges grouped by k, so each source is shifted once per k;
    # t = 1 edges merged per destination into one k = 0 group
    by_k = []
    at_one = []
    for edges in graph.edges:
        groups: dict = {}
        merged: dict = {}
        for dst, k, mult in edges:
            groups.setdefault(k, []).append((dst, mult))
            merged[dst] = merged.get(dst, 0) + mult
        by_k.append(tuple(groups.items()))
        at_one.append(((0, tuple(merged.items())),))
    ones = [1] + [0] * (graph.dim - 1)  # each state's polynomial at t = 1
    vec = list(ones)  # each state's polynomial, packed
    width = 1  # bytes per slot
    yield 1, width
    for done in range(0, m_max, _BLOCK):
        steps = min(_BLOCK, m_max - done)
        # the t = 1 values over the block bound every slot it fills
        bits = 0
        for _ in range(steps):
            ones = _step(ones, at_one, 0)
            bits = max(bits, max(ones).bit_length())
        if bits > 8 * width:
            wider = -(-bits // 8)
            vec = [_widen(x, width, wider) for x in vec]
            width = wider
        for _ in range(steps):
            vec = _step(vec, by_k, 8 * width)
            yield vec[0], width


def _flat_entry_sweep(s, n, m_max, state_cap):
    """Flat-front t-polynomials (dict exponent -> coeff) for m = 0 .. m_max.

    Every coefficient is positive.
    """
    return [_unpack(x, width) for x, width in _packed_sweep(s, n, m_max, state_cap)]


def _slot_bytes(x: int, width: int) -> bytes:
    """x as little-endian slots of ``width`` bytes, the last one whole."""
    slots = -(-x.bit_length() // (8 * width))
    return x.to_bytes(slots * width, "little")


def _widen(x: int, width: int, wider: int) -> int:
    """Repack x from slots of ``width`` bytes into slots of ``wider`` bytes."""
    data = _slot_bytes(x, width)
    wide = bytearray(len(data) // width * wider)
    for j in range(width):
        wide[j::wider] = data[j::width]
    return int.from_bytes(wide, "little")


def _unpack(x: int, width: int) -> dict:
    """Exponent -> coefficient for the nonzero slots of a packed polynomial."""
    data = _slot_bytes(x, width)
    poly = {}
    for k, lo in enumerate(range(0, len(data), width)):
        c = int.from_bytes(data[lo:lo + width], "little")
        if c:
            poly[k] = c
    return poly


def _table(s: int, n: int, m: int, poly: dict) -> CountTable:
    """The n x m board's table from its flat-front t-polynomial."""
    top = max(poly)
    if top > (n * m) // (s * s):
        raise RuntimeError(
            f"{n} x {m} board: {top} squares of side {s} exceed the area bound"
        )
    # poly holds only positive counts, so this ends on a nonzero entry
    return CountTable(s, n, m, tuple(poly.get(k, 0) for k in range(top + 1)))


def count_tables(
    s: int, n: int, m_max: int, state_cap: int = DEFAULT_STATE_CAP
) -> list:
    """Count tables of the n x m boards for m = 0 .. m_max, from one sweep.

    m = 0 is the empty board with its single empty tiling.
    """
    return [
        _table(s, n, m, poly)
        for m, poly in enumerate(_flat_entry_sweep(s, n, m_max, state_cap))
    ]


def count_table(
    s: int, n: int, m: int, state_cap: int = DEFAULT_STATE_CAP
) -> CountTable:
    """Exact counts for the n x m board, all square counts k at once.

    n x m and m x n tilings coincide, so a board with 0 < m < n is swept
    along its shorter side, on the width-m graph for n rows; the table
    keeps the given orientation.  The sweep passes every shorter board;
    only the last entry is unpacked.
    """
    across, along = (m, n) if 0 < m < n else (n, m)
    for x, width in _packed_sweep(s, across, along, state_cap):
        pass
    return _table(s, n, m, _unpack(x, width))


# ---------------------------------------------------------------------------
# output formats


def paper_line(table: CountTable) -> str:
    """One table as ``S N M : c0 c1 ... cK : ROWSUM`` (single spaces)."""
    counts = " ".join(str(c) for c in table.counts)
    return f"{table.s} {table.n} {table.m} : {counts} : {table.row_sum}"


def tables_to_csv(tables) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["s", "n", "m", "k", "count"])
    for table in tables:
        for k, c in enumerate(table.counts):
            writer.writerow([table.s, table.n, table.m, k, c])
    return buf.getvalue()


def table_record(table: CountTable) -> dict:
    """JSON-ready record for one table."""
    return {
        "s": table.s,
        "n": table.n,
        "m": table.m,
        "counts": list(table.counts),
        "row_sum": table.row_sum,
    }
