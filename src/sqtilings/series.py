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
Every count is positive, so no coefficient, nor any partial sum of them,
exceeds its polynomial's value at t = 1, and while that value fits a slot
it is the sum of the slots.  One step multiplies the largest t = 1 value
by at most rho, the largest summed multiplicity into a state.  So ahead
of each block of ``_BLOCK`` steps B is set to the bits of the largest
t = 1 value, read from the slots, times rho^steps, in whole bytes; the
packed ints are repacked when B grows, so early steps do not carry the
width of the last, and no t = 1 sweep runs beside the packed one.  The
sweep hands back the packed flat-front entry of every step:
:func:`count_tables` unpacks each one, :func:`count_table` only the last.
"""

from __future__ import annotations

from collections import namedtuple

from . import engine
from .engine import enumerate_states


class CountTable(namedtuple("CountTable", "s n m counts")):
    """Tiling counts of one n x m board, indexed by number of squares used.

    counts[k] is exact and arbitrary precision; trailing zero entries are
    trimmed, so the last entry is the largest k any tiling achieves.  The
    area bound floor(n*m / s^2) is an upper limit, not always attained; a
    table with an entry past it is refused with RuntimeError.
    """

    __slots__ = ()

    def __new__(cls, s, n, m, counts):
        if len(counts) > n * m // (s * s) + 1:
            raise RuntimeError(f"{n} x {m} board: {len(counts) - 1} squares "
                               f"of side {s} exceed the area bound")
        return super().__new__(cls, s, n, m, counts)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip __new__
        return cls(*iterable)

    @property
    def row_sum(self) -> int:
        return sum(self.counts)


# Steps swept at one slot width, set ahead of them from the t = 1 values.
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


def _packed_sweep(s, n, m_max, kept=False):
    """Yield the flat-front entry for m = 0 .. m_max as (packed int, slot bytes).

    See the module docstring for the packing.  The sweep is charged against
    SWEEP_BUDGET before its first step and, when the caller keeps every
    entry's table (``kept``), those tables' bits against TABLE_BUDGET.
    """
    if m_max < 0:
        raise ValueError("board length must be >= 0")
    graph = enumerate_states(s, n)
    # edges grouped by k, so each source is shifted once per k
    by_k = []
    into = [0] * graph.dim  # summed multiplicity of the edges into each state
    for edges in graph.edges:
        groups: dict = {}
        for dst, k, mult in edges:
            groups.setdefault(k, []).append((dst, mult))
            into[dst] += mult
        by_k.append(tuple(groups.items()))
    rho = max(into)
    b = (rho - 1).bit_length()
    engine.charge(f"estimated word operations of a sweep of {m_max} steps",
                  engine._sweep_words(s, n, m_max, sum(map(len, graph.edges)), b),
                  engine.SWEEP_BUDGET)
    if kept:
        # each kept table is one step's flat-front entry, unpacked
        engine.charge(f"estimated bits of the {m_max + 1} kept tables",
                      engine._sweep_bits(s, n, m_max, b), engine.TABLE_BUDGET)
    vec = [1] + [0] * (graph.dim - 1)  # each state's polynomial, packed
    width = 1  # bytes per slot
    yield 1, width
    for done in range(0, m_max, _BLOCK):
        steps = min(_BLOCK, m_max - done)
        top = max(_slot_sum(x, 8 * width) for x in vec)
        wider = -(-(top * rho**steps).bit_length() // 8)
        if wider > width:
            vec = [_widen(x, width, wider) for x in vec]
            width = wider
        for _ in range(steps):
            vec = _step(vec, by_k, 8 * width)
            yield vec[0], width


def _flat_entry_sweep(s, n, m_max):
    """Flat-front t-polynomials (dict exponent -> coeff) for m = 0 .. m_max.

    Every coefficient is positive.
    """
    return [_unpack(x, width) for x, width in _packed_sweep(s, n, m_max, kept=True)]


def _slot_sum(x: int, slot: int) -> int:
    """The sum of x's slots of ``slot`` bits, folded in halves; exact when
    it fits one slot, for then no partial sum carries into the next."""
    slots = -(-x.bit_length() // slot)
    while slots > 1:
        slots = -(-slots // 2)
        cut = slots * slot
        x = (x & ((1 << cut) - 1)) + (x >> cut)
    return x


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
    # poly holds only positive counts, so this ends on a nonzero entry
    return CountTable(s, n, m, tuple(poly.get(k, 0) for k in range(max(poly) + 1)))


def count_tables(s: int, n: int, m_max: int) -> list:
    """Count tables of the n x m boards for m = 0 .. m_max, from one sweep.

    m = 0 is the empty board with its single empty tiling.
    """
    return [
        _table(s, n, m, poly)
        for m, poly in enumerate(_flat_entry_sweep(s, n, m_max))
    ]


def count_table(s: int, n: int, m: int) -> CountTable:
    """Exact counts for the n x m board, all square counts k at once.

    n x m and m x n tilings coincide, so a board with 0 < m < n is swept
    along its shorter side, on the width-m graph for n rows; the table
    keeps the given orientation.  The sweep passes every shorter board;
    only the last entry is unpacked.
    """
    across, along = (m, n) if 0 < m < n else (n, m)
    for x, width in _packed_sweep(s, across, along):
        pass
    return _table(s, n, m, _unpack(x, width))
