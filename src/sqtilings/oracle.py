"""Independent ground truth: cell-by-cell exact-cover counting on a bitboard.

This deliberately shares no counting code with the lane-based transfer
machinery: from :mod:`sqtilings.engine` it takes only the cell cap and the
function that charges it.
The board is scanned in row-major order, in one forward pass over the
cells.  The state at cell p is the occupancy bitmask of cells p, p+1, ...
left by the squares placed so far.  An empty cell p is covered either by a
monomer or by an s x s square anchored there, which generates every tiling
exactly once; identical masks reached along different placement histories
are merged, so the count stays exact while boards near the cell cap remain
tractable.  Each state carries its polynomial in t packed into one int,
in slots of cells + 1 bits rounded up to whole bytes: a tiling is fixed
by its set of square anchors, a subset of the cells, so every coefficient
is at most 2^cells and fits.  Whole-byte slots let a table unpack from
one ``to_bytes``, in time linear in the packed int's size.

A row boundary where no square sticks out past the line is exactly the
board of the rows above it, so the all-empty state (mask 0) there holds
that board's polynomial.  One pass over M rows therefore reads every
length 0 .. M at its row boundaries, and :func:`brute_force_tables`
keeps them all.  The oracle never rotates a board: an n x m board is
scanned as m rows of width n, so it does not lean on the rotation
symmetry that the transfer-matrix route uses for short boards.
"""

from __future__ import annotations

from .engine import DEFAULT_CELL_CAP, charge
from .series import CountTable


def _row_ends(s: int, rows: int, cols: int, size: int):
    """Yield the r x cols board's packed polynomial for r = 0 .. rows.

    Slots are ``size`` bytes wide at every r.
    """
    width = 8 * size
    # footprint of a square anchored at the current cell, bit 0 = that cell
    foot = sum(1 << (r * cols + c) for r in range(s) for c in range(s))
    states = {0: 1}  # occupancy of cells p, p+1, ... -> packed t-polynomial
    yield 1
    for r in range(rows):
        # only a pruning guard: a square that overhangs the last row never
        # leaves mask 0.  Without it the oracle passes of `verify --s-max 6
        # --n-max 14 --m-max 14 --oracle-cap 120` ran 7-10 % slower (2-core VM).
        fits_row = r + s <= rows
        for c in range(cols):
            fits = fits_row and c + s <= cols
            nxt: dict = {}
            for mask, poly in states.items():
                # monomer on an empty cell, or step past a covered one
                key = mask >> 1
                nxt[key] = nxt.get(key, 0) + poly
                if fits and not (mask & foot):
                    key = (mask | foot) >> 1
                    nxt[key] = nxt.get(key, 0) + (poly << width)
            states = nxt
        yield states[0]


def _table(s: int, n: int, m: int, packed: int, size: int) -> CountTable:
    data = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    # the top slot is nonzero, so no trailing zeros to trim
    counts = [
        int.from_bytes(data[lo:lo + size], "little")
        for lo in range(0, len(data), size)
    ]
    return CountTable(s, n, m, tuple(counts))


def brute_force_tables(
    s: int, n: int, m_max: int, cell_cap: int = DEFAULT_CELL_CAP
) -> list:
    """Exact counts for the n x m boards, m = 0 .. m_max, from one pass.

    The cap is charged on the n x m_max board, the longest of the pass.
    """
    if s < 1 or n < 1:
        raise ValueError("square size and width must be positive")
    if m_max < 0:
        raise ValueError("board length must be >= 0")
    cells = n * m_max
    charge(f"cells of the oracle's {n} x {m_max} board", cells, cell_cap)
    size = cells // 8 + 1  # bytes that hold cells + 1 bits
    return [
        _table(s, n, m, packed, size)
        for m, packed in enumerate(_row_ends(s, m_max, n, size))
    ]
