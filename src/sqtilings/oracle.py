"""Independent ground truth: cell-by-cell exact-cover counting on a bitboard.

This deliberately shares nothing with the lane-based transfer machinery.
The board is scanned in row-major order, in one forward pass over the
cells.  The state at cell p is the occupancy bitmask of cells p, p+1, ...
left by the squares placed so far.  An empty cell p is covered either by a
monomer or by an s x s square anchored there, which generates every tiling
exactly once; identical masks reached along different placement histories
are merged, so the count stays exact while boards near the cell cap remain
tractable.  Each state carries its polynomial in t packed into one int,
with slot width cells + 1: a tiling is fixed by its set of square anchors,
a subset of the cells, so every coefficient is at most 2^cells and fits.

A row boundary where no square sticks out past the line is exactly the
board of the rows above it, so the all-empty state (mask 0) there holds
that board's polynomial.  One pass over M rows therefore reads every
length 0 .. M at its row boundaries, and :func:`brute_force_tables`
keeps them all.  The oracle never rotates a board: an n x m board is
scanned as m rows of width n, so it does not lean on the rotation
symmetry that the transfer-matrix route uses for short boards.
"""

from __future__ import annotations

from .series import CountTable

DEFAULT_CELL_CAP = 64


class BoardTooLarge(ValueError):
    """Board exceeds the configured oracle cell cap."""

    def __init__(self, cells: int, cap: int):
        self.cells = cells
        self.cap = cap
        super().__init__(f"board has {cells} cells, oracle cap is {cap}")


def _row_ends(s: int, rows: int, cols: int):
    """Yield the r x cols board's packed polynomial for r = 0 .. rows.

    Slots are rows * cols + 1 bits wide at every r.
    """
    width = rows * cols + 1
    # footprint of a square anchored at the current cell, bit 0 = that cell
    foot = sum(1 << (r * cols + c) for r in range(s) for c in range(s))
    states = {0: 1}  # occupancy of cells p, p+1, ... -> packed t-polynomial
    yield 1
    for r in range(rows):
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


def _table(s: int, n: int, m: int, packed: int, width: int) -> CountTable:
    counts = []  # the top slot is nonzero, so no trailing zeros to trim
    while packed:
        counts.append(packed & ((1 << width) - 1))
        packed >>= width
    if len(counts) > n * m // (s * s) + 1:
        raise RuntimeError(
            f"{n} x {m} board: {len(counts) - 1} squares of side {s} "
            "exceed the area bound"
        )
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
    if n * m_max > cell_cap:
        raise BoardTooLarge(n * m_max, cell_cap)
    return [
        _table(s, n, m, packed, n * m_max + 1)
        for m, packed in enumerate(_row_ends(s, m_max, n))
    ]
