"""Independent ground truth: cell-by-cell exact-cover counting on a bitboard.

This deliberately shares nothing with the lane-based transfer machinery.
Counts do not change under rotation, so the board is scanned in row-major
order with its rows along the shorter side, in one forward pass over the
cells.  The state at cell p is the occupancy bitmask of cells p, p+1, ...
left by the squares placed so far.  An empty cell p is covered either by a
monomer or by an s x s square anchored there, which generates every tiling
exactly once; identical masks reached along different placement histories
are merged, so the count stays exact while boards near the cell cap remain
tractable.  Each state carries its polynomial in t packed into one int,
with slot width cells + 1: a tiling is fixed by its set of square anchors,
a subset of the cells, so every coefficient is at most 2^cells and fits.
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


def brute_force_counts(
    s: int, n: int, m: int, cell_cap: int = DEFAULT_CELL_CAP
) -> CountTable:
    """Exact counts for the n x m board by direct enumeration."""
    if s < 1 or n < 1 or m < 0:
        raise ValueError("square size and board sides must be positive")
    cells = n * m
    if cells > cell_cap:
        raise BoardTooLarge(cells, cell_cap)

    rows, cols = max(n, m), min(n, m)
    width = cells + 1
    # footprint of a square anchored at the current cell, bit 0 = that cell
    foot = sum(1 << (r * cols + c) for r in range(s) for c in range(s))
    states = {0: 1}  # occupancy of cells p, p+1, ... -> packed t-polynomial
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

    (packed,) = states.values()
    counts = []  # the top slot is nonzero, so no trailing zeros to trim
    while packed:
        counts.append(packed & ((1 << width) - 1))
        packed >>= width
    if len(counts) > cells // (s * s) + 1:
        raise RuntimeError(
            f"{n} x {m} board: {len(counts) - 1} squares of side {s} "
            "exceed the area bound"
        )
    return CountTable(s, n, m, tuple(counts))
