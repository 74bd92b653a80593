"""Independent ground truth: cell-by-cell exact-cover counting on a bitboard.

This deliberately shares nothing with the lane-based transfer machinery.
The board is scanned in row-major order; the first empty cell is covered
either by a monomer or by an s x s square anchored there, which generates
every tiling exactly once.  Identical occupancy patterns reached along
different placement histories are collapsed through a memo table keyed on
the occupancy bitmask, so the count stays exact while boards near the cell
cap (squares of size 1 in particular, where all 2^(n*m) tilings share a
handful of masks) remain tractable.
"""

from __future__ import annotations

import sys

from .series import CountTable, _trim

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
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * cells + 200))

    full = (1 << cells) - 1
    # footprint masks of squares anchored at their top-left cell; row-major
    # cell index r*m + c, square spans rows r..r+s-1 and columns c..c+s-1
    square: dict = {}
    if s <= n and s <= m:
        base = 0
        for r in range(s):
            for c in range(s):
                base |= 1 << (r * m + c)
        for r in range(n - s + 1):
            for c in range(m - s + 1):
                square[r * m + c] = base << (r * m + c)

    memo: dict = {}

    def rec(mask: int) -> tuple:
        if mask == full:
            return (1,)
        cached = memo.get(mask)
        if cached is not None:
            return cached
        bit = (mask + 1) & ~mask  # lowest empty cell
        acc = list(rec(mask | bit))
        sq = square.get(bit.bit_length() - 1)
        if sq is not None and not (mask & sq):
            sub = rec(mask | sq)
            if len(acc) < len(sub) + 1:
                acc.extend([0] * (len(sub) + 1 - len(acc)))
            for k, c in enumerate(sub):
                acc[k + 1] += c
        res = tuple(acc)
        memo[mask] = res
        return res

    counts = list(rec(0))
    if len(counts) > cells // (s * s) + 1:
        raise RuntimeError(
            f"{n} x {m} board: {len(counts) - 1} squares of side {s} "
            "exceed the area bound"
        )
    return CountTable(s, n, m, _trim(counts))
