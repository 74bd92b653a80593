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
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .engine import DEFAULT_STATE_CAP, enumerate_states


@dataclass(frozen=True)
class CountTable:
    """Tiling counts of one n x m board, indexed by number of squares used.

    counts[k] is exact and arbitrary precision; trailing zero entries are
    trimmed, so the last entry is the largest k any tiling achieves (the
    area bound floor(n*m / s^2) is an upper limit, not always attained).
    """

    s: int
    n: int
    m: int
    counts: tuple

    @property
    def row_sum(self) -> int:
        return sum(self.counts)


def _flat_entry_sweep(s, n, m_max, state_cap):
    """Flat-front t-polynomials (dict exponent -> coeff) for m = 0 .. m_max."""
    graph = enumerate_states(s, n, state_cap)
    edges = graph.edges
    vec = [{} for _ in range(graph.dim)]
    vec[0] = {0: 1}
    out = [vec[0]]
    for _ in range(m_max):
        nxt = [{} for _ in range(graph.dim)]
        for src, poly in enumerate(vec):
            if not poly:
                continue
            for dst, k, mult in edges[src]:
                # counts are positive, so no sum cancels to zero; parallel
                # edges (binomials for s = 1, mirror-image pairs for s >= 2)
                # scale the source once, not per term
                terms = (
                    poly.items() if mult == 1
                    else [(e, c * mult) for e, c in poly.items()]
                )
                acc = nxt[dst]
                get = acc.get
                for e, c in terms:
                    acc[e + k] = get(e + k, 0) + c
        vec = nxt
        out.append(vec[0])
    return out


def _trim(counts: list) -> tuple:
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def count_tables(
    s: int, n: int, m_max: int, state_cap: int = DEFAULT_STATE_CAP
) -> list:
    """Count tables of the n x m boards for m = 0 .. m_max, from one sweep.

    m = 0 is the empty board with its single empty tiling.
    """
    if m_max < 0:
        raise ValueError("board length must be >= 0")
    tables = []
    for m, poly in enumerate(_flat_entry_sweep(s, n, m_max, state_cap)):
        top = max(poly)
        if top > (n * m) // (s * s):
            raise RuntimeError(
                f"{n} x {m} board: {top} squares of side {s} exceed the area bound"
            )
        # poly holds only positive counts, so this ends on a nonzero entry
        counts = tuple(poly.get(k, 0) for k in range(top + 1))
        tables.append(CountTable(s, n, m, counts))
    return tables


def count_table(
    s: int, n: int, m: int, state_cap: int = DEFAULT_STATE_CAP
) -> CountTable:
    """Exact counts for the n x m board, all square counts k at once."""
    return count_tables(s, n, m, state_cap)[m]


def square_table(
    s: int, size_max: int, state_cap: int = DEFAULT_STATE_CAP
) -> list:
    """Count tables of the square boards n = m = 1 .. size_max."""
    return [count_table(s, i, i, state_cap) for i in range(1, size_max + 1)]


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
