"""Growth-front enumeration and the weighted transfer graph.

A tiling of an n x m board by monomers and s x s squares is built row by
row.  The front records, lane by lane, how many rows of an already placed
square still stick out past the current base line; every entry is in
0..s-1.  Advancing the base line by one row means: anchor any set of
pairwise disjoint squares on runs of currently flat lanes, then reduce
every lane's overhang by one (never below zero).  Anchoring k squares in
one advance contributes a factor t^k, and the advance itself a factor z.

Mirroring the board left to right maps the front graph onto itself and
fixes the all-flat start front, so a front and its mirror image are
reached by equally many weighted paths and can be solved for as one
state (lumpability, Kemeny-Snell, *Finite Markov Chains* 6.3).
``enumerate_states`` keeps the canonical front ``min(h, h[::-1])`` of each
mirror pair, walks those breadth-first from the all-flat front (index 0)
and aggregates parallel edges into integer multiplicities.  For s >= 2
distinct placement sets lead to distinct fronts, so a multiplicity is 2
when two mirror-image placements meet on one canonical front and 1
otherwise; for s = 1 every placement returns to the single flat front and
the multiplicities are binomials.
"""

from __future__ import annotations

from math import comb

DEFAULT_STATE_CAP = 100_000

# FrontState is a plain tuple of lane overhangs, e.g. (1, 1, 0) for s=2, n=3.


class StateCapExceeded(RuntimeError):
    """Reachable front count went past the configured cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"state space needs at least {count} fronts, cap is {cap}")


def transitions(heights: tuple, s: int) -> list:
    """All one-row advances from a front.

    Returns (next front, squares anchored) pairs, ordered by square count
    and then by anchor positions.  Anchors are left edges of runs of s
    flat lanes; two anchors must be at least s lanes apart.
    """
    n = len(heights)
    free = [p for p in range(n - s + 1) if not any(heights[p:p + s])]
    sets: list = []

    def grow(start: int, chosen: list) -> None:
        sets.append(tuple(chosen))
        for idx in range(start, len(free)):
            p = free[idx]
            if chosen and p < chosen[-1] + s:
                continue
            chosen.append(p)
            grow(idx + 1, chosen)
            chosen.pop()

    grow(0, [])
    sets.sort(key=lambda ps: (len(ps), ps))
    out = []
    for ps in sets:
        nxt = list(heights)
        for p in ps:
            nxt[p:p + s] = [s] * s
        out.append((tuple(x - 1 if x else 0 for x in nxt), len(ps)))
    return out


class TransferGraph:
    """Reachable fronts plus weighted row-advance edges for fixed (s, n).

    states[0] is the all-flat front and every state is the smaller of a
    front and its mirror image.  edges[src] is a tuple of (dst, k, mult)
    triples sorted by (dst, k): mult parallel advances from states[src]
    to states[dst] or its mirror image, anchoring k squares each.
    """

    __slots__ = ("s", "n", "states", "edges")

    def __init__(self, s, n, states, edges):
        self.s = s
        self.n = n
        self.states = states
        self.edges = edges

    @property
    def dim(self) -> int:
        return len(self.states)

    def __repr__(self):
        return f"TransferGraph(s={self.s}, n={self.n}, dim={self.dim})"


def enumerate_states(s: int, n: int, cap: int = DEFAULT_STATE_CAP) -> TransferGraph:
    """Breadth-first enumeration of reachable canonical fronts, in discovery order."""
    if s < 1 or n < 1:
        raise ValueError("square size and width must be positive")
    if cap < 1:
        raise ValueError("state cap must be positive")
    start = (0,) * n
    states = [start]
    index = {start: 0}
    edges = []
    pos = 0
    while pos < len(states):
        agg: dict = {}
        if s == 1:
            # every lane is always flat and every advance returns to the
            # flat front, so the 2^n placement sets aggregate to binomials
            for k in range(n + 1):
                agg[(0, k)] = comb(n, k)
        else:
            for nxt, k in transitions(states[pos], s):
                nxt = min(nxt, nxt[::-1])
                j = index.get(nxt)
                if j is None:
                    if len(states) >= cap:
                        raise StateCapExceeded(len(states) + 1, cap)
                    j = len(states)
                    index[nxt] = j
                    states.append(nxt)
                key = (j, k)
                agg[key] = agg.get(key, 0) + 1
        edges.append(tuple((j, k, mult) for (j, k), mult in sorted(agg.items())))
        pos += 1
    return TransferGraph(s, n, tuple(states), tuple(edges))
