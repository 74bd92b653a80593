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
and aggregates parallel edges into integer multiplicities.

Mirror pairs are one case of exact (ordinary) lumpability: a partition
of the states is exact when every state of a block sends the same summed
weight mult * t^k into each block.  With W the weighted adjacency matrix
and P the state-by-block membership matrix that is W P = P Q, so
W^m P = P Q^m; when the flat front is a block of its own, its entry of
W^m equals that of Q^m, and every count table and the generating function
are the same on the quotient Q.  ``enumerate_states`` refines the mirror
graph to the coarsest such partition by splitting blocks on those sums
until none splits (Buchholz, *J. Appl. Prob.* 31, 1994; Derisavi,
Hermanns and Sanders, *Inf. Process. Lett.* 87, 2003) and returns the
quotient, 29-52 % smaller than the mirror graph on the systems the README
lists.  A multiplicity is then any integer >= 1: the number of placement
sets from a block's representative front that land in the target block
with k squares.  For s = 1 every placement returns to the single flat
front and the multiplicities are binomials.
"""

from __future__ import annotations

from math import comb

# Caps on fronts enumerated and on the unknowns gfun eliminates; both live
# here, in the one module every CLI command loads, for the CLI's parser.
DEFAULT_STATE_CAP = 100_000
DEFAULT_DIM_CAP = 400

# FrontState is a plain tuple of lane overhangs, e.g. (1, 1, 0) for s=2, n=3.


class CapExceeded(RuntimeError):
    """A run needs more than a configured cap allows."""


class StateCapExceeded(CapExceeded):
    """Reachable front count went past the configured cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"state space needs at least {count} fronts, cap is {cap}")


def _free_anchors(heights: tuple, s: int) -> tuple:
    """Left edges of the runs of s flat lanes, in lane order."""
    return tuple(p for p in range(len(heights) - s + 1) if not any(heights[p:p + s]))


def _anchor_sets(free: tuple, s: int) -> list:
    """Subsets of ``free`` with anchors at least s apart, by size then positions."""
    sets = [()]
    level = [(p,) for p in free]
    while level:
        sets += level
        # extending each set of a sorted level in anchor order keeps the
        # next level sorted
        level = [ps + (p,) for ps in level for p in free if p >= ps[-1] + s]
    return sets


def _advance(heights: tuple, s: int, sets: list) -> list:
    """(next front, squares anchored) for each anchor set, in order.

    Anchored lanes are flat, so after the row advance they read s - 1 and
    every other lane reads its height less one (never below zero).
    """
    base = tuple(x - 1 if x else 0 for x in heights)
    fill = (s - 1,) * s
    out = []
    for ps in sets:
        nxt = base
        for p in ps:
            nxt = nxt[:p] + fill + nxt[p + s:]
        out.append((nxt, len(ps)))
    return out


def transitions(heights: tuple, s: int) -> list:
    """All one-row advances from a front.

    Returns (next front, squares anchored) pairs, ordered by square count
    and then by anchor positions.  Anchors are left edges of runs of s
    flat lanes; two anchors must be at least s lanes apart.
    """
    return _advance(heights, s, _anchor_sets(_free_anchors(heights, s), s))


class TransferGraph:
    """The lumped transfer graph of fixed (s, n).

    Each state is one block of the coarsest exact lumping of the reachable
    fronts, represented by its first front in discovery order; states[0]
    is the all-flat front, alone in its block, and every representative
    is the smaller of a front and its mirror image.  edges[src] is a tuple
    of (dst, k, mult) triples sorted by (dst, k): mult >= 1 advances from
    states[src] into block dst, anchoring k squares each.
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
    """Lumped transfer graph of the fronts reachable from the flat front.

    The canonical fronts are enumerated breadth-first, and ``cap`` bounds
    how many; the returned graph is their quotient by the coarsest exact
    lumping.
    """
    if s < 1 or n < 1:
        raise ValueError("square size and width must be positive")
    if cap < 1:
        raise ValueError("state cap must be positive")
    start = (0,) * n
    states = [start]
    index = {start: 0}
    edges = []  # per front, (dst, k) -> multiplicity
    anchor_sets: dict = {}  # free anchor positions -> their anchor sets
    pos = 0
    while pos < len(states):
        agg: dict = {}
        if s == 1:
            # every lane is always flat and every advance returns to the
            # flat front, so the 2^n placement sets aggregate to binomials
            for k in range(n + 1):
                agg[(0, k)] = comb(n, k)
        else:
            h = states[pos]
            free = _free_anchors(h, s)
            sets = anchor_sets.get(free)
            if sets is None:
                sets = anchor_sets[free] = _anchor_sets(free, s)
            for nxt, k in _advance(h, s, sets):
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
        edges.append(agg)
        pos += 1
    return TransferGraph(s, n, *_lump(states, edges, n // s + 1))


def _lump(states: list, edges: list, stride: int) -> tuple:
    """States and edges of the quotient by the coarsest exact lumping.

    ``edges[i]`` maps (dst, k) to the multiplicity of the edges of weight
    t^k from state i to state dst.  State 0 starts in a block of its own
    and every other state in one block; each round splits the blocks by
    the summed weight each state sends into each block, until a round
    splits nothing.  Blocks are numbered, and represented, by their first
    state in discovery order.  A signature writes the pair (block, k) as
    block * stride + k, so ``stride`` must exceed every k.
    """
    block = [0] + [1] * (len(states) - 1)
    count = min(len(states), 2)
    while True:
        ids: dict = {}  # signature -> block, in order of first state
        new = []
        for i, out in enumerate(edges):
            into: dict = {}
            for (dst, k), mult in out.items():
                key = block[dst] * stride + k
                into[key] = into.get(key, 0) + mult
            sig = (block[i], tuple(sorted(into.items())))
            new.append(ids.setdefault(sig, len(ids)))
        block = new
        if len(ids) == count:
            break
        count = len(ids)
    # the partition is stable, so each signature is already written in
    # the final block numbers
    first: dict = {}
    for i, b in enumerate(block):
        first.setdefault(b, i)
    reps = tuple(states[i] for i in first.values())
    quotient = tuple(
        tuple((key // stride, key % stride, mult) for key, mult in sig[1]) for sig in ids
    )
    return reps, quotient
