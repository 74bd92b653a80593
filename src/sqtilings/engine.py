"""Growth-front enumeration and the weighted transfer graph.

A tiling of an n x m board by monomers and s x s squares is built row by
row.  The front records, lane by lane, how many rows of an already placed
square still stick out past the current base line; every entry is in
0..s-1.  Advancing the base line by one row means: anchor any set of
pairwise disjoint squares on runs of currently flat lanes, then reduce
every lane's overhang by one (never below zero).  Anchoring k squares in
one advance contributes a factor t^k, and the advance itself a factor z.
The front search holds a front as a str of chr(overhang) per lane: anchors
are found with ``str.find``, the row advance is one ``str.translate`` and
each next front one splice.  ``TransferGraph.states`` holds int tuples.

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
Hermanns and Sanders, *Inf. Process. Lett.* 87, 2003), signing no state
that is alone in its block, and returns the quotient, 29-52 % smaller
than the mirror graph on the systems the README lists.  A multiplicity
is then any integer >= 1: the number of placement sets from a block's
representative front that land in the target block with k squares.  For
s = 1 every placement returns to the single flat front and the
multiplicities are binomials.

Before a front is expanded, ``enumerate_states`` looks up its advance
class: the mirror-canonical form of the front with every maximal run of
fewer than s flat lanes raised to height 1.  No square fits in such a run
and its lanes read 0 after the advance either way, so the fronts of one
class have the same transitions up to mirroring, and merging them is
itself an exact lumping, applied before expansion instead of after.  Each
class is expanded once, from the first front met in it, which stays its
representative, so the quotient is the one the refinement of all mirror
fronts gives.  At s = 2 the classes are already the quotient: n = 14 has
184 classes against 322 mirror fronts, n = 18 has 1052 against 2135.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate, groupby
from math import prod

# Caps on size, not options: the advance classes the front search stores
# and the unknowns gfun eliminates.  Beside them, in the one module every
# command loads, the default of ``verify --oracle-cap`` (oracle board cells).
STATE_CAP = 100_000
DIM_CAP = 400
DEFAULT_CELL_CAP = 64
# Budgets on cost, not options: the transitions the front search builds
# (s = 2, n = 22 builds 1 182 925), the big-int word operations a sweep
# is estimated to need (s = 2, n = 8 to length 1000 needs about 3.3e9) and
# the bits of the tables count_tables keeps (estimated at 2.7e9 there).
# The s = 1 graph is charged as one sweep step before it is built, which
# admits widths up to about 8 600.
TRANSITION_BUDGET = 2_000_000
SWEEP_BUDGET = 10**10
TABLE_BUDGET = 4 * 10**9


class CapExceeded(RuntimeError):
    """A run needs more than a cap or budget allows: ``need`` against ``cap``."""

    def __init__(self, message: str, need: int, cap: int):
        super().__init__(message)
        self.need = need
        self.cap = cap


def charge(what: str, need: int, limit: int) -> None:
    """Refuse a run whose ``need`` passes ``limit``; every cap and budget is
    checked here.  ``what`` names the amount with its unit, and says when
    ``need`` is an estimate or a lower bound."""
    if need > limit:
        raise CapExceeded(f"{what}: {need}, over the limit of {limit}", need, limit)


def _sweep_bits(s, n, steps, b):
    """Estimated bits of a state's packed polynomials summed over the steps
    1 .. ``steps`` of a sweep (:mod:`sqtilings.series`), in closed form.

    Step j's packed int holds at most n*j // s^2 + 1 slots (the area bound)
    of at most j*b + 1 bits, with b = ceil(log2 rho): rho, the largest
    summed multiplicity into a state, bounds each step's growth of the
    t = 1 values, and the sweep sets each block's slot width from it.
    Callers pass b, so rho itself need not exist.
    """
    sq = s * s
    sum1 = steps * (steps + 1) // 2  # sum of j over the steps
    sum2 = sum1 * (2 * steps + 1) // 3  # sum of j^2
    # sum over j of (n*j/sq + 1) * (b*j + 1)
    return (n * b * sum2 + (n + b * sq) * sum1 + sq * steps) // sq


def _sweep_words(s, n, steps, edges, b):
    """Estimated 64-bit word operations of a sweep of ``steps`` transfer
    steps over ``edges`` edges: one shift-and-add per edge and step, on at
    least one word and on the packed int :func:`_sweep_bits` sizes.
    """
    return edges * (steps + _sweep_bits(s, n, steps, b) // 64)


def _charge_unit_graph(n):
    """Refuse the s = 1 graph of width n before its binomials, about n^2
    bits, are built: it is charged as one sweep step over its n + 1 edges,
    whose multiplicities sum to 2^n, so b = n."""
    charge(f"estimated word operations of the s = 1 graph of width {n}",
           _sweep_words(1, n, 1, n + 1, n), SWEEP_BUDGET)


class _Lower(dict):
    """``str.translate`` table of the row advance: a lane one lower, never below 0."""

    def __missing__(self, c):
        return self.setdefault(c, max(c - 1, 0))


_LOWER = _Lower()


def transitions(front: str, s: int) -> list:
    """All one-row advances from a front.

    Returns (next front, squares anchored) pairs, ordered by square count
    and then by anchor positions.  Anchors are left edges of runs of s
    flat lanes; two anchors must be at least s lanes apart.  Anchored
    lanes are flat, so after the row advance they read s - 1 and every
    other lane reads its height less one (never below zero).
    """
    flat = "\0" * s
    free = []
    p = front.find(flat)
    while p >= 0:
        free.append(p)
        p = front.find(flat, p + 1)
    out = [(front.translate(_LOWER), 0)]
    fill = chr(s - 1) * s if free else ""  # asked for only where a square fits
    lasts = [-s]  # the last anchor of each set in out; none in the empty set
    # each set is one splice into the front of the set less its last
    # anchor; the loop also visits the sets it appends, and extending them
    # in order keeps out ordered by square count and then by anchors
    for (nxt, k), last in zip(out, lasts):
        for p in free:
            if p >= last + s:
                out.append((nxt[:p] + fill + nxt[p + s:], k + 1))
                lasts.append(p)
    return out


def _run_sets(s: int, n: int) -> list:
    """a(r) for r = 0 .. n: the anchor sets of a run of r flat lanes.

    a(r) = a(r - 1) + a(r - s), with a(r) = 1 for r < s.  The table stops,
    and CapExceeded is raised, as soon as an entry passes
    TRANSITION_BUDGET: a(n) is the flat front's transition count, so that
    front alone would pass it.
    """
    a = [1] * min(s, n + 1)
    while len(a) <= n and a[-1] <= TRANSITION_BUDGET:
        a.append(a[-1] + a[-s])
    charge("lower bound on the transitions of the front search", a[-1], TRANSITION_BUDGET)
    return a


def _transition_count(front: str, sets: list) -> int:
    """len(transitions(front, s)), read from ``sets`` = _run_sets(s, n).

    Anchor sets in different maximal flat runs combine freely, so the
    count is the product of a(r) over the runs.
    """
    return prod(sets[len(list(run))] for x, run in groupby(front) if x == "\0")


def _advance_class(front: str, s: int) -> str:
    """The mirror-canonical form of ``front`` with every maximal run of
    fewer than s flat lanes raised to height 1.

    No square fits in such a run, and its lanes read 0 after the advance
    either way, so a front and its raised form have the same transitions.
    """
    raised = front
    run = 0  # flat lanes ending before lane i
    for i, x in enumerate(front + "\1"):  # a raised lane past the end ends the last run
        if x == "\0":
            run += 1
        elif run:
            if run < s:
                raised = raised[:i - run] + "\1" * run + raised[i:]
            run = 0
    return min(raised, raised[::-1])


class TransferGraph(namedtuple("TransferGraph", "s n states edges")):
    """The lumped transfer graph of fixed (s, n).

    Each state is one block of the coarsest exact lumping of the reachable
    fronts, represented by its first front in discovery order; states[0]
    is the all-flat front, alone in its block, and every representative
    is the smaller of a front and its mirror image.  edges[src] is a tuple
    of (dst, k, mult) triples sorted by (dst, k): mult >= 1 advances from
    states[src] into block dst, anchoring k squares each.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.states)

    def __repr__(self):
        return f"TransferGraph(s={self.s}, n={self.n}, dim={self.dim})"


def enumerate_states(s: int, n: int) -> TransferGraph:
    """Lumped transfer graph of the fronts reachable from the flat front.

    The advance classes are enumerated breadth-first, each expanded once
    from the first front met in it, and STATE_CAP bounds how many; the
    returned graph is their quotient by the coarsest exact lumping.
    """
    if s < 1 or n < 1:
        raise ValueError("square size and width must be positive")
    if s == 1:
        # every lane is always flat and every advance returns to the flat
        # front, so the 2^n placement sets aggregate to binomials, each
        # from the last: C(n, k+1) = C(n, k) * (n - k) / (k + 1)
        _charge_unit_graph(n)
        binomials = accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1)
        row = tuple((0, k, c) for k, c in enumerate(binomials))
        return TransferGraph(s, n, ((0,) * n,), (row,))
    sets = _run_sets(s, n)
    start = "\0" * n
    states = [start]  # the first front met of each advance class
    # advance class, or next front as transitions returns it, -> state.
    # The two kinds of key agree: _advance_class is idempotent, so a front
    # equal to a class form lies in that class, which is its state.
    seen = {_advance_class(start, s): 0}
    edges = []  # per state, the (state, k) of each transition
    built = 0  # transitions built so far
    for h in states:  # states grows as classes are met: a breadth-first walk
        # no front has more transitions than the flat one, so only a front
        # that could pass the budget is counted before it is expanded
        if built + sets[n] > TRANSITION_BUDGET:
            charge("lower bound on the transitions of the front search",
                   built + _transition_count(h, sets), TRANSITION_BUDGET)
        moves = transitions(h, s)
        built += len(moves)
        for nxt, _ in moves:
            if nxt not in seen:
                cls = _advance_class(nxt, s)
                j = seen.get(cls)
                if j is None:
                    charge("lower bound on the advance classes of the front search",
                           len(states) + 1, STATE_CAP)
                    j = seen[cls] = len(states)
                    states.append(min(nxt, nxt[::-1]))
                seen[nxt] = seen[nxt[::-1]] = j
        edges.append([(seen[nxt], k) for nxt, k in moves])
    return TransferGraph(s, n, *_lump(states, edges))


def _lump(states: list, edges: list) -> tuple:
    """States and edges of the quotient by the coarsest exact lumping.

    ``edges[i]`` lists the (dst, k) of each transition of weight t^k from
    state i.  State 0 starts in a block of its own and every other state
    in one block.  Each round signs every state that shares its block
    with the sorted (block of dst, k) of its transitions, a multiset, so
    two signatures are equal exactly when the summed weights into each
    block are; blocks split by signature until a round splits nothing or
    every block is a single state.  Blocks are numbered, and represented,
    by their first state in discovery order.
    """
    block = [0] + [1] * (len(states) - 1)
    count = min(len(states), 2)
    while count < len(states):
        size = Counter(block)
        ids: dict = {}  # signature -> block, in order of first state
        new = []
        for b, out in zip(block, edges):
            sig = b  # a block of one state cannot split: its number signs it
            if size[b] > 1:
                sig = (b, tuple(sorted([(block[j], k) for j, k in out])))
            new.append(ids.setdefault(sig, len(ids)))
        block = new
        if len(ids) == count:
            break
        count = len(ids)
    reps, quotient = [], []
    for i, b in enumerate(block):
        if b == len(reps):  # the first state of its block
            reps.append(i)
            into: dict = {}  # (block, k) -> multiplicity
            for j, k in edges[i]:
                key = (block[j], k)
                into[key] = into.get(key, 0) + 1
            quotient.append(tuple([(c, k, mult) for (c, k), mult in sorted(into.items())]))
    return tuple(tuple(map(ord, states[i])) for i in reps), tuple(quotient)
