"""Closed-form generating functions from the transfer graph.

For fixed width n the bivariate generating function is the head component
of the solution of (I - M) x = e0, where M is the weighted adjacency
matrix of the transfer graph over Z[z, t].  Every route here reads that
system in one format, ``TransferGraph.edges``: edge (dst, k, mult) out of
src puts mult * z * t^k into entry (dst, src) of M.  The graph is the
quotient of the front graph by its coarsest exact lumping (see
:mod:`sqtilings.engine`), so its head component is the same rational
function, and det(I - M) is a factor of the unlumped one.

The solve is one-step fraction-free (Bareiss) elimination over Z[z] with
t evaluated at 2^B (Kronecker substitution): each entry of I - M becomes
a map from z exponent to a coefficient that holds its t-polynomial in
B-bit slots, so the t-direction of every product runs inside one big-int
multiply.  Every division is exact, so no rational-function or gcd
machinery is needed.  This module holds both kernels the loop runs on
those z-term maps: ``_cross_terms`` forms p*x - a*b in one pass, and
``_exact_div`` divides by univariate greedy division.  The head
component drops out of the final surviving equation as a
numerator/denominator pair, split back into (z, t) terms by
``_unpack_t``.  The result is exact:

* t -> 2^B is a ring map from Z[z, t] onto Z[z], an integral domain, and
  Bareiss uses only ring operations and exact divisions by pivots that
  are nonzero there.  So the survivor holds det(I - M) and the (0, 0)
  cofactor evaluated at t = 2^B, up to one shared sign, whatever pivots
  it took; entries met on the way are never decoded and need no bound.
* Every coefficient of those two minors is at most the least Hadamard
  bound H over the stages of a contraction of the graph (see
  ``_slot_bits``), and B = ceil(log2 H) + 2 makes H < 2^(B-1), so the
  split into balanced signed slots is unique.
* The ratio cofactor / det, normalised by ``RatFun``, does not depend on
  the pivot order.

Two implementation notes.  Pivots are free (full pivoting) and chosen to
keep the active submatrix sparse: fewest z-terms first, then least
Markowitz fill, with index tie-breaks for determinism; the column counts
behind the fill are recounted from the live rows at each pivot step.  And
rows that a pivot step does not touch keep their older scale: a row last
updated at generation g holds its textbook Bareiss value times pivots[g]
over the previous pivot, so its next update divides exactly by pivots[g].
Only the pivot row and the final survivor are rescaled, by one
multiply-and-exact-divide.  Pivots are kept as computed, with the
constant 1 as the zeroth.

``emit_cas_script`` writes the same edges as a Maple-style linear system;
``parse_cas_script`` accepts exactly the scripts it writes and reads them
back into edges, so the text form round-trips to exactly the system it was
emitted from.
"""

from __future__ import annotations

import re
from math import prod

from .engine import DIM_CAP, charge
from .poly import BiPoly, PolyT, RatFun


def generating_function(edges) -> RatFun:
    """Head component of (I - M)^-1 e0 by fraction-free elimination.

    ``edges`` is ``TransferGraph.edges``: entry (dst, src) of M is the sum
    of mult * z * t^k over the triples (dst, k, mult) in edges[src].
    """
    dim = len(edges)
    charge("unknowns of the transfer system", dim, DIM_CAP)
    rhs = dim  # extra column index for the right-hand side e0
    bits = _slot_bits(edges)

    # row i of I - M at t = 2^bits, each entry a map z exponent -> coefficient;
    # every entry of M carries a factor z, so the diagonal's 1 never cancels
    rows: dict = {i: {i: {0: 1}} for i in range(dim)}
    for src, lst in enumerate(edges):
        slots: dict = {}  # dst -> {k: summed mult}
        for dst, k, mult in lst:
            acc = slots.setdefault(dst, {})
            acc[k] = acc.get(k, 0) + mult
        # each summed mult is below the bound H, so it fits its slot
        for dst, acc in slots.items():
            rows[dst].setdefault(src, {})[1] = -_pack_t(acc, bits)
    rows[0][rhs] = {0: 1}

    pivots = [{0: 1}]
    gens = {i: 0 for i in range(dim)}

    def catch_up(i: int, target: int) -> None:
        # rows untouched since generation g carry the uniform Bareiss scale
        # pivots[target]/pivots[g]; both factors telescope exactly
        g = gens[i]
        if g == target:
            return
        row = rows[i]
        scale, div = pivots[target], pivots[g]
        for j, val in row.items():
            row[j] = _exact_div(_cross_terms(val, scale, {}, {}), div)
        gens[i] = target

    for step in range(1, dim):
        count: dict = {}
        for row in rows.values():
            for c in row:
                count[c] = count.get(c, 0) + 1
        best = min(
            (
                (len(entry), (len(row) - 1) * (count[c] - 1), i, c)
                for i, row in rows.items()
                for c, entry in row.items()
                if c != 0 and c != rhs
            ),
            default=None,
        )
        if best is None:
            raise RuntimeError("no pivot available, system is singular")
        r, c = best[2:]

        catch_up(r, step - 1)
        prow = rows.pop(r)
        piv = prow[c]
        for i, arow in rows.items():
            if c not in arow:
                continue
            # a row last updated at generation g carries the scale
            # pivots[g]/pivots[step - 1], which dividing by pivots[g] cancels
            div = pivots[gens[i]]
            vic = arow.pop(c)
            newrow: dict = {}
            for j in arow.keys() | prow.keys():
                if j == c:
                    continue
                num = _cross_terms(piv, arow.get(j, {}), vic, prow.get(j, {}))
                if num:
                    newrow[j] = _exact_div(num, div)
            rows[i] = newrow
            gens[i] = step
        pivots.append(piv)

    (last,) = rows
    # bring the survivor to the final generation so the denominator is the
    # determinant of the quotient system I - M, whose z^0 coefficient is 1
    catch_up(last, dim - 1)
    row = rows[last]
    den = row.get(0)
    if not den:
        raise RuntimeError("head variable dropped out, system is singular")
    return RatFun(
        BiPoly(_unpack_t(row.get(rhs, {}), bits)), BiPoly(_unpack_t(den, bits))
    )


def _cross_terms(p: dict, x: dict, a: dict, b: dict) -> dict:
    """p*x - a*b of z-term maps in one accumulation pass; a plain product
    p*x is _cross_terms(p, x, {}, {})."""
    out: dict = {}
    get = out.get
    for f, g, sign in ((p, x, 1), (a, b, -1)):
        for kf, cf in f.items():
            cf *= sign
            for kg, cg in g.items():
                k = kf + kg
                v = get(k, 0) + cf * cg
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
    return out


def _exact_div(num: dict, den: dict) -> dict:
    """Quotient num/den of two z-term maps by greedy division, which
    Bareiss makes exact; an inexact step is a bug and raises ValueError."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dlead = max(den)
    dcoef = den[dlead]
    rest = [(k, c) for k, c in den.items() if k != dlead]
    q: dict = {}
    r = dict(num)
    while r:
        rlead = max(r)
        kq = rlead - dlead
        qc, rem = divmod(r.pop(rlead), dcoef)
        if kq < 0 or rem:
            raise ValueError("inexact polynomial division")
        q[kq] = qc
        for k, c in rest:
            kk = k + kq
            v = r.get(kk, 0) - c * qc
            if v:
                r[kk] = v
            elif kk in r:
                del r[kk]
    return q


def _slot_bits(edges) -> int:
    """Slot width B that holds every coefficient of det(I - M) and its head cofactor.

    A coefficient is a mean over the torus |z| = |t| = 1, where no entry
    of M (nonnegative coefficients) exceeds its value at z = t = 1, so by
    Hadamard's inequality none of det(I - M) or a cofactor exceeds H, the
    product of the column norms of I - M at z = t = 1.  Eliminating a state
    i != 0 with no self-loop turns each pair of edges j -> i and i -> r, of
    weights a and b, into an edge j -> r of weight a*b: a Schur complement
    on the pivot 1, which keeps M' >= 0, the determinant and the head
    cofactor, so each stage's H bounds them too.  States go fewest
    (in-degree x out-degree) first, ties by index; B = ceil(log2 H) + 2
    for the least H, in integers.  A summed mult of M fits too: a step
    turns an entry into entries at least as large, or drops it where every
    product it enters is 0, and from then on neither minor depends on it.
    """
    out = [{} for _ in edges]  # out[j][r]: summed mult of the edges j -> r
    into = [set() for _ in edges]  # into[r]: every j with an edge j -> r
    for src, lst in enumerate(edges):
        for dst, _, mult in lst:
            out[src][dst] = out[src].get(dst, 0) + mult
            into[dst].add(src)

    def norm2(j):  # column j squared, the diagonal's 1 added to any self-loop
        return sum(w * w for w in out[j].values()) + 2 * out[j].get(j, 0) + 1

    n2 = list(map(norm2, range(len(edges))))
    h2 = least = prod(n2)
    live = {i for i in range(1, len(edges)) if i not in out[i]}  # to eliminate
    while live:
        i = min(live, key=lambda v: (len(into[v]) * len(out[v]), v))
        live.remove(i)
        h2 //= n2[i] * prod(n2[j] for j in into[i])  # columns i and into[i] go
        for j in into[i]:
            a = out[j].pop(i)
            for r, b in out[i].items():
                out[j][r] = out[j].get(r, 0) + a * b
                into[r].add(j)
            n2[j] = norm2(j)
        for r in out[i]:
            into[r].remove(i)
        live -= {j for j in into[i] if j in out[j]}  # a new self-loop keeps j
        h2 *= prod(n2[j] for j in into[i])  # and into[i] come back, updated
        least = min(least, h2)
    # ceil(log2 H) is the least b with 4^b >= H^2
    return ((least - 1).bit_length() + 1) // 2 + 2


def _pack_t(slots: dict, bits: int) -> int:
    """The t-polynomial {k: c}, every 0 <= c < 2^bits, evaluated at t = 2^bits.

    The slots are written into one binary rendering, in time linear in its
    length; shifting and adding them one by one takes quadratic time.
    """
    return int("".join(format(slots.get(k, 0), f"0{bits}b")
                       for k in range(max(slots), -1, -1)), 2)


def _unpack_t(terms: dict, bits: int) -> dict:
    """(z, t) term map of a z-term map evaluated at t = 2^bits.

    The slot of t^k holds a coefficient c with -2^(bits-1) <= c < 2^(bits-1).
    Adding 2^(bits-1) to every slot leaves c + 2^(bits-1) in each with no
    carries, so every slot is read from one binary rendering of the sum.
    """
    out = {}
    half = 1 << (bits - 1)
    for z, value in terms.items():
        # value's balanced slots, with room to spare: the extra slots read 0
        slots = abs(value).bit_length() // bits + 2
        text = format(value + int(f"{half:b}" * slots, 2), f"0{slots * bits}b")
        for k, lo in enumerate(range((slots - 1) * bits, -1, -bits)):
            c = int(text[lo:lo + bits], 2) - half
            if c:
                out[(z, k)] = c
    return out


def series_expand(ratio: RatFun, z_order: int) -> list:
    """Power-series coefficients of z^0 .. z^z_order, as PolyT in t.

    Requires the denominator's z^0 slice to be the constant 1 (true for
    every generating function this library produces), so the standard
    linear recurrence on the coefficients stays polynomial.
    """
    if z_order < 0:
        raise ValueError("z_order must be >= 0")
    den_slices: dict = {}
    for (z, t), c in ratio.den.terms.items():
        den_slices.setdefault(z, {})[t] = c
    if den_slices.get(0) != {0: 1}:
        raise ValueError("denominator z^0 slice must be exactly 1")
    num_slices: dict = {}
    for (z, t), c in ratio.num.terms.items():
        num_slices.setdefault(z, {})[t] = c
    max_lag = max(den_slices)
    out = []
    for j in range(z_order + 1):
        acc = dict(num_slices.get(j, {}))
        get = acc.get
        for lag in range(1, min(j, max_lag) + 1):
            d = den_slices.get(lag)
            if not d:
                continue
            prior = out[j - lag]
            for ta, ca in d.items():
                for tb, cb in prior.items():
                    k = ta + tb
                    v = get(k, 0) - ca * cb
                    if v:
                        acc[k] = v
                    elif k in acc:
                        del acc[k]
        out.append(acc)
    return [PolyT(p) for p in out]


# ---------------------------------------------------------------------------
# CAS script emission and round-trip parsing


def emit_cas_script(edges) -> str:
    """The linear system of ``TransferGraph.edges`` as a solve-and-print script.

    One equation per state: x_i = [i == 0] + sum_j entry(i, j) * x_j, then
    a solve over all unknowns and a print of the head component x0.
    """
    dim = len(edges)
    by_row: list = [{} for _ in range(dim)]
    for src, lst in enumerate(edges):
        for dst, k, mult in lst:
            terms = by_row[dst].setdefault(src, {})
            terms[1, k] = terms.get((1, k), 0) + mult
    lines = []
    for i in range(dim):
        parts = ["1"] if i == 0 else []
        for j, terms in sorted(by_row[i].items()):
            text = BiPoly(terms).render()
            parts.append(f"({text})*x{j}" if len(terms) > 1 else f"{text}*x{j}")
        body = " + ".join(parts) if parts else "0"
        lines.append(f"eq_{i} := x{i} = {body};")
    names = ", ".join(f"x{i}" for i in range(dim))
    eqs = ", ".join(f"eq_{i}" for i in range(dim))
    lines.append(f"sol := solve({{{eqs}}}, {{{names}}});")
    lines.append("print(normal(subs(sol, x0)));")
    return "\n".join(lines) + "\n"


def parse_cas_script(text: str) -> tuple:
    """Read a script that ``emit_cas_script`` wrote back into its edges.

    Each term mult * z^a * t^k of the coefficient of x_j in equation i is
    the edge (i, k, mult) of column j.  The script is accepted only if every
    x_j has an equation, every mult is positive and emitting the edges
    gives back exactly ``text``, which rejects every other deviation: a
    wrong z-degree, terms reordered or repeated, or a line missing or
    added.  Anything else raises ValueError.
    """
    bodies = re.findall(r"^eq_\d+ := x\d+ = (.*);$", text, re.MULTILINE)
    found = [
        (int(j), row, k, mult)
        for row, body in enumerate(bodies)
        for par, bare, j in re.findall(r"(?:\(([^()]*)\)|([^ ()]+))\*x(\d+)", body)
        for (_, k), mult in BiPoly.parse(par or bare).terms.items()
    ]
    if bodies and all(j < len(bodies) and mult > 0 for j, _, _, mult in found):
        cols: list = [[] for _ in bodies]
        for j, row, k, mult in found:
            cols[j].append((row, k, mult))
        edges = tuple(tuple(sorted(col)) for col in cols)
        if emit_cas_script(edges) == text:
            return edges
    raise ValueError("text is not a script that emit_cas_script writes")
