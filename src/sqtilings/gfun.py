"""Closed-form generating functions from the transfer graph.

For fixed width n the bivariate generating function is the head component
of the solution of (I - M) x = e0, where M is the weighted adjacency
matrix of the transfer graph over Z[z, t].  That graph is lumped on
mirror-image pairs of fronts (see :mod:`sqtilings.engine`), so M is the
quotient system: its head component is the same rational function, and
det(I - M) is a factor of the unlumped one.  The solve runs entirely in
Z[z, t] using one-step fraction-free (Bareiss) elimination: every division
performed is exact, so no rational-function or gcd machinery is needed,
and the head component drops out of the final surviving equation as a
numerator/denominator pair.

Two implementation notes.  Pivots are free (full pivoting) and chosen to
keep the active submatrix sparse: fewest-term entry first, then least
Markowitz fill, with index tie-breaks for determinism.  And rows that a
pivot step does not touch are left at their older scale instead of being
rescaled immediately; the cumulative scale factor telescopes to a single
multiply-and-exact-divide when the row is next used.  Values agree with
textbook Bareiss at every step, only the bookkeeping is batched.

``emit_cas_script`` writes the same linear system as a Maple-style script;
``parse_cas_script`` reads one back, so the text form can be round-tripped
and re-solved as an independent path to the same closed form.
"""

from __future__ import annotations

import re

from .poly import (
    BiPoly,
    PolyT,
    RatFun,
    _cross_terms,
    _exact_div_terms,
    _mul_terms,
    _pack,
    _TMASK,
    _SHIFT,
)

DEFAULT_DIM_CAP = 400


class DimensionCapExceeded(RuntimeError):
    """Transfer system is larger than the configured elimination cap."""

    def __init__(self, dim: int, cap: int):
        self.dim = dim
        self.cap = cap
        super().__init__(f"transfer system has dimension {dim}, cap is {cap}")


class EliminationError(RuntimeError):
    """The linear system degenerated; impossible for well-formed transfer graphs."""


class SymbolicTransferMatrix:
    """Sparse matrix with entry (r, c) = sum over edges c -> r of mult * z * t^k."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict):
        self.dim = dim
        self.entries = entries  # dict[(row, col)] -> BiPoly, zero entries absent

    def __repr__(self):
        return f"SymbolicTransferMatrix(dim={self.dim}, nnz={len(self.entries)})"


def build_matrix(graph) -> SymbolicTransferMatrix:
    """Weighted adjacency matrix of a transfer graph, column = source state."""
    raw: dict = {}
    for src, lst in enumerate(graph.edges):
        for dst, k, mult in lst:
            terms = raw.setdefault((dst, src), {})
            key = _pack(1, k)
            terms[key] = terms.get(key, 0) + mult
    return SymbolicTransferMatrix(graph.dim, {rc: BiPoly(t) for rc, t in raw.items()})


def _is_unit(p: dict) -> bool:
    return len(p) == 1 and p.get(0) == 1


_ONE = {0: 1}


def generating_function(
    mat: SymbolicTransferMatrix, dim_cap: int = DEFAULT_DIM_CAP
) -> RatFun:
    """Head component of (I - M)^-1 e0 by fraction-free elimination."""
    dim = mat.dim
    if dim > dim_cap:
        raise DimensionCapExceeded(dim, dim_cap)
    rhs = dim  # extra column index for the right-hand side e0

    rows: dict = {i: {} for i in range(dim)}
    for (r, c), poly in mat.entries.items():
        rows[r][c] = {k: -v for k, v in poly.terms.items()}
    for i in range(dim):
        row = rows[i]
        diag = row.setdefault(i, {})
        v = diag.get(0, 0) + 1
        if v:
            diag[0] = v
        elif 0 in diag:
            del diag[0]
        if not diag:
            del row[i]
    rows[0][rhs] = {0: 1}

    colindex: dict = {}
    for i, row in rows.items():
        for c in row:
            colindex.setdefault(c, set()).add(i)

    pivots = [_ONE]
    gens = {i: 0 for i in range(dim)}

    def catch_up(i: int, target: int) -> None:
        # rows untouched since generation g carry the uniform Bareiss scale
        # pivots[target]/pivots[g]; both factors telescope exactly
        g = gens[i]
        if g == target:
            return
        mul_p = pivots[target]
        div_p = pivots[g]
        row = rows[i]
        for j, val in row.items():
            if mul_p is not _ONE:
                val = _mul_terms(val, mul_p)
            if div_p is not _ONE:
                val = _exact_div_terms(val, div_p)
            row[j] = val
        gens[i] = target

    for step in range(1, dim):
        prev = pivots[step - 1]
        best = None
        for c, rowset in colindex.items():
            if c == 0 or c == rhs or not rowset:
                continue
            cfill = len(rowset) - 1
            for i in rowset:
                key = (len(rows[i][c]), (len(rows[i]) - 1) * cfill, i, c)
                if best is None or key < best[0]:
                    best = (key, i, c)
        if best is None:
            raise EliminationError("no pivot available, system is singular")
        _, r, c = best

        catch_up(r, step - 1)
        prow = rows[r]
        piv = prow[c]
        for i in list(colindex[c]):
            if i == r:
                continue
            catch_up(i, step - 1)
            arow = rows[i]
            vic = arow.pop(c)
            colindex[c].discard(i)
            newrow: dict = {}
            for j in arow.keys() | prow.keys():
                if j == c:
                    continue
                vrj = prow.get(j)
                cur = arow.get(j)
                if vrj is None:
                    num = _mul_terms(cur, piv)
                elif cur is None:
                    num = {k: -v for k, v in _mul_terms(vic, vrj).items()}
                else:
                    num = _cross_terms(piv, cur, vic, vrj)
                if num:
                    newrow[j] = (
                        num if prev is _ONE else _exact_div_terms(num, prev)
                    )
            for j in arow:
                if j not in newrow:
                    colindex[j].discard(i)
            for j in newrow:
                if j not in arow:
                    colindex.setdefault(j, set()).add(i)
            rows[i] = newrow
            gens[i] = step

        for j in prow:
            colindex[j].discard(r)
        del rows[r]
        pivots.append(_ONE if _is_unit(piv) else piv)

    (last,) = rows
    # bring the survivor to the final generation so the denominator is the
    # determinant of the quotient system I - M, whose z^0 coefficient is 1
    catch_up(last, dim - 1)
    row = rows[last]
    den = row.get(0)
    if not den:
        raise EliminationError("head variable dropped out, system is singular")
    return RatFun(BiPoly(row.get(rhs, {})), BiPoly(den))


def series_expand(ratio: RatFun, z_order: int) -> list:
    """Power-series coefficients of z^0 .. z^z_order, as PolyT in t.

    Requires the denominator's z^0 slice to be the constant 1 (true for
    every generating function this library produces), so the standard
    linear recurrence on the coefficients stays polynomial.
    """
    if z_order < 0:
        raise ValueError("z_order must be >= 0")
    den_slices: dict = {}
    for key, c in ratio.den.terms.items():
        den_slices.setdefault(key >> _SHIFT, {})[key & _TMASK] = c
    if den_slices.get(0) != {0: 1}:
        raise ValueError("denominator z^0 slice must be exactly 1")
    num_slices: dict = {}
    for key, c in ratio.num.terms.items():
        num_slices.setdefault(key >> _SHIFT, {})[key & _TMASK] = c
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


def emit_cas_script(mat: SymbolicTransferMatrix) -> str:
    """The linear system as a solve-and-print script.

    One equation per state: x_i = [i == 0] + sum_j entry(i, j) * x_j, then
    a solve over all unknowns and a print of the head component x0.
    """
    dim = mat.dim
    by_row: dict = {}
    for (r, c), poly in mat.entries.items():
        by_row.setdefault(r, {})[c] = poly
    lines = []
    for i in range(dim):
        parts = ["1"] if i == 0 else []
        for j, poly in sorted(by_row.get(i, {}).items()):
            text = poly.render()
            if len(poly.terms) > 1:
                parts.append(f"({text})*x{j}")
            elif text == "1":
                parts.append(f"x{j}")
            else:
                parts.append(f"{text}*x{j}")
        body = " + ".join(parts) if parts else "0"
        lines.append(f"eq_{i} := x{i} = {body};")
    names = ", ".join(f"x{i}" for i in range(dim))
    eqs = ", ".join(f"eq_{i}" for i in range(dim))
    lines.append(f"sol := solve({{{eqs}}}, {{{names}}});")
    lines.append("print(normal(subs(sol, x0)));")
    return "\n".join(lines) + "\n"


_EQ_RE = re.compile(r"^eq_(\d+)\s*:=\s*x(\d+)\s*=\s*(.*);$")
_TERM_RE = re.compile(r"^(?:\(([^()]*)\)|([^()]*?))\*?x(\d+)$")


def parse_cas_script(text: str) -> SymbolicTransferMatrix:
    """Rebuild the transfer matrix from an emitted script."""
    entries: dict = {}
    consts: dict = {}
    count = 0
    for line in text.splitlines():
        line = line.strip()
        m = _EQ_RE.match(line)
        if m is None:
            continue
        eq_i, var_i, body = int(m.group(1)), int(m.group(2)), m.group(3)
        if eq_i != var_i:
            raise ValueError(f"equation eq_{eq_i} defines x{var_i}")
        count += 1
        for term in _split_sum(body):
            tm = _TERM_RE.match(term)
            if tm is not None:
                par, bare, j = tm.group(1), tm.group(2), int(tm.group(3))
                coeff_text = par if par is not None else bare
                coeff = (
                    BiPoly.one()
                    if coeff_text in ("", "+")
                    else BiPoly.parse(coeff_text.rstrip("*") or "1")
                )
                key = (eq_i, j)
                entries[key] = entries.get(key, BiPoly.zero()) + coeff
            else:
                consts[eq_i] = consts.get(eq_i, BiPoly.zero()) + BiPoly.parse(term)
    if count == 0:
        raise ValueError("no equations found in script")
    dim = count
    for (r, c) in entries:
        if r >= dim or c >= dim:
            raise ValueError("equation references an unknown outside the system")
    expected = {0: BiPoly.one()}
    if consts != expected:
        raise ValueError("constant terms do not describe a head-vector system")
    return SymbolicTransferMatrix(
        dim, {rc: p for rc, p in entries.items() if not p.is_zero}
    )


def _split_sum(body: str) -> list:
    """Split an equation body on top-level +/- signs."""
    s = "".join(body.split())
    if not s:
        return []
    parts = []
    depth = 0
    start = 0
    for pos, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and pos > start:
            parts.append(s[start:pos])
            start = pos if ch == "-" else pos + 1
    parts.append(s[start:])
    return [p for p in parts if p]
