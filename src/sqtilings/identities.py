"""Cross-checks of the transfer-matrix counts against independent facts.

Everything here recomputes some slice of the count tables a second way:
closed-form coefficients, row-sum recurrences, symmetry, product
structure for boards barely wider than a square, and exhaustive
enumeration on boards small enough for the brute-force oracle.  Each
check function returns an :class:`IdentityReport`; a report passes when
every enforced check matched.  This module only checks: ``sqtilings
verify`` writes the reports' text and JSON in :mod:`sqtilings.cli`.

Checks flagged informational are recorded and shown but never fail a
report.  The one informational check shipped is the lag-3 row-sum
recurrence on single-lane boards, which is a special case of the true
lag-s recurrence and holds only when s = 3; it is kept visible because it
is an easy recurrence to misremember.

The two ``_check_conjectures`` patterns (boards 2s x (2s+1) and
2s x (2s+2)) are conjectured, not proved; a failure there would be a
discovery, so they are enforced and surfaced loudly rather than hidden.

:func:`run_verification` is the one entry point, and the checks are its
steps.  :func:`_plan` works out from the grid alone the longest board each
check reads per (s, n); the run sweeps each planned (s, n) once and makes
one oracle pass per planned width, and the checks read ``tables[s, n][m]``
and ``brute[s, n][m]``, so a board outside the plan raises.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .engine import SWEEP_BUDGET, _charge_unit_graph, charge
from .oracle import brute_force_tables
from .series import CountTable, count_tables


class CheckResult(
    namedtuple(
        "CheckResult",
        "identity params expected actual ok informational",
        defaults=(False,),
    )
):
    """One comparison of an expected value with the computed one."""

    __slots__ = ()


class IdentityReport(namedtuple("IdentityReport", "name checks")):
    """The named list of checks one check function ran."""

    __slots__ = ()

    def add(self, identity, params, expected, actual, informational=False):
        self.checks.append(
            CheckResult(
                identity, dict(params), expected, actual, expected == actual,
                informational,
            )
        )

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks if not c.informational)

    @property
    def enforced(self) -> int:
        """How many checks count towards :attr:`passed`."""
        return sum(1 for c in self.checks if not c.informational)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.ok and not c.informational]


def _coeff(table: CountTable, k: int) -> int:
    return table.counts[k] if 0 <= k < len(table.counts) else 0


def _check_basic(s_max, n_max, m_max, tables, oracle_cell_cap, brute) -> IdentityReport:
    """Coefficient identities that hold for every board.

    Zero squares always one way; one square in (n-s+1)(m-s+1) ways; boards
    too small for any square have the single all-monomer tiling; boards
    with both sides multiples of s have exactly one maximal packing;
    counts are invariant under swapping n and m.  The boards n x m with
    n <= m and at most ``oracle_cell_cap`` cells (none when it is 0) are
    also recounted by the exhaustive oracle, read from ``brute[s, n]``.
    """
    report = IdentityReport("basic count identities", [])
    for s in range(1, s_max + 1):
        for n in range(1, n_max + 1):
            for m in range(0, m_max + 1):
                table = tables[s, n][m]
                report.add(
                    "zero_squares",
                    {"s": s, "n": n, "m": m},
                    1,
                    _coeff(table, 0),
                )
                report.add(
                    "one_square",
                    {"s": s, "n": n, "m": m},
                    max(0, n - s + 1) * max(0, m - s + 1),
                    _coeff(table, 1),
                )
                if s > n or s > m:
                    report.add(
                        "monomers_only",
                        {"s": s, "n": n, "m": m},
                        (1,),
                        table.counts,
                    )
                elif n % s == 0 and m % s == 0:
                    k_full = (n // s) * (m // s)
                    report.add(
                        "unique_full_packing",
                        {"s": s, "n": n, "m": m},
                        (k_full, 1),
                        (len(table.counts) - 1, table.counts[-1]),
                    )
                if s == 2 and n == 3:
                    report.add(
                        "jacobsthal_row_sum",
                        {"s": s, "n": n, "m": m},
                        (2 ** (m + 1) + (-1) ** m) // 3,
                        table.row_sum,
                    )
        for a in range(1, min(n_max, m_max) + 1):
            for b in range(a + 1, min(n_max, m_max) + 1):
                report.add(
                    "rotation_symmetry",
                    {"s": s, "n": a, "m": b},
                    tables[s, a][b].counts,
                    tables[s, b][a].counts,
                )
        for n in range(1, n_max + 1):
            for m in range(n, min(m_max, oracle_cell_cap // n) + 1):
                report.add(
                    "oracle_agreement",
                    {"s": s, "n": n, "m": m},
                    brute[s, n][m].counts,
                    tables[s, n][m].counts,
                )
    return report


def _check_single_lane(s_max, m_max, tables) -> IdentityReport:
    """Boards of height exactly s, where everything is known in closed form.

    Squares occupy disjoint length-s windows of the strip, so the count
    with k squares is C(m - (s-1)k, k) and the row sums satisfy
    a(m) = a(m-1) + a(m-s).
    """
    report = IdentityReport("single-lane closed forms", [])
    for s in range(1, s_max + 1):
        lane = tables[s, s]
        sums = [lane[m].row_sum for m in range(m_max + 1)]
        for m in range(0, m_max + 1):
            # m >= s*k makes every entry at least 1, so none needs trimming
            expected = tuple(comb(m - (s - 1) * k, k) for k in range(m // s + 1))
            report.add(
                "single_lane_binomial",
                {"s": s, "m": m},
                expected,
                lane[m].counts,
            )
        for m in range(s, m_max + 1):
            report.add(
                "single_lane_lag_s_recurrence",
                {"s": s, "m": m},
                sums[m - 1] + sums[m - s],
                sums[m],
            )
        if m_max >= 3:
            report.add(
                "single_lane_lag_3_recurrence",
                {"s": s},
                True,
                all(sums[m] == sums[m - 1] + sums[m - 3] for m in range(3, m_max + 1)),
                informational=True,
            )
    return report


def _check_subwidth(s_max, n_max, m_max, tables) -> IdentityReport:
    """Boards with s <= n < 2s factor through the single-lane counts.

    No two squares can share a column range, so a tiling is a single-lane
    tiling of the s x m strip plus an independent choice of n - s + 1
    vertical offsets per square: counts pick up the factor (n-s+1)^k.
    """
    report = IdentityReport("subwidth product structure", [])
    for s in range(1, s_max + 1):
        base = tables[s, s]
        for n in range(s, min(2 * s - 1, n_max) + 1):
            wide = tables[s, n]
            for m in range(0, m_max + 1):
                expected = tuple(
                    (n - s + 1) ** k * c for k, c in enumerate(base[m].counts)
                )
                report.add(
                    "subwidth_offset_factor",
                    {"s": s, "n": n, "m": m},
                    expected,
                    wide[m].counts,
                )
    return report


def _check_two_s_square(s_max, tables) -> IdentityReport:
    """The 2s x 2s board has the same count vector for every s.

    (1, (s+1)^2, 2s(s+2), 4s, 1): the four maximal packings collapse to
    one, and the lower coefficients come from counting the free corners.
    """
    report = IdentityReport("2s x 2s square boards", [])
    for s in range(1, s_max + 1):
        expected = (1, (s + 1) ** 2, 2 * s * (s + 2), 4 * s, 1)
        report.add(
            "two_s_square_counts",
            {"s": s, "n": 2 * s, "m": 2 * s},
            expected,
            tables[s, 2 * s][2 * s].counts,
        )
    return report


# (identity, sizes s, columns past 2s, conjectured vector); _plan reads these too
_CONJECTURES = (
    ("near_square_counts", (2, 3, 4), 1,
     lambda s: (1, (s + 1) * (s + 2), 4 * s * s + 10 * s + 1, 16 * s + 2, 9)),
    ("offset_square_counts", (3, 4), 2,
     lambda s: (1, (s + 1) * (s + 3), 7 * s * s + 18 * s + 3, 40 * s + 8, 36)),
)


def _check_conjectures(tables, oracle_cell_cap, brute) -> IdentityReport:
    """Conjectured count vectors for boards one or two columns past 2s x 2s.

    For 2s x (2s+1), s >= 2, the counts appear to be
    (1, (s+1)(s+2), 4s^2+10s+1, 16s+2, 9); for 2s x (2s+2), s >= 3,
    (1, (s+1)(s+3), 7s^2+18s+3, 40s+8, 36).  Unproved: these checks
    confirm the instances s = 2, 3, 4 and s = 3, 4, and a failing
    instance would refute the pattern.
    Each board with at most ``oracle_cell_cap`` cells is also recounted
    by the oracle, read from ``brute[s, 2s]``.
    """
    report = IdentityReport("conjectured near-square count vectors", [])
    for identity, sizes, extra, vector in _CONJECTURES:
        for s in sizes:
            n, m = 2 * s, 2 * s + extra
            actual = tables[s, n][m].counts
            report.add(identity, {"s": s, "n": n, "m": m}, vector(s), actual)
            if n * m <= oracle_cell_cap:
                report.add(
                    "oracle_agreement",
                    {"s": s, "n": n, "m": m},
                    brute[s, n][m].counts,
                    actual,
                )
    return report


def _plan(s_max, n_max, m_max, oracle_cell_cap):
    """The longest board the checks read of each (s, n), worked out from
    the grid alone: two dicts (s, n) -> m, one for the sweeps and one for
    the oracle passes, each in the order the checks first read them."""
    sides = range(1, s_max + 1)
    grid = [(s, n, m_max) for s in sides for n in range(1, n_max + 1)]
    near = [(s, 2 * s, 2 * s + extra) for _, sizes, extra, _ in _CONJECTURES for s in sizes]
    sweeps = grid + [(s, s, max(m_max, 2 * s_max)) for s in sides]
    sweeps += [(s, 2 * s, 2 * s) for s in sides] + near
    passes = [(s, n, m) for s, n, _ in grid
              for m in [min(m_max, oracle_cell_cap // n)] if m >= n]
    passes += [(s, n, m) for s, n, m in near if n * m <= oracle_cell_cap]
    plan = ({}, {})
    for longest, reads in zip(plan, (sweeps, passes)):
        for s, n, m in reads:
            longest[s, n] = max(m, longest.get((s, n), m))
    return plan


def run_verification(s_max: int, n_max: int, m_max: int, oracle_cell_cap: int) -> list:
    """Every identity report in one list, for the CLI and the test suite.

    The grid is s = 1 .. s_max, n = 1 .. n_max and m = 0 .. m_max, with the
    single-lane boards run to length max(m_max, 2 s_max).
    ``oracle_cell_cap`` goes to the checks that recount boards with the
    oracle; 0 turns the oracle off.  Each (s, n) of the :func:`_plan` is
    swept once into ``tables`` and each planned width passed once into
    ``brute``, and the checks read those two dicts.  Building the plan
    takes time in s_max * n_max, so a closed-form lower bound on its word
    operations, one per planned step, is charged before it, and so is the
    s = 1 graph of width n_max, which the plan always sweeps: that bounds
    n_max even when m_max is small.
    """
    charge("lower bound on the word operations of the verify grid's sweeps",
           s_max * ((n_max - 1) * m_max + max(m_max, 2 * s_max)), SWEEP_BUDGET)
    _charge_unit_graph(n_max)
    sweeps, passes = _plan(s_max, n_max, m_max, oracle_cell_cap)
    tables = {sn: count_tables(*sn, m) for sn, m in sweeps.items()}
    brute = {sn: brute_force_tables(*sn, m, oracle_cell_cap) for sn, m in passes.items()}
    return [
        _check_basic(s_max, n_max, m_max, tables, oracle_cell_cap, brute),
        _check_single_lane(s_max, max(m_max, 2 * s_max), tables),
        _check_subwidth(s_max, n_max, m_max, tables),
        _check_two_s_square(s_max, tables),
        _check_conjectures(tables, oracle_cell_cap, brute),
    ]
