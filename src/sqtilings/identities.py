"""Cross-checks of the transfer-matrix counts against independent facts.

Everything here recomputes some slice of the count tables a second way:
closed-form coefficients, row-sum recurrences, symmetry, product
structure for boards barely wider than a square, and exhaustive
enumeration on boards small enough for the brute-force oracle.  Each
check function returns an :class:`IdentityReport`; a report passes when
every enforced check matched.

Checks flagged informational are recorded and rendered but never fail a
report.  The one informational check shipped is the lag-3 row-sum
recurrence on single-lane boards, which is a special case of the true
lag-s recurrence and holds only when s = 3; it is kept visible because it
is an easy recurrence to misremember.

The two ``check_conjectures`` patterns (boards 2s x (2s+1) and
2s x (2s+2)) are conjectured, not proved; a failure there would be a
discovery, so they are enforced and surfaced loudly rather than hidden.

Each check reads its boards through ``tables(s, n, m_max)``, which
returns the count tables for m = 0 .. at least m_max (by default
:func:`count_tables`); :func:`run_verification` gives all five checks one
such source, so a run sweeps each (s, n) once.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .engine import DEFAULT_STATE_CAP
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


class IdentityReport:
    """The named list of checks one check function ran."""

    def __init__(self, name: str, checks=None):
        self.name = name
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.checks) == (other.name, other.checks)

    __hash__ = None

    def __repr__(self):
        return f"IdentityReport(name={self.name!r}, checks={self.checks!r})"

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

    def render_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"[{status}] {self.name}: {self.enforced} checks"]
        for c in self.failures:
            lines.append(
                f"  FAIL {c.identity} [{_fmt_params(c.params)}]: "
                f"expected {c.expected}, got {c.actual}"
            )
        for c in self.checks:
            if c.informational:
                word = "holds" if c.ok else "does not hold"
                lines.append(
                    f"  note {c.identity} [{_fmt_params(c.params)}]: "
                    f"{word} (informational)"
                )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [c._asdict() for c in self.checks],
        }


def _fmt_params(params: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in params.items())


def _coeff(table: CountTable, k: int) -> int:
    return table.counts[k] if 0 <= k < len(table.counts) else 0


def check_basic(
    s_max: int = 5,
    n_max: int = 10,
    m_max: int = 10,
    tables=count_tables,
    oracle_cell_cap: int = 0,
) -> IdentityReport:
    """Coefficient identities that hold for every board.

    Zero squares always one way; one square in (n-s+1)(m-s+1) ways; boards
    too small for any square have the single all-monomer tiling; boards
    with both sides multiples of s have exactly one maximal packing;
    counts are invariant under swapping n and m.  When ``oracle_cell_cap``
    is positive (0 turns the oracle off), the boards n x m with n <= m and
    at most that many cells are also recounted by the exhaustive oracle:
    one :func:`brute_force_tables` pass of width n per (s, n) gives every
    length.
    """
    report = IdentityReport("basic count identities")
    for s in range(1, s_max + 1):
        by_n = {n: tables(s, n, m_max) for n in range(1, n_max + 1)}
        for n in range(1, n_max + 1):
            for m in range(0, m_max + 1):
                table = by_n[n][m]
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
                    by_n[a][b].counts,
                    by_n[b][a].counts,
                )
        if oracle_cell_cap:
            for n in range(1, n_max + 1):
                last = min(m_max, oracle_cell_cap // n)
                if last < n:
                    continue
                brute = brute_force_tables(s, n, last, oracle_cell_cap)
                for m in range(n, last + 1):
                    report.add(
                        "oracle_agreement",
                        {"s": s, "n": n, "m": m},
                        brute[m].counts,
                        by_n[n][m].counts,
                    )
    return report


def _trim(counts: list) -> tuple:
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def check_single_lane(
    s_max: int = 5,
    m_max: int = 20,
    tables=count_tables,
) -> IdentityReport:
    """Boards of height exactly s, where everything is known in closed form.

    Squares occupy disjoint length-s windows of the strip, so the count
    with k squares is C(m - (s-1)k, k) and the row sums satisfy
    a(m) = a(m-1) + a(m-s).
    """
    report = IdentityReport("single-lane closed forms")
    for s in range(1, s_max + 1):
        lane = tables(s, s, m_max)
        sums = [t.row_sum for t in lane]
        for m in range(0, m_max + 1):
            expected = _trim([comb(m - (s - 1) * k, k) for k in range(m // s + 1)])
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


def check_subwidth(
    s_max: int = 5,
    n_max: int = 10,
    m_max: int = 10,
    tables=count_tables,
) -> IdentityReport:
    """Boards with s <= n < 2s factor through the single-lane counts.

    No two squares can share a column range, so a tiling is a single-lane
    tiling of the s x m strip plus an independent choice of n - s + 1
    vertical offsets per square: counts pick up the factor (n-s+1)^k.
    """
    report = IdentityReport("subwidth product structure")
    for s in range(1, s_max + 1):
        base = tables(s, s, m_max)
        for n in range(s, min(2 * s - 1, n_max) + 1):
            wide = tables(s, n, m_max)
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


def check_two_s_square(
    s_max: int = 5,
    tables=count_tables,
) -> IdentityReport:
    """The 2s x 2s board has the same count vector for every s.

    (1, (s+1)^2, 2s(s+2), 4s, 1): the four maximal packings collapse to
    one, and the lower coefficients come from counting the free corners.
    """
    report = IdentityReport("2s x 2s square boards")
    for s in range(1, s_max + 1):
        expected = (1, (s + 1) ** 2, 2 * s * (s + 2), 4 * s, 1)
        report.add(
            "two_s_square_counts",
            {"s": s, "n": 2 * s, "m": 2 * s},
            expected,
            tables(s, 2 * s, 2 * s)[2 * s].counts,
        )
    return report


def check_conjectures(
    near_square_s=(2, 3, 4),
    offset_square_s=(3, 4),
    tables=count_tables,
    oracle_cell_cap: int = 0,
) -> IdentityReport:
    """Conjectured count vectors for boards one or two columns past 2s x 2s.

    For 2s x (2s+1), s >= 2, the counts appear to be
    (1, (s+1)(s+2), 4s^2+10s+1, 16s+2, 9); for 2s x (2s+2), s >= 3,
    (1, (s+1)(s+3), 7s^2+18s+3, 40s+8, 36).  Unproved: these checks
    confirm instances, and a failing instance would refute the pattern.
    When ``oracle_cell_cap`` is positive, each board with at most that
    many cells is also recounted as the last table of one
    :func:`brute_force_tables` pass: m = 2s+1 or 2s+2 rows of width 2s.
    """
    report = IdentityReport("conjectured near-square count vectors")
    patterns = (
        # (identity, sizes, smallest s, columns past 2s, conjectured vector)
        ("near_square_counts", near_square_s, 2, 1,
         lambda s: (1, (s + 1) * (s + 2), 4 * s * s + 10 * s + 1, 16 * s + 2, 9)),
        ("offset_square_counts", offset_square_s, 3, 2,
         lambda s: (1, (s + 1) * (s + 3), 7 * s * s + 18 * s + 3, 40 * s + 8, 36)),
    )
    for identity, sizes, s_min, extra, vector in patterns:
        for s in sizes:
            if s < s_min:
                continue
            n, m = 2 * s, 2 * s + extra
            actual = tables(s, n, m)[m].counts
            report.add(identity, {"s": s, "n": n, "m": m}, vector(s), actual)
            if oracle_cell_cap and n * m <= oracle_cell_cap:
                report.add(
                    "oracle_agreement",
                    {"s": s, "n": n, "m": m},
                    brute_force_tables(s, n, m, oracle_cell_cap)[m].counts,
                    actual,
                )
    return report


def run_verification(
    s_max: int = 5,
    n_max: int = 10,
    m_max: int = 10,
    state_cap: int = DEFAULT_STATE_CAP,
    oracle_cell_cap: int = 0,
) -> list:
    """Every identity report in one list, for the CLI and the test suite.

    The checks share one table source; it sweeps an (s, n) again only when
    a check asks for a longer board than the stored sweep reached.
    """
    swept: dict = {}

    def tables(s, n, m):
        have = swept.get((s, n))
        if have is None or len(have) <= m:
            have = swept[(s, n)] = count_tables(s, n, m, state_cap)
        return have

    return [
        check_basic(s_max, n_max, m_max, tables, oracle_cell_cap),
        check_single_lane(s_max, max(m_max, 2 * s_max), tables),
        check_subwidth(s_max, n_max, m_max, tables),
        check_two_s_square(s_max, tables),
        check_conjectures(tables=tables, oracle_cell_cap=oracle_cell_cap),
    ]
