"""Command-line interface.

Subcommands:

* ``table``  -- count tables for one board or a range of board lengths
* ``square`` -- count tables for square boards up to a given size
* ``gf``     -- closed-form generating function for fixed board height
* ``verify`` -- run the identity and conjecture cross-checks
* ``cas``    -- emit the transfer system as a solve-and-print script

Exit codes: 0 on success, 1 when a verification check fails, 2 for usage
errors (an ``--out`` file that cannot be written among them) and for runs
past a cap or budget, each worded by ``engine.charge``.  The state and
dimension caps and the transition, sweep and table budgets are constants
in :mod:`sqtilings.engine`; the oracle's cell cap, ``verify
--oracle-cap``, is the one limit that is an option.

A run loads only the modules its subcommand calls: ``gf`` never imports
``series``, ``identities`` or ``oracle``, and ``table`` never imports
``gfun`` or ``poly``.  The table and report formats live here, built
from the ``CountTable`` and ``IdentityReport`` fields, so ``series`` only
counts and ``identities`` only checks.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from . import __version__
from .engine import DEFAULT_CELL_CAP, CapExceeded, enumerate_states


# gf and verify call their module's entry point through these, which import
# it when called, so no other command loads it; as attributes of this module,
# a test or a tracer can replace them like any other function.
def generating_function(edges):
    from .gfun import generating_function

    return generating_function(edges)


def run_verification(s_max, n_max, m_max, oracle_cell_cap):
    from .identities import run_verification

    return run_verification(s_max, n_max, m_max, oracle_cell_cap)


def _render_tables(tables, fmt: str) -> str:
    if fmt == "json":
        import json  # here, as json is the only format that needs it

        records = [{**t._asdict(), "row_sum": t.row_sum} for t in tables]
        return json.dumps(records, indent=2) + "\n"
    if fmt == "paper":
        lines = [f"{t.s} {t.n} {t.m} : {' '.join(map(str, t.counts))} : {t.row_sum}"
                 for t in tables]
    else:  # csv: every field is an int, so none needs quoting
        lines = ["s,n,m,k,count"]
        lines += [f"{t.s},{t.n},{t.m},{k},{c}" for t in tables for k, c in enumerate(t.counts)]
    return "\n".join(lines) + "\n"


def _render_reports(reports, fmt: str) -> str:
    ok = all(r.passed for r in reports)
    if fmt == "json":
        import json

        records = [{"name": r.name, "passed": r.passed,
                    "checks": [c._asdict() for c in r.checks]} for r in reports]
        return json.dumps({"passed": ok, "reports": records}, indent=2) + "\n"

    def where(c):
        return f"{c.identity} [{' '.join(f'{k}={v}' for k, v in c.params.items())}]"

    lines = []
    for r in reports:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.enforced} checks")
        lines += [f"  FAIL {where(c)}: expected {c.expected}, got {c.actual}"
                  for c in r.failures]
        lines += [f"  note {where(c)}: {'holds' if c.ok else 'does not hold'} (informational)"
                  for c in r.checks if c.informational]
    verdict = "all passed" if ok else "FAILURES above"
    lines.append(f"{sum(r.enforced for r in reports)} enforced checks: {verdict}")
    return "\n".join(lines) + "\n"


def cmd_table(args, out) -> int:
    from .series import count_table, count_tables

    if args.m is not None:
        tables = [count_table(args.s, args.n, args.m)]
    else:
        tables = count_tables(args.s, args.n, args.m_max)
    out.write(_render_tables(tables, args.format))
    return 0


def cmd_square(args, out) -> int:
    from .series import count_table

    # the largest board runs first, so one past a cap or budget is refused
    # before any smaller board is swept
    tables = [count_table(args.s, i, i) for i in range(args.size_max, 0, -1)][::-1]
    out.write(_render_tables(tables, args.format))
    return 0


def cmd_gf(args, out) -> int:
    ratio = generating_function(enumerate_states(args.s, args.n).edges)
    lines = [ratio.render()]
    if args.row_sums:
        lines.append(ratio.substitute_t(1).render())
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_verify(args, out) -> int:
    reports = run_verification(
        s_max=args.s_max,
        n_max=args.n_max,
        m_max=args.m_max,
        oracle_cell_cap=args.oracle_cap,
    )
    out.write(_render_reports(reports, args.format))
    return 0 if all(r.passed for r in reports) else 1


def cmd_cas(args, out) -> int:
    from .gfun import emit_cas_script, parse_cas_script

    graph = enumerate_states(args.s, args.n)
    script = emit_cas_script(graph.edges)
    out.write(script)
    if args.check:
        if parse_cas_script(script) != graph.edges:
            print("cas round-trip mismatch", file=sys.stderr)
            return 1
        print("cas round-trip ok", file=sys.stderr)
    return 0


def _int_at_least(low: int):
    """argparse type for integers >= low, so bad values exit 2 as usage errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqtilings",
        description="Exact counts of s x s square plus monomer tilings of "
        "n x m boards, as tables and as generating functions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write to this file instead of stdout")

    p = subs.add_parser("table", parents=[common],
                        help="count tables for one board height")
    p.add_argument("--s", type=_positive, required=True, help="square side length")
    p.add_argument("--n", type=_positive, required=True, help="board height")
    length = p.add_mutually_exclusive_group(required=True)
    length.add_argument("--m", type=_non_negative, help="board length")
    length.add_argument("--m-max", type=_non_negative, metavar="M",
                        help="emit all lengths 0..M from one sweep")
    p.add_argument("--format", choices=["paper", "csv", "json"], default="paper")
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("square", parents=[common],
                        help="count tables for square boards")
    p.add_argument("--s", type=_positive, required=True, help="square side length")
    p.add_argument("--size-max", type=_positive, required=True, metavar="N",
                   help="largest board size, runs 1x1 up to NxN")
    p.add_argument("--format", choices=["paper", "csv", "json"], default="paper")
    p.set_defaults(func=cmd_square)

    p = subs.add_parser("gf", parents=[common],
                        help="closed-form generating function")
    p.add_argument("--s", type=_positive, required=True, help="square side length")
    p.add_argument("--n", type=_positive, required=True, help="board height")
    p.add_argument("--row-sums", action="store_true",
                   help="also print the t=1 specialization")
    p.set_defaults(func=cmd_gf)

    p = subs.add_parser("verify", parents=[common],
                        help="run identity and conjecture checks")
    p.add_argument("--s-max", type=_positive, default=5,
                   help="largest square side of the identity checks (default "
                   "5); the conjecture instances s = 2, 3, 4 run whatever it is")
    p.add_argument("--n-max", type=_positive, default=10,
                   help="largest board height checked (default 10)")
    p.add_argument("--m-max", type=_non_negative, default=10,
                   help="largest board length checked (default 10)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (default text)")
    p.add_argument(
        "--oracle-cap", type=_non_negative, default=DEFAULT_CELL_CAP, metavar="CELLS",
        help="largest board, in cells, recounted by the exhaustive "
        "oracle (default %(default)s; 0 disables the oracle cross-checks)",
    )
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("cas", parents=[common],
                        help="emit the transfer system as a script")
    p.add_argument("--s", type=_positive, required=True, help="square side length")
    p.add_argument("--n", type=_positive, required=True, help="board height")
    p.add_argument("--check", action="store_true",
                   help="parse the emitted script back and compare it with "
                   "the transfer graph's edges")
    p.set_defaults(func=cmd_cas)

    return parser


def main(argv=None) -> int:
    # a count can pass the 4300-digit limit that Python 3.10.7 and later
    # put on int-to-str conversion, and every table format prints it whole;
    # the limit is lifted for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # open --out before the work starts, as shell redirection does
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
            return args.func(args, out)
    except (CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
