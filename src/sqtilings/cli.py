"""Command-line interface.

Subcommands:

* ``table``  -- count tables for one board or a range of board lengths
* ``square`` -- count tables for square boards up to a given size
* ``gf``     -- closed-form generating function for fixed board height
* ``verify`` -- run the identity and conjecture cross-checks
* ``cas``    -- emit the transfer system as a solve-and-print script

Exit codes: 0 on success, 1 when a verification check fails, 2 for usage
errors (an ``--out`` file that cannot be written among them) and for
boards that exceed a configured cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import __version__
from .engine import DEFAULT_STATE_CAP, StateCapExceeded, enumerate_states
from .gfun import (
    DEFAULT_DIM_CAP,
    DimensionCapExceeded,
    emit_cas_script,
    generating_function,
    parse_cas_script,
)
from .identities import run_verification
from .oracle import DEFAULT_CELL_CAP, BoardTooLarge
from .series import (
    count_table,
    count_tables,
    paper_line,
    table_record,
    tables_to_csv,
)


def _render_tables(tables, fmt: str) -> str:
    if fmt == "paper":
        return "\n".join(paper_line(t) for t in tables) + "\n"
    if fmt == "csv":
        return tables_to_csv(tables)
    return json.dumps([table_record(t) for t in tables], indent=2) + "\n"


def cmd_table(args, out) -> int:
    if args.m is not None:
        tables = [count_table(args.s, args.n, args.m, args.state_cap)]
    else:
        tables = count_tables(args.s, args.n, args.m_max, args.state_cap)
    out.write(_render_tables(tables, args.format))
    return 0


def cmd_square(args, out) -> int:
    tables = [
        count_table(args.s, i, i, args.state_cap)
        for i in range(1, args.size_max + 1)
    ]
    out.write(_render_tables(tables, args.format))
    return 0


def cmd_gf(args, out) -> int:
    graph = enumerate_states(args.s, args.n, args.state_cap)
    ratio = generating_function(graph.edges, args.gf_cap)
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
        state_cap=args.state_cap,
        oracle_cell_cap=args.oracle_cap,
    )
    ok = all(r.passed for r in reports)
    if args.format == "json":
        payload = {
            "passed": ok,
            "reports": [r.to_json_dict() for r in reports],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        lines = [r.render_text() for r in reports]
        total = sum(r.enforced for r in reports)
        verdict = "all passed" if ok else "FAILURES above"
        lines.append(f"{total} enforced checks: {verdict}")
        out.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_cas(args, out) -> int:
    graph = enumerate_states(args.s, args.n, args.state_cap)
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
    common.add_argument(
        "--state-cap", type=_positive, default=DEFAULT_STATE_CAP, metavar="N",
        help="abort if the transfer graph needs more states than this",
    )

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
    p.add_argument(
        "--gf-cap", type=_positive, default=DEFAULT_DIM_CAP, metavar="N",
        help="abort if the lumped linear system has more unknowns than "
        "this; it bounds size, not time (s2n11, dimension 49, takes "
        "8-10 s; s4n12, dimension 58, under 0.3 s)",
    )
    p.set_defaults(func=cmd_gf)

    p = subs.add_parser("verify", parents=[common],
                        help="run identity and conjecture checks")
    p.add_argument("--s-max", type=_positive, default=5)
    p.add_argument("--n-max", type=_positive, default=10)
    p.add_argument("--m-max", type=_non_negative, default=10)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--oracle-cap", type=_non_negative, default=DEFAULT_CELL_CAP,
        metavar="CELLS",
        help="largest board, in cells, recounted by the exhaustive "
        "oracle (0 disables the oracle cross-checks)",
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # open --out before the work starts, as shell redirection does
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
            return args.func(args, out)
    except (StateCapExceeded, BoardTooLarge, DimensionCapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
