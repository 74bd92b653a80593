#!/usr/bin/env python3
"""Regenerate the catalog of count tables for a range of board shapes.

Writes one block per (square size, board height), each line the table of
an n x m board in the text format `S N M : c0 c1 ... cK : ROWSUM`.  The
catalog for s up to 6 and boards up to 13 columns takes a few seconds.
"""

import argparse
import sys

from sqtilings.cli import _non_negative, _positive
from sqtilings.series import count_tables, paper_line, tables_to_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s-min", type=_positive, default=2)
    parser.add_argument("--s-max", type=_positive, default=6)
    parser.add_argument("--n-max", type=_positive, default=8)
    parser.add_argument("--m-max", type=_non_negative, default=13)
    parser.add_argument("--format", choices=["paper", "csv"], default="paper")
    parser.add_argument("--out", help="write here instead of stdout")
    args = parser.parse_args()

    tables = []
    for s in range(args.s_min, args.s_max + 1):
        for n in range(1, args.n_max + 1):
            # one sweep per (s, n); boards shorter than n are their rotations
            tables.extend(count_tables(s, n, args.m_max)[n:])

    if args.format == "csv":
        text = tables_to_csv(tables)
    else:
        blocks = []
        key = None
        for table in tables:
            if (table.s, table.n) != key:
                key = (table.s, table.n)
                blocks.append(f"# s={table.s} n={table.n}")
            blocks.append(paper_line(table))
        text = "\n".join(blocks) + "\n"

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
