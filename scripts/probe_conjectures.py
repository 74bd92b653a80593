#!/usr/bin/env python3
"""Test the conjectured near-square count vectors on larger squares.

The default identity suite checks boards 2s x (2s+1) for s in {2,3,4}
and 2s x (2s+2) for s in {3,4}.  This script pushes both families to a
chosen s, recounting each board with the transfer matrix (and with the
exhaustive oracle where the board is small enough).  A refuting instance
would exit nonzero and print the offending counts.
"""

import argparse
import sys
import time

from sqtilings.cli import _non_negative, _positive
from sqtilings.identities import check_conjectures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s-max", type=_positive, default=8,
                        help="largest square side to test (default 8)")
    parser.add_argument("--oracle-cap", type=_non_negative, default=64,
                        help="cell budget for oracle recounts, 0 to disable")
    args = parser.parse_args()

    t0 = time.perf_counter()
    report = check_conjectures(
        near_square_s=tuple(range(2, args.s_max + 1)),
        offset_square_s=tuple(range(3, args.s_max + 1)),
        oracle_cell_cap=args.oracle_cap,
    )
    elapsed = time.perf_counter() - t0
    print(report.render_text())
    print(f"checked up to s={args.s_max} in {elapsed:.1f}s")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
