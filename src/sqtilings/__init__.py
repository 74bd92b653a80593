"""Exact tilings of rectangles by s x s squares and monomers.

The package counts, for an n x m board, the tilings that use exactly k
squares of side s with every remaining cell a monomer.  Counts come out
either as explicit tables (:func:`count_tables` for every length up to a
bound from one sweep, :func:`count_table` for one board) or packaged as
bivariate rational generating functions in z (board length) and t
(squares used) via :func:`generating_function`, which solves the edges of
the transfer graph from :func:`enumerate_states`.  The same edges are
written out as a CAS script by :func:`emit_cas_script` and read back by
:func:`parse_cas_script`.  A brute-force oracle and a collection of
closed-form identities double-check everything independently.
"""

from .engine import (
    DEFAULT_STATE_CAP,
    StateCapExceeded,
    TransferGraph,
    enumerate_states,
    transitions,
)
from .gfun import (
    DEFAULT_DIM_CAP,
    DimensionCapExceeded,
    EliminationError,
    emit_cas_script,
    generating_function,
    parse_cas_script,
    series_expand,
)
from .identities import (
    CheckResult,
    IdentityReport,
    check_basic,
    check_conjectures,
    check_single_lane,
    check_subwidth,
    check_two_s_square,
    run_verification,
)
from .oracle import DEFAULT_CELL_CAP, BoardTooLarge, brute_force_counts
from .poly import BiPoly, PolyT, RatFun
from .series import (
    CountTable,
    count_table,
    count_tables,
    paper_line,
    square_table,
    table_record,
    tables_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "BoardTooLarge",
    "CheckResult",
    "CountTable",
    "DEFAULT_CELL_CAP",
    "DEFAULT_DIM_CAP",
    "DEFAULT_STATE_CAP",
    "DimensionCapExceeded",
    "EliminationError",
    "IdentityReport",
    "PolyT",
    "RatFun",
    "StateCapExceeded",
    "TransferGraph",
    "brute_force_counts",
    "check_basic",
    "check_conjectures",
    "check_single_lane",
    "check_subwidth",
    "check_two_s_square",
    "count_table",
    "count_tables",
    "emit_cas_script",
    "enumerate_states",
    "generating_function",
    "parse_cas_script",
    "paper_line",
    "run_verification",
    "series_expand",
    "square_table",
    "table_record",
    "tables_to_csv",
    "transitions",
    "__version__",
]
