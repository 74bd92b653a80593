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

Every name in ``__all__`` is resolved on first use: ``import sqtilings``
loads no submodule, and ``sqtilings.count_tables`` imports
``sqtilings.series`` the first time it is read, so a command-line run
loads only the modules its subcommand calls.
"""

import importlib

__version__ = "0.1.0"

# the exports of each defining module
_EXPORTS = {
    "engine": (
        "CapExceeded",
        "DEFAULT_CELL_CAP",
        "TransferGraph",
        "enumerate_states",
    ),
    "gfun": (
        "emit_cas_script",
        "generating_function",
        "parse_cas_script",
        "series_expand",
    ),
    "identities": ("CheckResult", "IdentityReport", "run_verification"),
    "oracle": ("brute_force_tables",),
    "poly": ("BiPoly", "PolyT", "RatFun"),
    "series": (
        "CountTable",
        "count_table",
        "count_tables",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
