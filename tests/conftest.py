from pathlib import Path

import pytest

from sqtilings import enumerate_states, generating_function
from sqtilings.identities import _plan
from sqtilings.oracle import brute_force_tables
from sqtilings.poly import RatFun
from sqtilings.series import count_tables

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "closed_forms"


def planned_sources(s_max, n_max, m_max, cell_cap):
    """The ``tables`` and ``brute`` dicts that ``run_verification`` gives
    its checks for this grid: every board of its plan, swept or passed once."""
    sweeps, passes = _plan(s_max, n_max, m_max, cell_cap)
    return ({sn: count_tables(*sn, m) for sn, m in sweeps.items()},
            {sn: brute_force_tables(*sn, m, cell_cap) for sn, m in passes.items()})


@pytest.fixture(scope="session")
def gf_of():
    """Memoized generating-function computation shared across the session."""
    cache = {}

    def compute(s: int, n: int) -> RatFun:
        if (s, n) not in cache:
            cache[(s, n)] = generating_function(enumerate_states(s, n).edges)
        return cache[(s, n)]

    return compute


@pytest.fixture(scope="session")
def load_gf_fixture():
    def load(name: str) -> RatFun:
        return RatFun.parse((FIXTURE_DIR / f"{name}.txt").read_text())

    return load
