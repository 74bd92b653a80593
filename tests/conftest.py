from pathlib import Path

import pytest

from sqtilings import enumerate_states, generating_function
from sqtilings.poly import RatFun

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "closed_forms"


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
