import hashlib
from collections import Counter
from itertools import groupby, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqtilings import engine
from sqtilings.engine import (
    DEFAULT_CELL_CAP,
    DIM_CAP,
    STATE_CAP,
    SWEEP_BUDGET,
    TABLE_BUDGET,
    TRANSITION_BUDGET,
    CapExceeded,
    _advance_class,
    enumerate_states,
    transitions,
)


def _front(h):
    """The int-tuple front ``h`` as the front search holds it: a str with
    one code point per lane."""
    return "".join(map(chr, h))


def _advances(h, s):
    """transitions of the int-tuple front ``h``, with int-tuple fronts."""
    return [(tuple(map(ord, nxt)), k) for nxt, k in transitions(_front(h), s)]


def test_flat_front_advances_width_two():
    assert _advances((0, 0), 2) == [((0, 0), 0), ((1, 1), 1)]
    assert transitions("\0\0", 2) == [("\0\0", 0), ("\1\1", 1)]


def test_partial_front_blocks_anchors():
    # lane 1 is still covered, so no square fits anywhere in width 3
    assert _advances((0, 1, 0), 2) == [((0, 0, 0), 0)]


def test_anchor_spacing_width_four():
    nexts = _advances((0, 0, 0, 0), 2)
    assert [k for _, k in nexts] == [0, 1, 1, 1, 2]
    assert nexts[-1] == ((1, 1, 1, 1), 2)


def test_states_width_two():
    g = enumerate_states(2, 2)
    assert g.states == ((0, 0), (1, 1))
    assert g.edges == (((0, 0, 1), (1, 1, 1)), ((0, 0, 1),))
    assert repr(g) == "TransferGraph(s=2, n=2, dim=2)"


def test_states_width_four_discovery_order():
    g = enumerate_states(2, 4)
    # (1, 1, 0, 0) is lumped into its mirror image (0, 0, 1, 1), and
    # (1, 1, 1, 1) into (0, 1, 1, 0): both advance only to the flat front
    assert g.states == (
        (0, 0, 0, 0),
        (0, 0, 1, 1),
        (0, 1, 1, 0),
    )
    assert g.edges == (
        ((0, 0, 1), (1, 1, 2), (2, 1, 1), (2, 2, 1)),
        ((0, 0, 1), (1, 1, 1)),
        ((0, 0, 1),),
    )


def test_graphs_compare_by_value():
    assert enumerate_states(2, 4) == enumerate_states(2, 4)
    assert enumerate_states(2, 4) != enumerate_states(2, 5)


def test_single_column_square_collapses_to_binomials():
    for n in (1, 3, 6):
        g = enumerate_states(1, n)
        assert g.states == ((0,) * n,)  # the flat front, alone in its block
        assert g.edges[0] == tuple((0, k, comb(n, k)) for k in range(n + 1))


def test_oversized_square_leaves_one_state():
    g = enumerate_states(3, 2)
    assert g.dim == 1
    assert g.edges == (((0, 0, 1),),)


def _even_run_vectors(n):
    """Binary vectors of length n whose maximal 1-runs all have even length,
    counted up to reversal."""
    vectors = set()
    for v in product((0, 1), repeat=n):
        if all(len(list(run)) % 2 == 0 for bit, run in groupby(v) if bit):
            vectors.add(min(v, v[::-1]))
    return len(vectors)


def _reachable(s, n):
    """Every front reachable from the flat front, mirror images included."""
    start = (0,) * n
    seen = {start}
    todo = [start]
    while todo:
        for nxt, _ in _advances(todo.pop(), s):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def _mirror_fronts(s, n):
    """Fronts reachable from the flat front, counted up to reversal."""
    return len({min(h, h[::-1]) for h in _reachable(s, n)})


def _raised(h, s):
    """``h`` with every maximal run of fewer than s zeros set to ones."""
    out = []
    for x, run in groupby(h):
        width = len(list(run))
        out += [1 if x == 0 and width < s else x] * width
    return tuple(out)


def _advance_classes(s, n):
    """Reachable fronts, counted up to reversal of their raised forms."""
    return len({min(r, r[::-1]) for r in (_raised(h, s) for h in _reachable(s, n))})


@pytest.mark.parametrize("n", range(2, 13))
def test_width_two_state_count_is_even_run_count(n):
    fronts = _mirror_fronts(2, n)
    assert fronts == _even_run_vectors(n)
    # the lumped graph has a block of one or more of those fronts per state
    assert enumerate_states(2, n).dim <= fronts


@pytest.mark.parametrize("n", range(2, 13))
def test_width_two_advance_classes_are_the_quotient(n):
    assert _advance_classes(2, n) == enumerate_states(2, n).dim


@pytest.mark.parametrize("s", range(2, 6))
def test_raised_front_advances_like_the_front(s):
    # the search expands one front per advance class, so raising a run too
    # short for a square must change no advance; the reachable set holds
    # both mirror images, so this covers the mirror-canonical class form
    for n in range(2, 10):
        for h in _reachable(s, n):
            assert _advances(h, s) == _advances(_raised(h, s), s), (s, h)


@pytest.mark.parametrize("s", range(1, 6))
def test_advance_class_is_idempotent(s):
    # the front search keys fronts and class forms in one dict, which is
    # sound only if a front equal to a class form lies in that class
    for n in range(1, 10):
        for h in _reachable(s, n):
            cls = _advance_class(_front(h), s)
            assert _advance_class(cls, s) == cls, (s, h)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=9))
def test_graph_invariants(s, n):
    g = enumerate_states(s, n)
    assert g.states[0] == (0,) * n
    seen_dsts = set()
    for src, lst in enumerate(g.edges):
        assert lst == tuple(sorted(lst))
        for dst, k, mult in lst:
            assert 0 <= dst < g.dim
            assert 0 <= k <= n // s
            # a block can hold many fronts, so any number of placements
            # can land in one
            assert mult >= 1
            seen_dsts.add(dst)
        # every placement set from the block's representative is counted once
        assert sum(mult for _, _, mult in lst) == len(_advances(g.states[src], s))
    assert seen_dsts == set(range(g.dim))  # discovery order leaves no orphans
    for h in g.states:
        assert len(h) == n
        assert all(0 <= x < s for x in h)
        assert h <= h[::-1]  # the canonical front of its mirror pair


def _block_count(edges):
    """Blocks of the coarsest exact lumping of ``edges``, state 0 alone."""
    block = [min(i, 1) for i in range(len(edges))]
    while True:
        sigs = []
        for i, out in enumerate(edges):
            into = Counter()
            for dst, k, mult in out:
                into[block[dst], k] += mult
            sigs.append((block[i], frozenset(into.items())))
        ids = {sig: j for j, sig in enumerate(dict.fromkeys(sigs))}
        refined = [ids[sig] for sig in sigs]
        if len(ids) == len(set(block)):
            return len(ids)
        block = refined


@pytest.mark.parametrize("s", range(1, 7))
def test_lumping_is_coarsest(s):
    # refining the quotient again merges no two of its states
    for n in range(1, 11):
        g = enumerate_states(s, n)
        assert _block_count(g.edges) == g.dim, (s, n)


@pytest.mark.parametrize("s, n, dim", [(4, 12, 58), (6, 14, 51)])
def test_quotient_dimension(s, n, dim):
    # 106 fronts up to mirroring in both cases
    assert _mirror_fronts(s, n) == 106
    assert enumerate_states(s, n).dim == dim


def test_heights_decay_by_one_per_row():
    g = enumerate_states(4, 6)
    for src, lst in enumerate(g.edges):
        for nxt, k in _advances(g.states[src], 4):
            if k == 0:
                expected = tuple(x - 1 if x else 0 for x in g.states[src])
                assert nxt == expected
                break


def _digest(s, n):
    """The first 16 hex digits of the sha256 of a graph's (states, edges)."""
    g = enumerate_states(s, n)
    return hashlib.sha256(repr((g.states, g.edges)).encode()).hexdigest()[:16]


# _digest(s, n) for n = 1 .. 14: a change to the search or the lumping that
# alters any of these graphs, even in order only, shows here
GRAPH_DIGESTS = {
    1: (
        "50f6c489a60d3991", "54f60f185d676b2c", "f94b5691626c109a", "b7675e7fcf90b9ba",
        "f572676c465170ff", "b0c9ae761cf66f56", "4c6625633585320c", "c59e919ff9e775ee",
        "dbeaf7daeeaab1f6", "749ad16f79572a25", "04cc6d3cbcc4658d", "0d984214bed1c104",
        "1f12e24177f8afcf", "2dbe083b4a4ee2f1",
    ),
    2: (
        "46729148e6ea83ec", "7784803b69f934f8", "7850c65ceef09fda", "6f129601ae50fa6f",
        "01a79abca6547ba0", "bc714a1ab4ebf5b3", "a7b4ac22cc63edbc", "4de74c2d70c45fb4",
        "3fff15ef57ad0a98", "fea316432428dab3", "f56149c856fa797f", "15d5c90be643527f",
        "94e6dc9db51cf037", "6314ad77d6fd204c",
    ),
    3: (
        "46729148e6ea83ec", "d2582bd861d09bfb", "fcd5c903b0629e8a", "1e17d96900c9411c",
        "fd2c680a39713798", "e3122f7cc0465f64", "a80bd9999a7afcc6", "9bcda4c9b0f86207",
        "a92878ed4c3cf5f9", "94cc478aeef1ac9a", "73d2d74a74e90f12", "d50de1e19d40958e",
        "baf182de22a98a4f", "fbe16dba0a2afc51",
    ),
    4: (
        "46729148e6ea83ec", "d2582bd861d09bfb", "b0058ef115613cb2", "c8875a8ddb8f54e4",
        "e2f95b768ca6e2b2", "46e176ca0e091d0d", "fb1fa5cb1b8b737e", "0b674a71e4e3a676",
        "2f72c769bb8c25f1", "45b4347bbb592f23", "2dadfe84b1671640", "b9d98e247eb91cad",
        "9d978c99f2b9525c", "d1f6ea2c0b47eb98",
    ),
    5: (
        "46729148e6ea83ec", "d2582bd861d09bfb", "b0058ef115613cb2", "08b6e2caaf1c17d0",
        "b846a0cd3ed8ea08", "273249c3514bdf8f", "4de6260bc3f2a46f", "a9febd338929f40b",
        "7894c317c45251be", "3e505d7a737cb2e6", "74cf38173e4a85ff", "846b856e522edf2f",
        "2ee17b910fa6525a", "d1f992bc6068a27f",
    ),
    6: (
        "46729148e6ea83ec", "d2582bd861d09bfb", "b0058ef115613cb2", "08b6e2caaf1c17d0",
        "b0f2e5a57d7f9d7a", "469c401194ece505", "277ed3bc26cf1050", "9d9c1ea1bb93331d",
        "9f263ff6fdb1a42c", "1b24b8db316b12ae", "231b64015344bc6a", "18af71d6bb1f4b12",
        "d8dec96d0408f8de", "4063786479fea7ab",
    ),
}


@pytest.mark.parametrize("s", range(1, 7))
def test_graphs_are_pinned(s):
    assert tuple(_digest(s, n) for n in range(1, 15)) == GRAPH_DIGESTS[s]


@pytest.mark.stretch
def test_wide_square_graph_is_pinned():
    # 15 200 classes lump to 300 states, one split per round: several seconds
    assert _digest(300, 400) == "3d90dde929b7eff8"


def test_cap_defaults_are_the_documented_ones():
    # the README quotes all six
    assert STATE_CAP == 100_000
    assert DIM_CAP == 400
    assert DEFAULT_CELL_CAP == 64
    # s = 2, n = 22 builds 1 182 925 transitions, 26 024 350 lanes, and
    # must stay admitted
    assert TRANSITION_BUDGET == 30_000_000
    assert SWEEP_BUDGET == 10**10
    assert TABLE_BUDGET == 4 * 10**9


def test_state_cap(monkeypatch):
    monkeypatch.setattr(engine, "STATE_CAP", 100)
    with pytest.raises(CapExceeded) as err:
        enumerate_states(2, 16)
    assert err.value.cap == 100
    assert err.value.need == 101
    assert str(err.value).endswith(", over the limit of 100")
    # s = 2, n = 14 meets 184 advance classes, so a cap of 184 admits it
    monkeypatch.setattr(engine, "STATE_CAP", 184)
    assert enumerate_states(2, 14).dim == 184


def test_state_cap_of_one_admits_a_one_class_graph(monkeypatch):
    monkeypatch.setattr(engine, "STATE_CAP", 1)
    assert enumerate_states(2, 1).dim == 1


def counting_transitions(monkeypatch):
    calls = []

    def counting(heights, s):
        calls.append(heights)
        return transitions(heights, s)

    monkeypatch.setattr(engine, "transitions", counting)
    return calls


def test_each_advance_class_is_expanded_once(monkeypatch):
    # 184 classes at s = 2, n = 14; a search without class raising expands
    # all 322 mirror fronts
    calls = counting_transitions(monkeypatch)
    enumerate_states(2, 14)
    assert len(calls) == 184


def test_transition_budget_charges_every_transition(monkeypatch):
    # s = 2, n = 14 builds 5353 transitions of 14 lanes over its 184 fronts
    monkeypatch.setattr(engine, "TRANSITION_BUDGET", 5353 * 14)
    assert enumerate_states(2, 14).dim == 184
    monkeypatch.setattr(engine, "TRANSITION_BUDGET", 5353 * 14 - 1)
    with pytest.raises(CapExceeded) as err:
        enumerate_states(2, 14)
    assert err.value.cap == 5353 * 14 - 1
    assert err.value.need == 5353 * 14


def test_transition_budget_refuses_a_wide_flat_front_before_building(monkeypatch):
    # (10^9, 10^9) passes it on the width alone, before a run of 10^9 lanes
    # is tabled; from (5477, 5477) on, the flat front fits it but not with
    # the s - 1 fronts its square leaves, and from s = 0x110001 on
    # chr(s - 1) would not exist
    calls = counting_transitions(monkeypatch)
    for s, n in ((2, 40), (2, 10**9), (4000, 8000), (20000, 40000), (10**9, 10**9),
                 (5477, 5477), (100000, 100000), (1114113, 1114113), (1200000, 1200000)):
        with pytest.raises(CapExceeded) as err:
            enumerate_states(s, n)
        assert err.value.cap == TRANSITION_BUDGET
        assert str(err.value).endswith(f", over the limit of {TRANSITION_BUDGET}")
    assert calls == []


@pytest.mark.parametrize("s", range(2, 13))
def test_square_chain_bound_is_exact_at_n_equal_to_s(monkeypatch, s):
    # the flat front's 2 transitions and the s - 1 fronts of one square,
    # each expanding its row advance only: (s + 1) * s lanes in all
    monkeypatch.setattr(engine, "TRANSITION_BUDGET", (s + 1) * s)
    assert enumerate_states(s, s).dim == s
    monkeypatch.setattr(engine, "TRANSITION_BUDGET", (s + 1) * s - 1)
    calls = counting_transitions(monkeypatch)
    with pytest.raises(CapExceeded) as err:
        enumerate_states(s, s)
    assert err.value.need == (s + 1) * s
    assert calls == []


def test_transition_budget_refuses_an_anchor_count_equal_to_it(monkeypatch):
    # at s = 2 the flat runs admit 1, 1, 2, 3, 5, 8, 13 anchor sets, of 10
    # lanes each at n = 10: the table runs on past an entry equal to the
    # budget, to the 130 that passes it
    monkeypatch.setattr(engine, "TRANSITION_BUDGET", 80)
    with pytest.raises(CapExceeded) as err:
        enumerate_states(2, 10)
    assert (err.value.need, err.value.cap) == (130, 80)


def test_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        enumerate_states(0, 3)
    with pytest.raises(ValueError):
        enumerate_states(2, 0)
