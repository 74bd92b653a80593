import ast
import hashlib
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sqtilings import gfun
from sqtilings.engine import CapExceeded, enumerate_states
from sqtilings.gfun import (
    _cross_terms,
    _exact_div,
    _pack_t,
    _slot_bits,
    _unpack_t,
    emit_cas_script,
    generating_function,
    parse_cas_script,
    series_expand,
)
from sqtilings.poly import BiPoly, RatFun
from sqtilings.series import count_table


@pytest.mark.parametrize(
    "s,n,expected",
    [
        (2, 2, "(1) / (1 - z - z^2*t)"),
        (2, 3, "(1) / (1 - z - 2*z^2*t)"),
        (3, 3, "(1) / (1 - z - z^3*t)"),
        (3, 4, "(1) / (1 - z - 2*z^3*t)"),
        (3, 5, "(1) / (1 - z - 3*z^3*t)"),
        (4, 4, "(1) / (1 - z - z^4*t)"),
        (1, 1, "(1) / (1 - z - z*t)"),
    ],
)
def test_narrow_boards_have_exact_closed_forms(s, n, expected):
    ratio = generating_function(enumerate_states(s, n).edges)
    assert ratio.render() == expected


def _at(poly, z, t):
    """A BiPoly's value at the point (z, t)."""
    return sum(c * z**zk * t**tk for (zk, tk), c in poly.terms.items())


def _det(a):
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    a = [list(row) for row in a]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            for j in range(c, len(a)):
                a[r][j] -= f * a[c][j]
    return det


def _is_cramer(edges, ratio):
    """Cramer's rule for (I - M) x = e0 at three rational points.

    x0 = det(I - M without row and column 0) / det(I - M), exactly, with
    no common factor cancelled.
    """
    dim = len(edges)
    points = [
        (Fraction(1, 3), Fraction(2, 5)),
        (Fraction(-2, 7), Fraction(3)),
        (Fraction(5, 4), Fraction(-1, 6)),
    ]
    for z, t in points:
        a = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        for src, lst in enumerate(edges):
            for dst, k, mult in lst:
                a[dst][src] -= mult * z * t**k
        if _at(ratio.den, z, t) != _det(a):
            return False
        if _at(ratio.num, z, t) != _det([row[1:] for row in a[1:]]):
            return False
    return True


@pytest.mark.parametrize("s,n", [(1, 3), (2, 5), (2, 7), (3, 7), (4, 9), (3, 9)])
def test_gf_is_cofactor_over_determinant(gf_of, s, n):
    assert _is_cramer(enumerate_states(s, n).edges, gf_of(s, n))


def _widest(ratio):
    return max(
        abs(c).bit_length() for poly in (ratio.num, ratio.den) for c in poly.terms.values()
    )


def test_narrow_slots_break_cofactor_check(gf_of, monkeypatch):
    # a balanced slot of B bits holds every coefficient of at most B - 1
    # bits; three bits fewer wrap the widest ones
    edges = enumerate_states(3, 9).edges
    widest = _widest(gf_of(3, 9))
    for bits, exact in ((widest + 1, True), (widest - 2, False)):
        monkeypatch.setattr(gfun, "_slot_bits", lambda edges: bits)
        assert _is_cramer(edges, generating_function(edges)) is exact


def test_slot_bits_leave_two_spare_bits(gf_of):
    # every system acceptance criterion 4 solves: dimension <= 60, n <= 12,
    # s2n11 left to the stretch tier
    for s in range(1, 7):
        for n in range(1, 13):
            edges = enumerate_states(s, n).edges
            if len(edges) > 60 or (s, n) == (2, 11):
                continue
            assert _slot_bits(edges) >= _widest(gf_of(s, n)) + 2, (s, n)


@pytest.mark.parametrize(
    "s,n,bits",
    [(2, 9, 36), (3, 10, 38), (4, 12, 51), (6, 14, 38), (2, 10, 60), (4, 13, 80),
     (2, 3, 4)],
)
def test_slot_bits_are_pinned(s, n, bits):
    # a wider slot stays exact but costs time in every product; at s2n3
    # H = 4 exactly, so ceil(log2 H) must not round a power of two up
    assert _slot_bits(enumerate_states(s, n).edges) == bits


@pytest.mark.parametrize("s,n,calls,terms", [(2, 6, 52, 105), (3, 9, 267, 746)])
def test_pivot_rule_is_pinned(monkeypatch, s, n, calls, terms):
    # products and their terms follow the pivot order, which the output
    # does not show: a new pivot rule may be better or worse, so it must
    # come with a measurement
    cross = gfun._cross_terms
    seen = [0, 0]

    def counted(*args):
        out = cross(*args)
        seen[0] += 1
        seen[1] += len(out)
        return out

    monkeypatch.setattr(gfun, "_cross_terms", counted)
    generating_function(enumerate_states(s, n).edges)
    assert seen == [calls, terms]


@st.composite
def _slotted(draw):
    bits = draw(st.integers(1, 70))
    half = 1 << (bits - 1)
    return bits, draw(st.lists(st.integers(-half, half - 1), max_size=12))


@given(_slotted(), st.integers(0, 9))
@example((8, [0, 5, 0, -128]), 0)  # zero slots and a negative top slot
@example((3, [-1]), 2)
@example((5, []), 1)
@example((2, [-2, -2, 1]), 0)  # 6: three slots from a 3-bit value
def test_signed_slots_round_trip(case, z):
    bits, coeffs = case
    value = sum(c << k * bits for k, c in enumerate(coeffs))
    assert _unpack_t({z: value}, bits) == {(z, k): c for k, c in enumerate(coeffs) if c}


@given(st.integers(1, 70).flatmap(
    lambda bits: st.tuples(st.just(bits), st.dictionaries(
        st.integers(0, 12), st.integers(0, (1 << bits) - 1), min_size=1))))
def test_packed_slots_are_shifted_sums(case):
    bits, slots = case
    assert _pack_t(slots, bits) == sum(c << k * bits for k, c in slots.items())


def test_unit_square_gf_is_a_binomial_power():
    # one state whose n + 1 edges pack into, and unpack from, one entry
    # of 601 slots: 1 / (1 - z*(1 + t)^600)
    n = 600
    den = {(0, 0): 1, **{(1, k): -comb(n, k) for k in range(n + 1)}}
    expected = RatFun(BiPoly({(0, 0): 1}), BiPoly(den))
    assert generating_function(enumerate_states(1, n).edges) == expected


# the elimination's term maps: z exponent -> coefficient, which holds the
# t-polynomial packed into slots and so may be any nonzero int
z_polys = st.dictionaries(
    st.integers(0, 8), st.integers(-(1 << 70), 1 << 70).filter(bool), max_size=6
)


@given(z_polys, z_polys, z_polys)
def test_ring_laws(a, b, c):
    # every ring operation through the elimination kernel p*x - a*b
    def add(a, b):
        return _cross_terms(a, {0: 1}, b, {0: -1})

    def mul(a, b):
        return _cross_terms(a, b, {}, {})

    def neg(a):
        return _cross_terms({}, {}, a, {0: 1})

    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, {}) == a
    assert mul(a, {0: 1}) == a
    assert mul(a, {}) == mul({}, a) == {}
    assert add(a, neg(a)) == {}
    assert neg(neg(a)) == a
    assert neg(a) == {k: -v for k, v in a.items()}
    # the elimination update passes {} for an entry missing from a row
    assert _cross_terms(a, {}, b, c) == neg(mul(b, c))
    assert _cross_terms(a, b, c, {}) == mul(a, b)


@given(z_polys, z_polys.filter(bool))
def test_exact_division_inverts_multiplication(a, b):
    assert _exact_div(_cross_terms(a, b, {}, {}), b) == a


def test_one_term_exact_division():
    # a one-term divisor runs the greedy loop with nothing to subtract
    num = {3: 6, 2: -4, 1: 2}  # 6*z^3 - 4*z^2 + 2*z
    for den, quotient in [
        ({0: 2}, {3: 3, 2: -2, 1: 1}),
        ({1: 1}, {2: 6, 1: -4, 0: 2}),
        ({1: -2}, {2: -3, 1: 2, 0: -1}),
    ]:
        assert _exact_div(num, den) == quotient
        assert _exact_div({}, den) == {}


def test_inexact_division_raises():
    with pytest.raises(ValueError):
        _exact_div({2: 1, 0: 1}, {1: 1, 0: 1})  # z^2 + 1 by z + 1
    with pytest.raises(ZeroDivisionError):
        _exact_div({2: 1, 0: 1}, {})
    # one-term divisors: the coefficient must divide and no exponent may
    # go negative
    for num, den in [({0: 3}, {0: 2}), ({0: 1}, {1: 1}), ({1: 4, 0: 2}, {1: 2})]:
        with pytest.raises(ValueError):
            _exact_div(num, den)


# SHA-256 of generating_function(...).render() for the gf-swell systems, as
# computed by elimination over Z[z, t] before t was packed into slots
GF_SWELL_DIGESTS = {
    (2, 9): "d0365780e6b4aa91e63a6f105b15020d88628e9a198672c27a5bfa35818cd922",
    (3, 10): "1cc336a837e6eacbf9c2c69c68e24e4340112e531fa25c6b7c680a5dcc634527",
    (4, 12): "abc2786fb8b8f851fa652d4f357cc911a5296a6c3e8cce1212d435957e166442",
    (6, 14): "cd01cbaa9c64d2faaeb61c1b3086852d96851344ce4305d22ab1f53c77ab63b1",
    (6, 13): "72b4fd8d104ee9c62ba347ede4468c37bb6e78eb92c742dc83c7773385ceef66",
    (5, 12): "1cc5f11f22b43219852d200520304ddfdacd259468a6cb8b96b5f8d1ca31d84e",
    (5, 11): "9e279d16262726950d19e6e3cd62de530992b8fa467796e2edb5fa6b08f35237",
}


@pytest.mark.parametrize("s,n", sorted(GF_SWELL_DIGESTS))
def test_gf_swell_renders_are_pinned(gf_of, s, n):
    text = gf_of(s, n).render()
    assert hashlib.sha256(text.encode()).hexdigest() == GF_SWELL_DIGESTS[(s, n)]


def test_denominator_normalized_to_unit_constant(gf_of):
    for s, n in [(2, 4), (2, 6), (3, 7), (4, 8)]:
        ratio = gf_of(s, n)
        assert ratio.den.terms[0, 0] == 1
        assert ratio.num.terms[0, 0] == 1


def test_series_expansion_example():
    ratio = RatFun.parse("(1) / (1 - z - z^2*t)")
    rows = series_expand(ratio, 3)
    assert [p.as_list() for p in rows] == [[1], [1], [1, 1], [1, 2]]
    assert [p.as_list() for p in series_expand(ratio, 0)] == [[1]]


def test_series_matches_tables(gf_of):
    for s, n in [(1, 4), (2, 4), (2, 5), (3, 6), (4, 8)]:
        rows = series_expand(gf_of(s, n), 9)
        for m in range(10):
            assert tuple(rows[m].as_list()) == count_table(s, n, m).counts


def test_series_requires_unit_denominator_head():
    with pytest.raises(ValueError):
        series_expand(RatFun.parse("(1) / (1 + t - z)"), 4)
    with pytest.raises(ValueError):
        series_expand(RatFun.parse("(1) / (2 - z)"), 4)
    with pytest.raises(ValueError):
        series_expand(RatFun.parse("(1) / (1 - z)"), -1)


def test_dimension_cap(monkeypatch):
    monkeypatch.setattr(gfun, "DIM_CAP", 2)
    with pytest.raises(CapExceeded) as err:
        generating_function(enumerate_states(2, 4).edges)
    assert err.value.need == 3
    assert err.value.cap == 2


def test_row_sum_specialization_matches_sequences(gf_of):
    ratio = gf_of(2, 3).substitute_t(1)
    rows = series_expand(ratio, 8)
    assert [p.as_list() for p in rows] == [
        [count_table(2, 3, m).row_sum] for m in range(9)
    ]


def test_cas_script_exact_text():
    script = emit_cas_script(enumerate_states(2, 2).edges)
    assert script == (
        "eq_0 := x0 = 1 + z*x0 + z*x1;\n"
        "eq_1 := x1 = z*t*x0;\n"
        "sol := solve({eq_0, eq_1}, {x0, x1});\n"
        "print(normal(subs(sol, x0)));\n"
    )


def test_cas_script_parenthesizes_sums():
    script = emit_cas_script(enumerate_states(1, 2).edges)
    assert "eq_0 := x0 = 1 + (z + 2*z*t + z*t^2)*x0;" in script.splitlines()[0]


def test_cas_round_trip_preserves_system():
    # s = 1 has the binomial multiplicities, s >= 2 multiplicities 1 and 2
    cases = [(1, 1), (1, 3), (1, 5), (2, 3), (2, 4), (2, 7), (3, 5), (3, 6), (6, 14)]
    for s, n in cases:
        edges = enumerate_states(s, n).edges
        assert parse_cas_script(emit_cas_script(edges)) == edges


def test_cas_parser_rejects_malformed_scripts():
    with pytest.raises(ValueError):
        parse_cas_script("print(1);\n")
    with pytest.raises(ValueError):
        parse_cas_script("eq_0 := x1 = 1 + z*x0;\n")
    with pytest.raises(ValueError):
        parse_cas_script("eq_0 := x0 = z*x0;\n")  # head constant missing
    # the script of an empty system refers to an x0 it never defines
    for script in (
        "eq_0 := x0 = 1 + z*x7;\n", "eq_0 := x0 = 1 + z*x1;\n", emit_cas_script(()),
    ):
        with pytest.raises(ValueError):
            parse_cas_script(script)
    with pytest.raises(
        ValueError, match=r"^text is not a script that emit_cas_script writes$"
    ):
        parse_cas_script("eq_0 := x0 = 1 + z*x0;\neq_0 := x0 = z*x0;\n")
    # an entry of M is a sum of positive multiples of z*t^k, nothing else
    for body in ("1 + x0", "1 - z*x0", "1 + z^2*x0", "1 + 1 + z*x0"):
        with pytest.raises(ValueError):
            parse_cas_script(f"eq_0 := x0 = {body};\n")
    # like terms, bare unknowns and subtraction: systems emit_cas_script
    # could write, but not in the text it writes
    for script in (
        "eq_0 := x0 = 1 + z*x0 + z*t*x0 + z*t*x0 + z*t^2*x0;",
        "eq_0 := x0 = 1 + z*x1;\neq_1 := x1 = (2*z*t)*x0 + z*x1 - z*x1;",
        "eq_0 := x0 = 1 + x0 - 1*x0 + z*x0;",
    ):
        with pytest.raises(ValueError):
            parse_cas_script(script)


def test_cas_parser_rejects_perturbed_emitted_script():
    script = emit_cas_script(enumerate_states(3, 6).edges)
    lines = script.splitlines(keepends=True)
    eq_0 = lines[0]
    assert eq_0.count(" + ") >= 3
    head, first, second, rest = eq_0.split(" + ", 3)
    perturbed = {
        "terms swapped": script.replace(eq_0, " + ".join((head, second, first, rest))),
        "term repeated": script.replace(eq_0, " + ".join((head, first, first, second, rest))),
        "solve and print dropped": "".join(lines[:-2]),
        "equation dropped": "".join(lines[:-3] + lines[-2:]),
        "space before a semicolon": script.replace(";\n", " ;\n", 1),
    }
    for what, text in perturbed.items():
        assert text != script, what
        with pytest.raises(ValueError):
            parse_cas_script(text)
    # written the way emit_cas_script writes terms, so re-emitting gives
    # back this very text: only the positivity check rejects it
    negative = (
        "eq_0 := x0 = 1 + -z*x0;\n"
        "sol := solve({eq_0}, {x0});\n"
        "print(normal(subs(sol, x0)));\n"
    )
    assert emit_cas_script((((0, 0, -1),),)) == negative
    with pytest.raises(ValueError):
        parse_cas_script(negative)


def test_fixture_forms_small(gf_of, load_gf_fixture):
    assert gf_of(2, 4).equivalent(load_gf_fixture("s2_n4"))
    assert gf_of(3, 6).equivalent(load_gf_fixture("s3_n6"))
    assert gf_of(2, 4).substitute_t(1).equivalent(load_gf_fixture("s2_n4_t1"))


def test_gfun_imports_only_the_public_poly_types():
    # the (z, t) term format stays behind poly; the kernels are gfun's own
    tree = ast.parse(Path(gfun.__file__).read_text())
    package = [
        (node.level, node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.startswith("sqtilings"))
    ]
    assert package == [
        (1, "engine", ["DIM_CAP", "charge"]),
        (1, "poly", ["BiPoly", "PolyT", "RatFun"]),
    ]
    assert not any(
        alias.name.startswith("sqtilings")
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    )
