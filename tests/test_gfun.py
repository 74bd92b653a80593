from fractions import Fraction

import pytest

from sqtilings.engine import enumerate_states
from sqtilings.gfun import (
    DimensionCapExceeded,
    emit_cas_script,
    generating_function,
    parse_cas_script,
    series_expand,
)
from sqtilings.poly import _SHIFT, _TMASK, RatFun
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
    return sum(
        c * z ** (key >> _SHIFT) * t ** (key & _TMASK) for key, c in poly.terms.items()
    )


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


@pytest.mark.parametrize("s,n", [(1, 3), (2, 5), (2, 7), (3, 7), (4, 9), (3, 9)])
def test_gf_is_cofactor_over_determinant(gf_of, s, n):
    # Cramer's rule for (I - M) x = e0: x0 = det(I - M without row and
    # column 0) / det(I - M), exactly, with no common factor cancelled
    edges = enumerate_states(s, n).edges
    ratio = gf_of(s, n)
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
        assert _at(ratio.den, z, t) == _det(a)
        assert _at(ratio.num, z, t) == _det([row[1:] for row in a[1:]])


def test_denominator_normalized_to_unit_constant(gf_of):
    for s, n in [(2, 4), (2, 6), (3, 7), (4, 8)]:
        ratio = gf_of(s, n)
        assert ratio.den.coeff(0, 0) == 1
        assert ratio.num.coeff(0, 0) == 1


def test_series_expansion_example():
    ratio = RatFun.parse("(1) / (1 - z - z^2*t)")
    rows = series_expand(ratio, 3)
    assert [p.as_list() for p in rows] == [[1], [1], [1, 1], [1, 2]]


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


def test_dimension_cap():
    with pytest.raises(DimensionCapExceeded) as err:
        generating_function(enumerate_states(2, 4).edges, dim_cap=2)
    assert err.value.dim == 3
    assert err.value.cap == 2


def test_row_sum_specialization_matches_sequences(gf_of):
    ratio = gf_of(2, 3).substitute_t(1)
    rows = series_expand(ratio, 8)
    assert [p.coeff(0) for p in rows] == [
        count_table(2, 3, m).row_sum for m in range(9)
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


def test_cas_parser_sums_like_terms():
    # edges of s = 1, n = 2: one state, 1 + 2*t + t^2 advances
    script = "eq_0 := x0 = 1 + z*x0 + z*t*x0 + z*t*x0 + z*t^2*x0;"
    assert parse_cas_script(script) == (((0, 0, 1), (0, 1, 2), (0, 2, 1)),)
    assert parse_cas_script(
        "eq_0 := x0 = 1 + z*x1;\neq_1 := x1 = (2*z*t)*x0 + z*x1 - z*x1;"
    ) == (((1, 1, 2),), ((0, 0, 1),))


def test_cas_parser_rejects_malformed_scripts():
    with pytest.raises(ValueError):
        parse_cas_script("print(1);\n")
    with pytest.raises(ValueError):
        parse_cas_script("eq_0 := x1 = 1 + z*x0;\n")
    with pytest.raises(ValueError):
        parse_cas_script("eq_0 := x0 = z*x0;\n")  # head constant missing
    with pytest.raises(ValueError):
        parse_cas_script("eq_0 := x0 = 1 + z*x7;\n")
    with pytest.raises(ValueError):
        parse_cas_script("eq_0 := x0 = 1 + z*x0;\neq_0 := x0 = z*x0;\n")
    # an entry of M is a sum of positive multiples of z*t^k, nothing else
    for body in ("1 + x0", "1 - z*x0", "1 + z^2*x0", "1 + 1 + z*x0"):
        with pytest.raises(ValueError):
            parse_cas_script(f"eq_0 := x0 = {body};\n")


def test_fixture_forms_small(gf_of, load_gf_fixture):
    assert gf_of(2, 4).equivalent(load_gf_fixture("s2_n4"))
    assert gf_of(3, 6).equivalent(load_gf_fixture("s3_n6"))
    assert gf_of(2, 4).substitute_t(1).equivalent(load_gf_fixture("s2_n4_t1"))
