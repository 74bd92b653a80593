import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqtilings.poly import BiPoly, PolyT, RatFun, _exact_div_terms

exponents = st.integers(min_value=0, max_value=6)
coefficients = st.integers(min_value=-9, max_value=9)
bipolys = st.dictionaries(
    st.tuples(exponents, exponents), coefficients, max_size=6
).map(lambda terms: sum(
    (BiPoly.term(c, z, t) for (z, t), c in terms.items()), BiPoly.zero()
))
nonzero_bipolys = bipolys.filter(lambda p: not p.is_zero)


def test_parse_simple():
    p = BiPoly.parse("1 - z - 2*z^2*t")
    assert p == BiPoly.term(1) + BiPoly.term(-1, z=1) + BiPoly.term(-2, z=2, t=1)
    assert (p.coeff(0, 0), p.coeff(1, 0), p.coeff(2, 1)) == (1, -1, -2)
    assert len(p.terms) == 3


def test_parse_any_factor_order_and_whitespace():
    assert BiPoly.parse("-t^2*z^3") == BiPoly.term(-1, z=3, t=2)
    assert BiPoly.parse("  3 * t * z ") == BiPoly.term(3, z=1, t=1)
    assert BiPoly.parse("+2*z*2*t") == BiPoly.term(4, z=1, t=1)


def test_parse_accumulates_duplicate_monomials():
    assert BiPoly.parse("z + z - 2*z") == BiPoly.zero()


def test_parse_rejects_garbage():
    for bad in ("", "z +", "q", "z^", "1 -- z", "z**2"):
        with pytest.raises(ValueError):
            BiPoly.parse(bad)


def test_render_graded_lex_order():
    p = BiPoly.parse("t^3 + z^2*t + z^3 + 1 - z")
    assert p.render() == "1 - z + t^3 + z^2*t + z^3"


def test_render_zero_and_units():
    assert BiPoly.zero().render() == "0"
    assert BiPoly.one().render() == "1"
    assert BiPoly.term(-1, t=1).render() == "-t"
    assert BiPoly.term(1, z=2, t=2).render() == "z^2*t^2"


@given(bipolys)
def test_render_parse_round_trip(p):
    assert BiPoly.parse(p.render()) == p


@given(bipolys, bipolys, bipolys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + BiPoly.zero() == a
    assert a * BiPoly.one() == a
    assert a - a == BiPoly.zero()
    assert -(-a) == a


@given(bipolys, nonzero_bipolys)
def test_exact_division_inverts_multiplication(a, b):
    assert _exact_div_terms((a * b).terms, b.terms) == a.terms


def test_inexact_division_raises():
    num = BiPoly.parse("z^2 + 1")
    den = BiPoly.parse("z + 1")
    with pytest.raises(ValueError):
        _exact_div_terms(num.terms, den.terms)
    with pytest.raises(ZeroDivisionError):
        _exact_div_terms(num.terms, {})


def test_substitute_t():
    p = BiPoly.parse("1 + 3*z*t + 2*z*t^2 + z^2")
    assert p.substitute_t(1) == BiPoly.parse("1 + 5*z + z^2")
    assert p.substitute_t(0) == BiPoly.parse("1 + z^2")
    assert p.substitute_t(-1) == BiPoly.parse("1 - z + z^2")


def test_degrees_and_coeff():
    p = BiPoly.parse("1 + 4*z^3*t^2")
    assert p.coeff(3, 2) == 4
    assert p.coeff(1, 1) == 0
    assert p.constant() == 1


# ---------------------------------------------------------------------------
# PolyT


def test_polyt_list_round_trip():
    p = PolyT.from_list([1, 0, 3])
    assert p.as_list() == [1, 0, 3]
    assert p.as_list(5) == [1, 0, 3, 0, 0]
    assert p.coeff(2) == 3 and p.coeff(7) == 0
    assert p.degree == 2


def test_polyt_arithmetic():
    a = PolyT.from_list([1, 2])
    b = PolyT.from_list([0, 1, 1])
    assert (a + b).as_list() == [1, 3, 1]
    assert (a - a).as_list() == []
    assert (a - a).as_list(1) == [0]
    assert (a * b).as_list() == [0, 1, 3, 2]


def test_polyt_render():
    assert PolyT.from_list([1, 2, 1]).render() == "1 + 2*t + t^2"
    assert PolyT().render() == "0"


# ---------------------------------------------------------------------------
# RatFun


def test_ratfun_parse_render_round_trip():
    text = "(1) / (1 - z - z^2*t)"
    assert RatFun.parse(text).render() == text


def test_ratfun_canonical_content():
    r = RatFun(BiPoly.parse("2 + 2*z"), BiPoly.parse("4 - 2*z"))
    assert r.render() == "(1 + z) / (2 - z)"


def test_ratfun_canonical_sign():
    r = RatFun.parse("(-z + 1) / (-1 + z + z^2)")
    assert r.num == BiPoly.parse("z - 1")
    assert r.den == BiPoly.parse("1 - z - z^2")


def test_ratfun_normalization_idempotent():
    r = RatFun.parse("(-2 + 2*z) / (-2 - 4*z)")
    again = RatFun(r.num, r.den)
    assert r == again


def test_ratfun_rejects_bad_denominators():
    with pytest.raises(ValueError):
        RatFun(BiPoly.one(), BiPoly.zero())
    with pytest.raises(ValueError):
        RatFun(BiPoly.one(), BiPoly.parse("z + z^2"))
    with pytest.raises(ValueError):
        RatFun.parse("1 - z")


def test_ratfun_equivalence_vs_equality():
    a = RatFun.parse("(1) / (1 - z)")
    b = RatFun.parse("(1 + z) / (1 - z^2)")
    assert a.equivalent(b)
    assert a != b
    c = RatFun.parse("(1) / (1 - 2*z)")
    assert not a.equivalent(c)


def test_ratfun_substitute_t():
    r = RatFun.parse("(1 - z*t) / (1 - z - z^2*t)")
    assert r.substitute_t(1).render() == "(1 - z) / (1 - z - z^2)"
    degenerate = RatFun.parse("(1) / (1 - t)")
    with pytest.raises(ValueError):
        degenerate.substitute_t(1)


def test_ratfun_parse_extra_parens_and_spacing():
    assert RatFun.parse("((1)) /(( 1 - z ))").render() == "(1) / (1 - z)"
    with pytest.raises(ValueError):
        RatFun.parse("(1) / (1 - z) / (1)")
