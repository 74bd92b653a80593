import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqtilings.gfun import parse_cas_script
from sqtilings.poly import (
    BiPoly,
    PolyT,
    RatFun,
    _cross_terms,
    _exact_div_terms,
    _pack,
)

exponents = st.integers(min_value=0, max_value=6)
coefficients = st.integers(min_value=-9, max_value=9).filter(bool)
bipolys = st.dictionaries(
    st.tuples(exponents, exponents), coefficients, max_size=6
).map(lambda terms: BiPoly({_pack(z, t): c for (z, t), c in terms.items()}))
nonzero_bipolys = bipolys.filter(lambda p: not p.is_zero)


def test_parse_simple():
    p = BiPoly.parse("1 - z - 2*z^2*t")
    assert p.terms == {_pack(0, 0): 1, _pack(1, 0): -1, _pack(2, 1): -2}
    assert (p.coeff(0, 0), p.coeff(1, 0), p.coeff(2, 1)) == (1, -1, -2)


def test_parse_any_factor_order_and_whitespace():
    assert BiPoly.parse("-t^2*z^3") == BiPoly.term(-1, z=3, t=2)
    assert BiPoly.parse("  3 * t * z ") == BiPoly.term(3, z=1, t=1)
    assert BiPoly.parse("+2*z*2*t") == BiPoly.term(4, z=1, t=1)


def test_parse_accumulates_duplicate_monomials():
    assert BiPoly.parse("z + z - 2*z") == BiPoly()


def test_parse_rejects_garbage():
    bad_texts = (
        "", "z +", "q", "z^", "1 -- z", "z**2", "t^4294967296", "t^2*t^4294967295",
    )
    for bad in bad_texts:
        with pytest.raises(ValueError):
            BiPoly.parse(bad)


def test_render_graded_lex_order():
    p = BiPoly.parse("t^3 + z^2*t + z^3 + 1 - z")
    assert p.render() == "1 - z + t^3 + z^2*t + z^3"


def test_render_zero_and_units():
    assert BiPoly().render() == "0"
    assert BiPoly.term(1).render() == "1"
    assert BiPoly.term(-1, t=1).render() == "-t"
    assert BiPoly.term(1, z=2, t=2).render() == "z^2*t^2"


@given(bipolys)
def test_render_parse_round_trip(p):
    assert BiPoly.parse(p.render()) == p


@given(bipolys, bipolys, bipolys)
def test_ring_laws(a, b, c):
    # every ring operation through the elimination kernel p*x - a*b
    def add(a, b):
        return _cross_terms(a, {0: 1}, b, {0: -1})

    def mul(a, b):
        return _cross_terms(a, b, {}, {})

    def neg(a):
        return _cross_terms({}, {}, a, {0: 1})

    a, b, c = a.terms, b.terms, c.terms
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


@given(bipolys, nonzero_bipolys)
def test_exact_division_inverts_multiplication(a, b):
    assert _exact_div_terms(_cross_terms(a.terms, b.terms, {}, {}), b.terms) == a.terms


def test_one_term_exact_division():
    # a one-term divisor runs the greedy loop with nothing to subtract
    num = "6*z^3*t^2 - 4*z^2*t^5 + 2*z*t"
    for den, quotient in [
        ("2", "3*z^3*t^2 - 2*z^2*t^5 + z*t"),
        ("z", "6*z^2*t^2 - 4*z*t^5 + 2*t"),
        ("t", "6*z^3*t - 4*z^2*t^4 + 2*z"),
        ("-2*z*t", "-3*z^2*t + 2*z*t^4 - 1"),
    ]:
        assert (
            _exact_div_terms(BiPoly.parse(num).terms, BiPoly.parse(den).terms)
            == BiPoly.parse(quotient).terms
        )


def test_inexact_division_raises():
    num = BiPoly.parse("z^2 + 1")
    den = BiPoly.parse("z + 1")
    with pytest.raises(ValueError):
        _exact_div_terms(num.terms, den.terms)
    with pytest.raises(ZeroDivisionError):
        _exact_div_terms(num.terms, {})
    # one-term divisors: the coefficient must divide and no exponent may
    # go negative, since a borrow would alias t into z
    for num, den in [("3", "2"), ("t", "z"), ("z", "t")]:
        with pytest.raises(ValueError):
            _exact_div_terms(BiPoly.parse(num).terms, BiPoly.parse(den).terms)


def test_substitute_t():
    p = BiPoly.parse("1 + 3*z*t + 2*z*t^2 + z^2")
    assert p.substitute_t(1) == BiPoly.parse("1 + 5*z + z^2")
    assert p.substitute_t(0) == BiPoly.parse("1 + z^2")
    assert p.substitute_t(-1) == BiPoly.parse("1 - z + z^2")


def test_degrees_and_coeff():
    p = BiPoly.parse("1 + 4*z^3*t^2")
    assert p.coeff(3, 2) == 4
    assert p.coeff(1, 1) == 0
    assert p.coeff(0, 0) == 1


# ---------------------------------------------------------------------------
# PolyT


def test_polyt_list_round_trip():
    p = PolyT({0: 1, 2: 3})
    assert p.as_list() == [1, 0, 3]
    assert PolyT().as_list() == []
    assert p.coeff(2) == 3 and p.coeff(7) == 0


def test_polyt_render():
    assert PolyT({0: 1, 1: 2, 2: 1}).render() == "1 + 2*t + t^2"
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
        RatFun(BiPoly.term(1), BiPoly())
    with pytest.raises(ValueError):
        RatFun(BiPoly.term(1), BiPoly.parse("z + z^2"))
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
    assert RatFun.parse("1 / 1 - z").render() == "(1) / (1 - z)"
    for bad in (
        "(1) / (1 - z) / (1)",
        "((1) / (1 - z)",
        "(1) / (1 - z))",
        "((1) / (1 - z))",
        "(1) - (z) / (1)",
        "(1) (1)",
        "() / (1)",
        "(1) / (1 - t^4294967296)",
    ):
        with pytest.raises(ValueError):
            RatFun.parse(bad)


# ---------------------------------------------------------------------------
# every text parser fails with ValueError and nothing else

parser_text = st.text(alphabet="zt0123456789^*+-()/ x_:=;eq\n", max_size=40)


@settings(max_examples=300)
@given(parser_text)
def test_parsers_raise_only_value_error(text):
    for parse, arg in (
        (BiPoly.parse, text),
        (RatFun.parse, text),
        (parse_cas_script, text),
        (parse_cas_script, f"eq_0 := x0 = {text};"),
    ):
        try:
            parse(arg)
        except ValueError:
            pass
