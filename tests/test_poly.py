import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqtilings.gfun import parse_cas_script
from sqtilings.poly import BiPoly, PolyT, RatFun

exponents = st.integers(min_value=0, max_value=6)
coefficients = st.integers(min_value=-9, max_value=9).filter(bool)
bipolys = st.dictionaries(
    st.tuples(exponents, exponents), coefficients, max_size=6
).map(BiPoly)


def test_parse_simple():
    p = BiPoly.parse("1 - z - 2*z^2*t")
    assert p.terms == {(0, 0): 1, (1, 0): -1, (2, 1): -2}


def test_parse_any_factor_order_and_whitespace():
    assert BiPoly.parse("-t^2*z^3") == BiPoly({(3, 2): -1})
    assert BiPoly.parse("  3 * t * z ") == BiPoly({(1, 1): 3})
    assert BiPoly.parse("+2*z*2*t") == BiPoly({(1, 1): 4})


def test_parse_accumulates_duplicate_monomials():
    assert BiPoly.parse("z + z - 2*z") == BiPoly()


def test_parse_rejects_garbage():
    for bad in ("", "z +", "q", "z^", "1 -- z", "z**2"):
        with pytest.raises(ValueError):
            BiPoly.parse(bad)


def test_render_graded_lex_order():
    p = BiPoly.parse("t^3 + z^2*t + z^3 + 1 - z")
    assert p.render() == "1 - z + t^3 + z^2*t + z^3"


def test_render_zero_and_units():
    assert BiPoly().render() == "0"
    assert BiPoly({(0, 0): 1}).render() == "1"
    assert BiPoly({(0, 1): -1}).render() == "-t"
    assert BiPoly({(2, 2): 1}).render() == "z^2*t^2"


@given(bipolys)
def test_render_parse_round_trip(p):
    assert BiPoly.parse(p.render()) == p


def test_exponents_have_no_width_limit():
    # t exponents past 2^32 - 1 parse, add up and render back
    assert BiPoly.parse("t^4294967296").render() == "t^4294967296"
    assert BiPoly.parse("t^2*t^4294967295").render() == "t^4294967297"
    text = "(1) / (1 - t^4294967296)"
    assert RatFun.parse(text).render() == text


def test_substitute_t():
    p = BiPoly.parse("1 + 3*z*t + 2*z*t^2 + z^2")
    assert p.substitute_t(1) == BiPoly.parse("1 + 5*z + z^2")
    assert p.substitute_t(0) == BiPoly.parse("1 + z^2")
    assert p.substitute_t(-1) == BiPoly.parse("1 - z + z^2")


def test_degrees_and_coeff():
    p = BiPoly.parse("1 + 4*z^3*t^2")
    assert p.terms[3, 2] == 4
    assert (1, 1) not in p.terms
    assert p.terms[0, 0] == 1


# ---------------------------------------------------------------------------
# PolyT


def test_polyt_list_round_trip():
    p = PolyT({0: 1, 2: 3})
    assert p.as_list() == [1, 0, 3]
    assert PolyT().as_list() == []
    assert PolyT({}).as_list() == []


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
        RatFun(BiPoly.parse("1"), BiPoly())
    with pytest.raises(ValueError):
        RatFun(BiPoly.parse("1"), BiPoly.parse("z + z^2"))
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
