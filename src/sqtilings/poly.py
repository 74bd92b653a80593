"""Exact sparse polynomial and rational-function arithmetic in z and t.

All coefficients are Python ints, so nothing overflows or rounds.  Three
small types cover everything the counting code needs:

* ``PolyT``  -- read-only polynomial in t, one series coefficient of a
  generating function.  The coefficient of t^k is a number of tilings
  that use exactly k large squares.
* ``BiPoly`` -- two variables: z marks completed rows, t marks placed
  squares.  Generating functions live here.
* ``RatFun`` -- a BiPoly numerator/denominator pair kept in a canonical
  form: shared integer content removed, denominator constant term +1.

A BiPoly stores its terms as ``{(z_exp, t_exp): coeff}``, exponent pairs
mapped to nonzero ints.  :mod:`sqtilings.gfun` uses only the three public
types: its elimination keys its own term maps by the z exponent alone,
with t carried inside the coefficients.

The text format used by the CLI and by fixture files writes terms in
ascending graded-lexicographic order (total degree, then z power, then t
power) with explicit ``*`` and ``^``, e.g. ``1 - z - 2*z^2*t``.  Rational
functions are written ``(num) / (den)``: exactly one ``/``, each side
optionally wrapped in parentheses.  Parsing accepts arbitrary whitespace
and any factor order inside a term, so ``-t^2*z^3`` is fine.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import gcd

# ---------------------------------------------------------------------------
# raw term-map helpers; a term map is dict[(z_exp, t_exp), nonzero int]


def _content(a: dict) -> int:
    g = 0
    for c in a.values():
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _subs_t_terms(a: dict, value: int) -> dict:
    out: dict = {}
    for (z, t), c in a.items():
        zk = (z, 0)
        v = out.get(zk, 0) + c * value**t
        if v:
            out[zk] = v
        elif zk in out:
            del out[zk]
    return out


# ---------------------------------------------------------------------------
# text format

_FACTOR_RE = re.compile(r"^(?:(\d+)|([zt])(?:\^(\d+))?)$")


def _parse_terms(text: str) -> dict:
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    if s[0] not in "+-":
        s = "+" + s
    tokens = re.findall(r"[+-][^+-]+", s)
    if sum(len(tok) for tok in tokens) != len(s):
        raise ValueError(f"cannot parse polynomial text: {text!r}")
    out: dict = {}
    for tok in tokens:
        sign = -1 if tok[0] == "-" else 1
        coeff = sign
        z_exp = t_exp = 0
        for factor in tok[1:].split("*"):
            m = _FACTOR_RE.match(factor)
            if m is None:
                raise ValueError(f"bad factor {factor!r} in polynomial text: {text!r}")
            digits, var, exp = m.groups()
            if digits is not None:
                coeff *= int(digits)
            elif var == "z":
                z_exp += int(exp) if exp else 1
            else:
                t_exp += int(exp) if exp else 1
        k = (z_exp, t_exp)
        v = out.get(k, 0) + coeff
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def _monomial_text(coeff: int, z_exp: int, t_exp: int) -> str:
    factors = []
    if abs(coeff) != 1 or (z_exp == 0 and t_exp == 0):
        factors.append(str(abs(coeff)))
    if z_exp:
        factors.append("z" if z_exp == 1 else f"z^{z_exp}")
    if t_exp:
        factors.append("t" if t_exp == 1 else f"t^{t_exp}")
    return "*".join(factors)


def _render_terms(terms: dict) -> str:
    if not terms:
        return "0"
    order = sorted((ze + te, ze, te, c) for (ze, te), c in terms.items())
    parts = []
    for pos, (_, ze, te, c) in enumerate(order):
        mono = _monomial_text(c, ze, te)
        if pos == 0:
            parts.append("-" + mono if c < 0 else mono)
        else:
            parts.append((" - " if c < 0 else " + ") + mono)
    return "".join(parts)


# ---------------------------------------------------------------------------


class BiPoly:
    """Sparse polynomial in z and t over the integers."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        # terms maps (z_exp, t_exp) pairs to nonzero coefficients; the dict
        # is owned by the instance and must not be mutated afterwards
        self.terms = terms if terms else {}

    @classmethod
    def parse(cls, text: str) -> "BiPoly":
        return cls(_parse_terms(text))

    def substitute_t(self, value: int) -> "BiPoly":
        return BiPoly(_subs_t_terms(self.terms, value))

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    __hash__ = None

    def render(self) -> str:
        return _render_terms(self.terms)

    def __repr__(self):
        return f"BiPoly({self.render()})"


class PolyT(namedtuple("PolyT", "coeffs", defaults=({},))):
    """Read-only polynomial in t: one series coefficient of a generating function.

    coeffs maps each exponent of t to its nonzero coefficient.
    """

    __slots__ = ()

    def as_list(self) -> list:
        """Coefficients c0 .. c_deg, trailing zeros trimmed."""
        return [self.coeffs.get(k, 0) for k in range(max(self.coeffs, default=-1) + 1)]


class RatFun:
    """Ratio of two BiPoly in canonical form.

    Construction removes the integer content shared by numerator and
    denominator and flips signs so the denominator's constant term is
    positive.  A zero or constant-term-free denominator is rejected:
    every series this library produces is a power series in z with unit
    constant denominator term, so such input signals a usage error.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly):
        if not den.terms:
            raise ValueError("zero denominator")
        nt, dt = num.terms, den.terms
        g = gcd(_content(nt), _content(dt))
        if g > 1:
            nt = {k: c // g for k, c in nt.items()}
            dt = {k: c // g for k, c in dt.items()}
        c0 = dt.get((0, 0), 0)
        if c0 == 0:
            raise ValueError("denominator constant term is zero")
        if c0 < 0:
            nt = {k: -c for k, c in nt.items()}
            dt = {k: -c for k, c in dt.items()}
        self.num = BiPoly(nt)
        self.den = BiPoly(dt)

    @classmethod
    def parse(cls, text: str) -> "RatFun":
        """Read ``num / den``: exactly one slash, each side optionally in parentheses.

        Polynomial text holds no parentheses, so any left after stripping
        the outer pairs is rejected by the polynomial parser.
        """
        sides = text.split("/")
        if len(sides) != 2:
            raise ValueError(f"rational function text needs exactly one '/': {text!r}")
        polys = []
        for side in sides:
            side = side.strip()
            while side.startswith("(") and side.endswith(")"):
                side = side[1:-1].strip()
            polys.append(BiPoly.parse(side))
        return cls(*polys)

    def substitute_t(self, value: int) -> "RatFun":
        den = self.den.substitute_t(value)
        if not den.terms:
            raise ValueError(f"substituting t={value} degenerates the denominator")
        return RatFun(self.num.substitute_t(value), den)

    def equivalent(self, other: "RatFun") -> bool:
        """Equality as rational functions, decided by cross-multiplication."""
        diff: dict = {}
        for sign, a, b in ((1, self.num.terms, other.den.terms),
                           (-1, other.num.terms, self.den.terms)):
            for (za, ta), ca in a.items():
                for (zb, tb), cb in b.items():
                    k = (za + zb, ta + tb)
                    diff[k] = diff.get(k, 0) + sign * ca * cb
        return not any(diff.values())

    def __eq__(self, other):
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    __hash__ = None

    def render(self) -> str:
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self):
        return f"RatFun({self.render()})"

