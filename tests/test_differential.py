"""Differential tests: Sturm counts and the two zero-locus certificates
against sympy, on polynomials that sympy builds by exact expansion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zetapoly.exactcore import RatPoly
from zetapoly.zerocert import critical_line_certify, sturm_count, unit_circle_certify

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
SETTINGS = settings(max_examples=60, deadline=None)

small_rational = st.fractions(min_value=-6, max_value=6, max_denominator=5)
nonzero_rational = small_rational.filter(lambda v: v != 0)


def to_sympy(v: Fraction):
    return sympy.Rational(v.numerator, v.denominator)


def from_sympy(expr) -> RatPoly:
    """The RatPoly with the coefficients of sympy's expansion of expr."""
    coeffs = sympy.Poly(sympy.expand(expr), X).all_coeffs()[::-1]
    return RatPoly(Fraction(int(c.p), int(c.q)) for c in coeffs)


@st.composite
def rational_polys(draw):
    """Nonzero polynomials: a random factor times repeated linear factors."""
    expr = to_sympy(draw(nonzero_rational))
    for root, mult in draw(st.lists(st.tuples(small_rational, st.integers(1, 3)), max_size=3)):
        expr *= (X - to_sympy(root)) ** mult
    for c in draw(st.lists(small_rational, max_size=3)):
        expr *= X + to_sympy(c)
    if draw(st.booleans()):
        expr *= X**2 + to_sympy(abs(draw(nonzero_rational)))
    return expr


@SETTINGS
@given(rational_polys(), small_rational, small_rational, st.booleans())
def test_sturm_count_matches_sympy(expr, a, b, integral):
    if integral:
        expr = sympy.Poly(expr, X).clear_denoms()[1].as_expr()
    a, b = min(a, b), max(a, b)
    p = from_sympy(expr)
    expected = sympy.Poly(expr, X).count_roots(to_sympy(a), to_sympy(b)) - (p(a) == 0)
    assert sturm_count(p, a, b) == expected


inner_t = st.fractions(min_value=-2, max_value=2, max_denominator=9).filter(lambda t: abs(t) < 2)
outer_t = st.one_of(
    st.sampled_from([Fraction(2), Fraction(-2)]),
    st.fractions(min_value=2, max_value=7, max_denominator=9).filter(lambda t: t > 2),
    st.fractions(min_value=-7, max_value=-2, max_denominator=9).filter(lambda t: t < -2),
)


def circle_product(ts, scale):
    expr = to_sympy(scale)
    for t in ts:
        expr *= X**2 - to_sympy(t) * X + 1
    return from_sympy(expr)


@SETTINGS
@given(st.lists(inner_t, min_size=1, max_size=4, unique=True), nonzero_rational)
def test_unit_circle_passes_on_unimodular_products(ts, scale):
    cert = unit_circle_certify(circle_product(ts, scale))
    assert cert.passed and cert.counted_roots == len(ts)


@SETTINGS
@given(st.lists(inner_t, max_size=3, unique=True), outer_t, nonzero_rational)
def test_unit_circle_fails_with_a_factor_off_the_circle(ts, bad, scale):
    assert not unit_circle_certify(circle_product(ts + [bad], scale)).passed


@st.composite
def line_factors(draw):
    """Factors (x-c)^2 + b^2 and (x-c), repeats allowed; returns the product's
    expression and its sign under x -> 2c - x."""
    c = draw(small_rational)
    bs = draw(st.lists(small_rational, max_size=3))
    linear = draw(st.integers(0, 2 if bs else 3).filter(lambda n: n or bs))
    expr = to_sympy(draw(nonzero_rational)) * (X - to_sympy(c)) ** linear
    for b in bs:
        expr *= (X - to_sympy(c)) ** 2 + to_sympy(b) ** 2
    return c, expr, (-1) ** linear


@SETTINGS
@given(line_factors())
def test_critical_line_passes_on_products_on_the_line(factors):
    c, expr, sign = factors
    Q = from_sympy(expr)
    cert = critical_line_certify(Q, c, sign)
    assert cert.passed and cert.counted_roots == Q.degree


@SETTINGS
@given(line_factors(), nonzero_rational, small_rational)
def test_critical_line_fails_with_a_pair_off_the_line(factors, a, b):
    c, expr, sign = factors
    u = X - to_sympy(c)
    a, b = to_sympy(a), to_sympy(b)
    # roots c + a +- ib and c - a +- ib: symmetric about the line, not on it
    expr *= ((u - a) ** 2 + b**2) * ((u + a) ** 2 + b**2)
    assert not critical_line_certify(from_sympy(expr), c, sign).passed
