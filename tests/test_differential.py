"""Differential tests against sympy: the gcd of RatPoly, the two zero-locus
certificates and their root counts on polynomials that sympy builds by
exact expansion, the integer product and division paths of RatPoly, and
Habiro residues."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zetapoly.exactcore import RatPoly
from zetapoly.habiro import habiro_q, habiro_qinv, habiro_r, psi_toric
from zetapoly.intmul import _KRONECKER_MIN_LEN
from zetapoly.zerocert import critical_line_certify, unit_circle_certify

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
@given(rational_polys(), rational_polys(), rational_polys())
def test_gcd_matches_sympy(shared, f, g):
    a, b = sympy.expand(shared * f), sympy.expand(shared * g)
    expected = sympy.Poly(sympy.gcd(a, b), X).monic().as_expr()
    assert from_sympy(a).gcd(from_sympy(b)) == from_sympy(expected)


def wide_polys(min_degree, max_degree):
    """Polynomials with 64-bit integer coefficients over a small denominator."""
    coeff = st.integers(-(2**64), 2**64)
    return st.builds(
        lambda cs, lead, den: RatPoly(Fraction(c, den) for c in cs + [lead]),
        st.lists(coeff, min_size=min_degree, max_size=max_degree),
        coeff.filter(bool),
        st.integers(1, 12),
    )


@settings(max_examples=25, deadline=None)
@given(wide_polys(2, 8), wide_polys(18, 24), wide_polys(18, 24))
def test_gcd_matches_sympy_at_degree_20_and_64_bits(shared, f, g):
    # the regime where Euclid over Q took seconds per gcd
    a, b = shared * f, shared * g
    assert min(a.degree, b.degree) >= 20
    poly_a, poly_b = (sympy.Poly([to_sympy(c) for c in p.coeffs[::-1]], X) for p in (a, b))
    expected = sympy.gcd(poly_a, poly_b).monic()
    assert a.gcd(b) == RatPoly(Fraction(int(c.p), int(c.q)) for c in expected.all_coeffs()[::-1])


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
@given(st.lists(inner_t, min_size=1, max_size=4), nonzero_rational)
def test_unit_circle_passes_on_unimodular_products(ts, scale):
    # repeats allowed: a repeated t is a repeated pair of roots on the circle
    cert = unit_circle_certify(circle_product(ts, scale))
    assert cert.passed and cert.counted_roots == len(ts)


@SETTINGS
@given(st.lists(inner_t, max_size=3, unique=True), outer_t, nonzero_rational)
def test_unit_circle_fails_with_a_factor_off_the_circle(ts, bad, scale):
    assert not unit_circle_certify(circle_product(ts + [bad], scale)).passed


@st.composite
def line_factors(draw):
    """Factors (x-c)^2 + b^2 and an even power of (x-c), repeats allowed, so
    the product is even under x -> 2c - x; returns c and the product's
    expression."""
    c = draw(small_rational)
    bs = draw(st.lists(small_rational, max_size=3))
    linear = 2 * draw(st.integers(0 if bs else 1, 1))
    expr = to_sympy(draw(nonzero_rational)) * (X - to_sympy(c)) ** linear
    for b in bs:
        expr *= (X - to_sympy(c)) ** 2 + to_sympy(b) ** 2
    return c, expr


@SETTINGS
@given(line_factors())
def test_critical_line_passes_on_products_on_the_line(factors):
    c, expr = factors
    Q = from_sympy(expr)
    cert = critical_line_certify(Q, c)
    assert cert.passed and cert.counted_roots == Q.degree


@SETTINGS
@given(line_factors(), nonzero_rational, small_rational)
def test_critical_line_fails_with_a_pair_off_the_line(factors, a, b):
    c, expr = factors
    u = X - to_sympy(c)
    a, b = to_sympy(a), to_sympy(b)
    # roots c + a +- ib and c - a +- ib: symmetric about the line, not on it
    expr *= ((u - a) ** 2 + b**2) * ((u + a) ** 2 + b**2)
    assert not critical_line_certify(from_sympy(expr), c).passed


@st.composite
def integer_a(draw):
    """A random integer A as a sympy Poly: real roots of either sign and 0,
    and complex pairs -a +- i/sqrt(q), close to the negative axis for a large
    q; every factor may repeat."""
    A = sympy.Poly(draw(st.sampled_from((1, -1, 2, -3))), X)
    for r, m in draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)), max_size=3)):
        A *= sympy.Poly(X + r, X) ** m
    pairs = st.tuples(st.integers(-6, 6), st.integers(1, 2**64), st.integers(1, 2))
    for a, q, m in draw(st.lists(pairs, max_size=2)):
        A *= sympy.Poly(q * (X + a) ** 2 + 1, X) ** m
    return A


def from_poly(poly) -> RatPoly:
    return RatPoly(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def roots_at_most_zero(A, zero=True):
    """The real roots of A in (-oo, 0] (in (-oo, 0) for zero=False), by
    multiplicity: sympy's root count on each squarefree factor."""
    return sum(k * (f.count_roots(None, 0) - (not zero and f.eval(0) == 0)) for f, k in A.sqf_list()[1])


@SETTINGS
@given(integer_a(), small_rational)
def test_critical_line_count_matches_sympy(A, c):
    shift = sympy.Poly(X - to_sympy(c), X)
    Q = from_poly(A.compose(shift**2))  # Q(c + u) = A(u^2)
    cert = critical_line_certify(Q, c)
    assert cert.counted_roots == 2 * roots_at_most_zero(A)


@SETTINGS
@given(integer_a().filter(lambda A: A.eval(1) != 0))
def test_unit_circle_count_matches_sympy(A):
    # U(z) = (z + 1)^(2m) A(((z - 1)/(z + 1))^2) has the Cayley transform 4^m A(u^2)
    m = A.degree()
    minus, plus = sympy.Poly(X - 1, X), sympy.Poly(X + 1, X)
    terms = (c * minus ** (2 * i) * plus ** (2 * (m - i)) for i, c in enumerate(reversed(A.all_coeffs())))
    U = sum(terms, 0 * plus)
    cert = unit_circle_certify(from_poly(U))
    assert cert.expected_roots == m and cert.counted_roots == roots_at_most_zero(A, zero=False)


# -- integer products and divisions --------------------------------------

def int_sympy(coeffs):
    """sympy Poly over ZZ from constant-first int coefficients."""
    return sympy.Poly(list(reversed(coeffs)) or [0], X, domain="ZZ")


def sympy_coeffs(poly) -> list:
    return [int(c) for c in reversed(poly.all_coeffs())] if not poly.is_zero else []


def random_ints(rng, length, bits):
    """length ints of up to `bits` bits; bits 0 draws from {-1, 0, 1}."""
    if bits == 0:
        return [rng.choice((-1, 0, 1)) for _ in range(length)]
    return [rng.randint(-(1 << bits), 1 << bits) for _ in range(length)]


T = _KRONECKER_MIN_LEN
# shorter operand below, at and above the Kronecker threshold, balanced and not
LENGTHS = [(1, 5), (T - 1, T - 1), (T - 1, 4 * T), (T, T), (T, 3 * T), (4 * T, 5 * T)]
# coefficient bits: products that fit 8-bit, 16-bit and 64-bit digits, and
# ones (from 62 bits up) that need the byte-string packing
BITS = [0, 3, 20, 61, 62, 63, 64, 100, 300]


@pytest.mark.parametrize("lengths", LENGTHS)
@pytest.mark.parametrize("bits", BITS)
def test_int_product_matches_sympy(lengths, bits):
    rng = random.Random(str((lengths, bits)))
    a = random_ints(rng, lengths[0], bits)
    b = random_ints(rng, lengths[1], bits)
    a[-1] = b[-1] = rng.choice((-1, 1)) << bits  # full length, both signs of lead
    for x, y in ((a, b), (b, a), (a, a)):
        got = RatPoly(x) * RatPoly(y)
        assert list(got.coeffs) == sympy_coeffs(int_sympy(x) * int_sympy(y))
        assert all(type(c) is int for c in got.coeffs)


@pytest.mark.parametrize("lengths", [(T, T), (T + 3, 2 * T), (T, 6 * T)])
def test_int_product_at_the_coefficient_bound(lengths):
    """Constant coefficients +-M make the middle product coefficients reach
    max|a| * max|b| * min(len) exactly, the bound the digit width is sized
    from; M runs over every bit length so each digit width is met at its
    edge."""
    for bits in range(0, 140):
        for m in ((1 << bits) - 1, 1 << bits):
            a, b = [m] * lengths[0], [-m] * lengths[1]
            for x, y in ((a, b), (b, b)):
                got = RatPoly(x) * RatPoly(y)
                assert list(got.coeffs) == sympy_coeffs(int_sympy(x) * int_sympy(y)), (bits, m)


@pytest.mark.parametrize("length", [1, T - 1, T, 3 * T])
def test_int_product_with_zero(length):
    p = RatPoly(random_ints(random.Random(length), length, 64))
    assert (p * RatPoly.zero()).is_zero() and (RatPoly.zero() * p).is_zero()


@pytest.mark.parametrize("lead", [1, -1])
@pytest.mark.parametrize("bits", [0, 20, 63, 100])
@pytest.mark.parametrize("lengths", [(3 * T, 5), (3 * T, T), (T, T), (5, T), (1, 4), (0, 3)])
def test_monic_int_division_matches_sympy(lead, bits, lengths):
    rng = random.Random(str((lead, bits, lengths)))
    f = random_ints(rng, lengths[0], bits)
    g = random_ints(rng, lengths[1] - 1, bits) + [lead]
    quot, rem = divmod(RatPoly(f), RatPoly(g))
    want_q, want_r = int_sympy(f).div(int_sympy(g), auto=False)
    assert list(quot.coeffs) == sympy_coeffs(want_q)
    assert list(rem.coeffs) == sympy_coeffs(want_r)
    assert all(type(c) is int for c in quot.coeffs + rem.coeffs)


@pytest.mark.parametrize("lead", [1, -1])
@pytest.mark.parametrize("lengths", [(3 * T, T), (T, 5), (4, 4)])
def test_fraction_division_by_unit_lead_matches_sympy(lead, lengths):
    """A Fraction dividend over a +-1-led divisor, with int and with Fraction
    lower coefficients: the quotient is c * lead, exactly."""
    rng = random.Random(str((lead, lengths)))
    f = [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(lengths[0])]
    for g in (
        random_ints(rng, lengths[1] - 1, 20) + [lead],
        [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(lengths[1] - 1)] + [lead],
    ):
        quot, rem = divmod(RatPoly(f), RatPoly(g))
        sf, sg = (sympy.Poly([to_sympy(Fraction(c)) for c in reversed(v)], X, domain="QQ") for v in (f, g))
        want_q, want_r = sf.div(sg)
        assert quot == from_sympy(want_q.as_expr())
        assert rem == from_sympy(want_r.as_expr())


def random_fractions(rng, length, bits=40):
    return [Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1000)) for _ in range(length)]


def sympy_qq(coeffs):
    """sympy Poly over QQ from constant-first int or Fraction coefficients."""
    return sympy.Poly([to_sympy(Fraction(c)) for c in reversed(coeffs)] or [0], X, domain="QQ")


@pytest.mark.parametrize("lead", [2, -3, 7, 1 << 70, Fraction(3, 5)])
@pytest.mark.parametrize("lengths", [(4 * T, T), (3 * T, T - 1), (T - 1, T - 1), (T + 2, 3), (4, 4), (2, 5)])
@pytest.mark.parametrize("fraction_dividend", [False, True])
def test_division_by_non_unit_lead_matches_sympy(lead, lengths, fraction_dividend):
    """Pseudo-division: the dividend scaled by |lead|^(deg a - deg b + 1),
    divided in integers, then put back over the denominators."""
    rng = random.Random(str((lead, lengths, fraction_dividend)))
    f = random_fractions(rng, lengths[0]) if fraction_dividend else random_ints(rng, lengths[0], 40)
    for g in (
        random_ints(rng, lengths[1] - 1, 20) + [lead],
        random_fractions(rng, lengths[1] - 1, 20) + [lead],
    ):
        quot, rem = divmod(RatPoly(f), RatPoly(g))
        want_q, want_r = sympy_qq(f).div(sympy_qq(g))
        assert quot == from_sympy(want_q.as_expr())
        assert rem == from_sympy(want_r.as_expr())
        assert quot * RatPoly(g) + rem == RatPoly(f)


@pytest.mark.parametrize("lengths", [(T, T), (T, 3 * T), (4 * T, 5 * T), (T - 1, 4 * T)])
@pytest.mark.parametrize("bits", [3, 40, 100])
def test_fraction_product_matches_sympy(lengths, bits):
    rng = random.Random(str((lengths, bits)))
    a, b = random_fractions(rng, lengths[0], bits), random_fractions(rng, lengths[1], bits)
    for x, y in ((a, b), (a, a), (a, random_ints(rng, lengths[1], bits))):
        assert RatPoly(x) * RatPoly(y) == from_sympy((sympy_qq(x) * sympy_qq(y)).as_expr())


def test_division_with_huge_divisor_coefficient_stays_fast():
    """Quotient coefficients of z^300-sized input over z^40 + 2^200 z^39 + 1
    reach 2^(200 * 261); schoolbook handles them in well under a second."""
    rng = random.Random(300)
    f = random_ints(rng, 301, 30)
    g = [1] + [0] * 38 + [1 << 200, 1]
    start = time.perf_counter()
    quot, rem = divmod(RatPoly(f), RatPoly(g))
    elapsed = time.perf_counter() - start
    want_q, want_r = int_sympy(f).div(int_sympy(g), auto=False)
    assert list(quot.coeffs) == sympy_coeffs(want_q)
    assert list(rem.coeffs) == sympy_coeffs(want_r)
    assert elapsed < 1.0


# -- Habiro residues -------------------------------------------------------

def qpochhammer_coeffs(n, step=1):
    """Constant-first coefficients of prod_{j<=n} (1 - q^(step j))."""
    c = [1]
    for j in range(1, n + 1):
        s = step * j
        c += [0] * s
        for i in range(len(c) - 1, s - 1, -1):
            c[i] -= c[i - s]
    return c


def pochhammer_sum(N, k, shift):
    """Coefficients of sum_{n=1}^{N-1} q^(k n + shift) (q^k; q^k)_n."""
    out = [0] * (shift + k * (N - 1) * (N + 2) // 2 + 1)
    for n in range(1, N):
        for i, c in enumerate(qpochhammer_coeffs(n, k)):
            out[k * n + shift + i] += c
    return out


def sympy_rem_qpochhammer(coeffs, N):
    return sympy_coeffs(int_sympy(coeffs).rem(int_sympy(qpochhammer_coeffs(N)), auto=False))


@pytest.mark.parametrize("N", [8, 14, 24, 30])
def test_habiro_residues_match_sympy(N):
    # r = 1 + q + sum q^n (q)_n, so psi^k(r) is the same sum in q^k
    for k in range(1, 9):
        r_k = pochhammer_sum(N, k, 0)
        r_k[0] += 1
        r_k[k] += 1
        assert list(psi_toric(habiro_r(N), k).residue.coeffs) == sympy_rem_qpochhammer(r_k, N)
    # q * q^-1 = q + sum q^(n+1) (q)_n
    q_qinv = pochhammer_sum(N, 1, 1)
    q_qinv[1] += 1
    want = sympy_rem_qpochhammer(q_qinv, N)
    assert list((habiro_q(N) * habiro_qinv(N)).residue.coeffs) == want == [1]
