import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

from zetapoly import exactcore
from zetapoly.exactcore import RatPoly, is_self_inversive, rref
from zetapoly.habiro import chebyshev_T, habiro_r
from zetapoly.modforms import eigenform
from zetapoly.periods import cfi_quotient, odd_period_polynomial, relations_kernel
from zetapoly.rvtransform import rv_polynomial


def P(*coeffs):
    return RatPoly(coeffs)


class TestMul:
    def test_difference_of_squares(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)

    def test_identity(self):
        p = P(3, Fraction(1, 2), 7)
        assert p * RatPoly.one() == p

    def test_mixed_rational_product(self):
        left = P(-4, 0, 1) * P(Fraction(-1, 4), 0, 1)
        assert left == P(1, 0, Fraction(-17, 4), 0, 1)

    def test_degree_additive(self):
        p, q = P(1, 2, 3), P(0, 5, 0, 7)
        assert (p * q).degree == p.degree + q.degree


class TestDivRem:
    def test_exact(self):
        quot, rem = divmod(P(-1, 0, 1), P(-1, 1))
        assert quot == P(1, 1) and rem.is_zero()

    def test_remainder(self):
        quot, rem = divmod(P(0, 0, 1), P(-1, 1))
        assert quot == P(1, 1) and rem == P(1)

    def test_period_polynomial_quotient(self):
        num = P(0, 4, 0, -25, 0, 42, 0, -25, 0, 4)
        den = RatPoly.x() * P(-4, 0, 1) * P(Fraction(-1, 4), 0, 1) * P(-1, 0, 1) ** 2
        quot, rem = divmod(num, den)
        assert quot == P(4) and rem.is_zero()

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(1, 2), RatPoly.zero())


class TestCompose:
    def test_square_of_shift(self):
        assert P(0, 0, 1).compose(P(1, 1)) == P(1, 2, 1)

    def test_identity(self):
        p = P(2, -3, 0, 5)
        assert p.compose(RatPoly.x()) == p

    def test_chebyshev_commutation(self):
        t3, t2 = P(0, -3, 0, 1), P(-2, 0, 1)
        assert t3.compose(t2) == t2.compose(t3)


class TestEval:
    def test_at_zero(self):
        assert P(1, 0, 1)(Fraction(0)) == 1

    def test_at_two(self):
        assert P(1, 0, 1)(Fraction(2)) == 5

    def test_root_of_squared_factor(self):
        assert P(0, 4, 0, -25, 0, 42, 0, -25, 0, 4)(Fraction(1)) == 0


class TestCoefficientConvention:
    @pytest.mark.parametrize("bad", [0.1, 2.0, 1j, mpf(3)])
    def test_inexact_coefficient_rejected(self, bad):
        with pytest.raises(TypeError):
            RatPoly((1, bad))

    def test_inexact_scalar_rejected(self):
        with pytest.raises(TypeError):
            P(1, 2) * 0.5

    @pytest.mark.parametrize("bad", [0.5, mpf(3)])
    def test_inexact_minus_poly_rejected(self, bad):
        # __rsub__ used to coerce to None and recurse until RecursionError
        with pytest.raises(TypeError):
            bad - P(1, 2)

    def test_integral_values_are_ints(self):
        assert P(Fraction(4, 2), Fraction(1, 3)).coeffs == (2, Fraction(1, 3))
        assert type(P(Fraction(4, 2))[0]) is int
        value = P(1, 2)(3)
        assert value == 7 and type(value) is int
        assert type(P(Fraction(1, 2), Fraction(1, 2))(Fraction(1))) is int

    def test_exact_division_has_no_float(self):
        quot, rem = divmod(P(1, 0, 3), P(0, 2))
        assert quot == P(0, Fraction(3, 2)) and rem == P(1)
        assert P(3, 6).monic() == P(Fraction(1, 2), 1)
        assert P(Fraction(1, 2), Fraction(-3, 4)).primitive_integer().coeffs == (-2, 3)

    def test_pipeline_outputs_follow_the_convention(self):
        def exact(c):
            return type(c) is int or (type(c) is Fraction and c.denominator > 1)

        U = cfi_quotient(odd_period_polynomial(26), 26).U_poly
        record = rv_polynomial(U, 60)
        polys = list(relations_kernel(24).basis) + [record.H, record.Q, habiro_r(12).residue]
        assert all(exact(c) for p in polys for c in p.coeffs)
        assert any(type(c) is Fraction for c in record.H.coeffs)
        assert all(exact(c) for c in eigenform(26, 77).coeffs)


class TestImmutable:
    def test_assignment_raises(self):
        p = P(1, 2)
        with pytest.raises(AttributeError, match="RatPoly is immutable"):
            p.coeffs = (9,)
        with pytest.raises(AttributeError):
            del p.coeffs
        assert p == P(1, 2)

    def test_cached_value_cannot_be_poisoned(self):
        with pytest.raises(AttributeError):
            chebyshev_T(2).coeffs = (9,)
        assert chebyshev_T(2) == P(-2, 0, 1)


class TestRref:
    def test_full_rank(self):
        rows, pivots = rref([[2, 4], [1, 3]])
        assert rows == [[1, 0], [0, 1]] and pivots == [0, 1]

    def test_rank_deficient(self):
        rows, pivots = rref([[0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 5]])
        assert pivots == [1, 3]
        assert rows == [[0, 1, 2, 0], [0, 0, 0, 1]]
        assert all(type(v) is int for row in rows for v in row)

    def test_rational_entries(self):
        rows, pivots = rref([[3, 1], [0, 0]])
        assert rows == [[1, Fraction(1, 3)]] and pivots == [0]

    def test_empty(self):
        assert rref([]) == ([], [])


class TestGcd:
    """gcd(p, p') is monic and holds each repeated root once less, so
    p // gcd(p, p') is the squarefree part of p."""

    def test_double_root(self):
        p = P(-1, 1) ** 2
        assert p.gcd(p.derivative()) == P(-1, 1)

    def test_already_squarefree(self):
        p = P(1, 0, 1)
        assert p.gcd(p.derivative()) == RatPoly.one()

    def test_mixed_multiplicities(self):
        p = P(-1, 0, 1) ** 2 * P(-4, 0, 1)
        assert p.gcd(p.derivative()) == P(-1, 0, 1)
        assert (p // P(-1, 0, 1)).monic() == (P(-1, 0, 1) * P(-4, 0, 1)).monic()

    def test_zero_is_the_identity(self):
        p = P(Fraction(1, 2), 3)
        assert p.gcd(RatPoly.zero()) == RatPoly.zero().gcd(p) == p.monic()
        assert RatPoly.zero().gcd(RatPoly.zero()) == RatPoly.zero()

    def test_unlucky_point_forces_a_wider_one(self, monkeypatch):
        # both operands are 1-byte packable, so the first point is xi = 2^8;
        # a(256) = 265 divides b(256), so the first candidate is x + 9, which
        # does not divide b, and the gcd must come from a wider xi
        a, b = P(9, 1), P(2, -4, -7, 4)
        assert a(256) == 265 and b(256) % 265 == 0 and b(-9) != 0
        widths, real = [], exactcore._pack
        monkeypatch.setattr(exactcore, "_pack", lambda cs, w: widths.append(w) or real(cs, w))
        assert a.gcd(b) == b.gcd(a) == RatPoly.one()
        assert widths[0] == 1 and max(widths) > 1

    def test_constants(self):
        p = P(-3, 1) * P(1, 1)
        assert p.gcd(P(5)) == P(Fraction(-2, 7)).gcd(p) == P(3).gcd(P(Fraction(1, 3))) == RatPoly.one()
        assert p.gcd(5) == RatPoly.one()
        assert P(7).gcd(RatPoly.zero()) == RatPoly.one()

    def test_rational_coefficients(self):
        shared = P(Fraction(-1, 2), 1) * P(Fraction(2, 3), 0, Fraction(5, 7))
        a, b = shared * P(Fraction(1, 9), 1), shared * P(Fraction(-3, 4), Fraction(1, 5)) ** 2
        assert a.gcd(b) == shared.monic()
        assert a.gcd(b).coeffs == (Fraction(-7, 15), Fraction(14, 15), Fraction(-1, 2), 1)

    def test_negative_leading_coefficients(self):
        shared = P(3, -2)  # 3 - 2x
        a, b = shared * P(1, 0, 1), shared * P(-5, 0, 0, 4)
        assert a[3] < 0 and b[4] < 0
        assert a.gcd(b) == (-a).gcd(b) == a.gcd(-b) == P(Fraction(-3, 2), 1)

    def test_output_coprime_with_derivative(self):
        rng = random.Random(7)
        for _ in range(25):
            p = RatPoly([rng.randint(-5, 5) for _ in range(rng.randint(2, 7))])
            if p.degree < 1:
                continue
            sf = p // p.gcd(p.derivative())
            assert sf.gcd(sf.derivative()).degree == 0


small_rational = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)
small_poly = st.lists(small_rational, min_size=0, max_size=5).map(RatPoly)


@given(small_poly, small_poly, small_poly)
def test_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(small_poly, small_poly, small_poly)
def test_compose_associative(p, q, r):
    assert p.compose(q).compose(r) == p.compose(q.compose(r))


def horner_compose(p, other):
    """p(other) by Horner in RatPoly arithmetic: the oracle for compose."""
    result = RatPoly.zero()
    for c in reversed(p.coeffs):
        result = result * other + RatPoly((c,))
    return result


exact_coeff = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=50))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(exact_coeff, max_size=14).map(RatPoly),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    st.one_of(st.sampled_from((1, -1)), st.fractions(max_denominator=20).filter(bool)),
)
def test_linear_compose_matches_horner(p, a, b):
    # the zero and constant p included; the Taylor shift must give the same exact values
    got, want = p.compose(RatPoly((a, b))), horner_compose(p, RatPoly((a, b)))
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


fractional_poly = st.lists(exact_coeff, max_size=8).map(RatPoly)
constant_poly = st.one_of(st.just(RatPoly.zero()), exact_coeff.map(lambda c: RatPoly((c,))))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(fractional_poly, constant_poly),
    st.one_of(
        fractional_poly.filter(lambda p: p.degree >= 2),
        st.lists(st.integers(-10**6, 10**6), min_size=12, max_size=16).map(RatPoly),
        constant_poly,
    ),
)
@example(P(Fraction(1, 2), Fraction(1, 3), 0, Fraction(2, 5)), P(Fraction(1, 7), 0, Fraction(3, 4)))
@example(P(Fraction(1, 2), Fraction(1, 3)), P(Fraction(5, 3), Fraction(-1, 6), Fraction(1, 9)))
@example(P(Fraction(3, 4), 0, 1), P(Fraction(2, 3)))
@example(P(Fraction(3, 4), 0, 1), RatPoly.zero())
@example(RatPoly.zero(), P(0, Fraction(1, 2), 7))
@example(P(Fraction(-5, 6)), P(1, 0, Fraction(1, 2)))
def test_compose_matches_horner(p, inner):
    # den > 1 on both sides, long inners (the Kronecker product), and the
    # zero and constant polynomials inside and outside
    got, want = p.compose(inner), horner_compose(p, inner)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        fractional_poly,
        constant_poly,
        st.lists(st.integers(-10**6, 10**6), min_size=12, max_size=16).map(RatPoly),
    ),
    st.integers(0, 9),
)
@example(RatPoly.zero(), 0)
@example(RatPoly.zero(), 5)
@example(P(Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)), 7)
def test_power_matches_repeated_product(p, n):
    want = RatPoly.one()
    for _ in range(n):
        want = want * p
    got = p**n
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@pytest.mark.parametrize("p", [RatPoly.zero(), P(2), P(Fraction(1, 2), 1)])
def test_negative_power_raises(p):
    with pytest.raises(ValueError, match="negative power"):
        p**-1


def test_divrem_reconstruction_200_random_pairs():
    rng = random.Random(20260823)

    def rand_poly(max_deg):
        deg = rng.randint(0, max_deg)
        return RatPoly(
            [
                Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
                for _ in range(deg + 1)
            ]
        )

    done = 0
    while done < 200:
        p, q = rand_poly(12), rand_poly(12)
        if q.is_zero():
            continue
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.degree < q.degree or rem.is_zero()
        done += 1


def test_rational_serialization():
    p = P(Fraction(1, 2), -3, Fraction(-3, 7), Fraction(10, 2))
    assert p.coeff_strings() == ["1/2", "-3", "-3/7", "5"]
    assert RatPoly(Fraction(s) for s in p.coeff_strings()) == p


def test_self_inversive_predicate():
    assert is_self_inversive(P(2, -5, 2))
    assert is_self_inversive(P(4))
    assert not is_self_inversive(P(1, 2))
    assert not is_self_inversive(RatPoly.zero())


# -- the representation: integer numerators over one common denominator ----

@settings(max_examples=300, deadline=None)
@given(st.lists(exact_coeff, max_size=16))
def test_normal_form(cs):
    p = RatPoly(cs)
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int for c in p.num)
    assert gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    values = [Fraction(c) for c in cs]
    while values and values[-1] == 0:
        values.pop()
    assert [Fraction(c) for c in p.coeffs] == values
    assert [type(c) for c in p.coeffs] == [int if v.denominator == 1 else Fraction for v in values]
    assert RatPoly(p.coeffs) == p
    q = (p * 3) * Fraction(1, 3)
    assert q == p and hash(q) == hash(p)


@pytest.mark.parametrize("value", [3, Fraction(-5, 6), 0], ids=["int", "fraction", "zero"])
def test_constant_hashes_as_its_value(value):
    p = P(value)
    assert p == value and hash(p) == hash(value)
    assert len({value, p}) == 1
    assert {value: "a"}.get(p) == "a" and {p: "a"}.get(value) == "a"


def test_equal_values_hash_equal():
    assert P(Fraction(2, 4)) == P(Fraction(1, 2))
    assert hash(P(Fraction(2, 4))) == hash(P(Fraction(1, 2)))
    p = P(Fraction(1, 6), Fraction(-5, 4), 7)
    for q in ((p * 12) * Fraction(1, 12), p * P(6, 6) // P(6, 6), (p + p) * Fraction(1, 2)):
        assert q == p and hash(q) == hash(p)
    assert p * 12 == P(2, -15, 84) and (p * 12).den == 1


@pytest.mark.parametrize(
    "op",
    [
        lambda p: divmod(p, 1.5),
        lambda p: p // 1.5,
        lambda p: p % "x",
        lambda p: p.compose(1.5),
        lambda p: p.gcd(2.5),
        lambda p: p(0.5),
        lambda p: p(0.5 + 1j),
        lambda p: p(mpf(3)),
    ],
    ids=[
        "divmod-float",
        "floordiv-float",
        "mod-str",
        "compose-float",
        "gcd-float",
        "call-float",
        "call-complex",
        "call-mpf",
    ],
)
def test_inexact_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op(P(1, 2, 3))
