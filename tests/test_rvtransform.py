import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from zetapoly import rvtransform
from zetapoly.exactcore import RatPoly
from zetapoly.periods import cfi_quotient, odd_period_polynomial
from zetapoly.rvtransform import (
    functional_equation_defect,
    gamma_c,
    rv_polynomial,
    series_coefficients,
    zeta_projective_space,
)


def series_division_oracle(U, d, N):
    """Taylor coefficients of U/(1-z)^d by direct power-series long division."""
    den = (RatPoly((1, -1)) ** d).coeffs
    out = []
    for n in range(N + 1):
        c = U[n]
        for j in range(1, min(n, len(den) - 1) + 1):
            c -= den[j] * out[n - j]
        out.append(c / den[0])
    return out


def scaled_h_oracle(U, d):
    """(d-1)! H = sum_j u_j prod_{i=1}^{d-1} (x+i-j), one linear factor at a
    time, without taking the trivial-zero strip out."""
    G = RatPoly.zero()
    for j, u in enumerate(U.coeffs):
        term = RatPoly((u,))
        for i in range(1, d):
            term = term * RatPoly((i - j, 1))
        G = G + term
    return G


class TestSeriesCoefficients:
    def test_geometric(self):
        assert series_coefficients(RatPoly.one(), 1, 3) == [1, 1, 1, 1]

    def test_derivative_of_geometric(self):
        assert series_coefficients(RatPoly.one(), 2, 3) == [1, 2, 3, 4]

    def test_constant_4_d3(self):
        assert series_coefficients(RatPoly((4,)), 3, 2) == [4, 12, 24]

    def test_long_division_oracle_random(self):
        rng = random.Random(99)
        for _ in range(30):
            U = RatPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
            if U.is_zero():
                continue
            d = rng.randint(1, 10)
            assert series_coefficients(U, d, 40) == series_division_oracle(U, d, 40)


class TestRvPolynomial:
    def test_constant_one_d3(self):
        rec = rv_polynomial(RatPoly.one(), 3)
        assert rec.H == RatPoly((1, Fraction(3, 2), Fraction(1, 2)))
        assert rec.H(Fraction(-1)) == 0 and rec.H(Fraction(-2)) == 0
        assert rec.Q == RatPoly((Fraction(1, 2),))

    def test_constant_4_d2(self):
        rec = rv_polynomial(RatPoly((4,)), 2)
        assert rec.H == RatPoly((4, 4))
        assert functional_equation_defect(rec.H, 2, 0).is_zero()

    def test_weight16_d5(self):
        U = cfi_quotient(odd_period_polynomial(16), 16).U_poly
        rec = rv_polynomial(U, 5, weight=16)
        assert rec.H.degree == 4
        assert rec.Q == rec.H  # no trivial zeros when d = e+1
        assert rec.critical_line == Fraction(-1, 2)

    def test_d_too_small(self):
        with pytest.raises(ValueError):
            rv_polynomial(RatPoly((1, 0, 1)), 2)

    def test_non_self_inversive_rejected(self):
        with pytest.raises(ValueError):
            rv_polynomial(RatPoly((1, 2)), 4)

    def test_interpolation_consistency_to_50(self):
        U = cfi_quotient(odd_period_polynomial(18), 18).U_poly
        rec = rv_polynomial(U, 9, weight=18)
        coeffs = series_coefficients(U, 9, 50)
        for n in range(51):
            assert rec.H(Fraction(n)) == coeffs[n]

    def test_weight26_d200_budget(self):
        U = cfi_quotient(odd_period_polynomial(26), 26).U_poly
        t0 = time.process_time()
        rec = rv_polynomial(U, 200, weight=26)
        assert time.process_time() - t0 < 0.25
        assert rec.H.degree == 199 and rec.Q.degree == 14

    def test_weight26_d800_budget(self):
        # the checks run on the degree-e factor GQ and the closed form of the
        # strip, O(d e) big-integer steps, not on the degree-799 H
        U = cfi_quotient(odd_period_polynomial(26), 26).U_poly
        t0 = time.process_time()
        rec = rv_polynomial(U, 800, weight=26)
        assert time.process_time() - t0 < 0.5
        assert rec.H.degree == 799 and rec.Q.degree == 14

    def test_degree_bookkeeping(self):
        for k in (12, 16, 18):
            U = cfi_quotient(odd_period_polynomial(k), k).U_poly
            e = U.degree
            for d in (e + 1, e + 3):
                rec = rv_polynomial(U, d, weight=k)
                assert rec.H.degree == d - 1
                assert rec.Q.degree == e
                assert rec.H.degree - rec.Q.degree == d - e - 1


class TestFactoredChecks:
    # U of odd degree e: GQ(e-d-x) = -GQ(x), so a check of GQ(e-d-x) = GQ(x),
    # which holds for the even e of every weight, would reject valid input
    @pytest.mark.parametrize("U", (RatPoly((1, 1)), RatPoly((2, -1, -1, 2)), RatPoly((1, 3, 3, 1))))
    def test_self_inversive_u_of_odd_degree(self, U):
        e = U.degree
        for d in range(e + 1, e + 31):
            rec = rv_polynomial(U, d)
            assert functional_equation_defect(rec.H, d, e).is_zero(), d
            coeffs = series_coefficients(U, d, 40)
            assert [rec.H(n) for n in range(41)] == coeffs, d

    def test_a_wrong_constant_fails_the_series_check(self, monkeypatch):
        # GQ + 1 keeps the symmetry GQ(e-d-x) = GQ(x) of e = 14
        real = rvtransform._zeta_interpolant
        monkeypatch.setattr(rvtransform, "_zeta_interpolant", lambda U, d: real(U, d) + 1)
        U = cfi_quotient(odd_period_polynomial(26), 26).U_poly
        with pytest.raises(RuntimeError, match="disagrees with the series coefficient"):
            rv_polynomial(U, 40, weight=26)

    def test_an_asymmetric_gq_fails_the_functional_equation(self, monkeypatch):
        real = rvtransform._zeta_interpolant
        monkeypatch.setattr(rvtransform, "_zeta_interpolant", lambda U, d: real(U, d) + RatPoly.x())
        U = cfi_quotient(odd_period_polynomial(26), 26).U_poly
        with pytest.raises(RuntimeError, match="functional equation fails"):
            rv_polynomial(U, 40, weight=26)


class TestClosedFormQ:
    # d = e+1 has an empty strip; the j = 0 and j = e terms of Q have an
    # empty first and second product
    @pytest.mark.parametrize("k", (12, 16, 18, 20, 22, 26))
    def test_matches_the_full_products(self, k):
        U = cfi_quotient(odd_period_polynomial(k), k).U_poly
        e = U.degree
        for d in (e + 1, e + 2, e + 6, 60):
            G = scaled_h_oracle(U, d)
            rec = rv_polynomial(U, d, weight=k)
            scale = math.factorial(d - 1)
            assert rec.H * scale == G
            strip = RatPoly.one()
            for t in range(1, d - e):
                strip = strip * RatPoly((t, 1))
            assert divmod(G, strip) == (rec.Q * scale, RatPoly.zero())

    def test_toy_u_with_zero_coefficients(self):
        U = RatPoly((3, 0, Fraction(1, 2), 0, 3))
        for d in (5, 6, 11):
            rec = rv_polynomial(U, d)
            assert rec.H * math.factorial(d - 1) == scaled_h_oracle(U, d)


class TestFunctionalEquationDefect:
    def test_zero_for_symmetric(self):
        assert functional_equation_defect(RatPoly((1, 1)), 2, 0).is_zero()

    def test_nonzero_for_asymmetric(self):
        defect = functional_equation_defect(RatPoly((0, 0, 1)), 2, 0)
        assert defect == RatPoly((4, 4, 2))

    def test_zero_for_pipeline_output(self):
        U = cfi_quotient(odd_period_polynomial(12), 12).U_poly
        rec = rv_polynomial(U, 6, weight=12)
        assert functional_equation_defect(rec.H, 6, 0).is_zero()

    @pytest.mark.parametrize("k", (12, 16, 18, 20, 22, 26))
    def test_zero_at_every_weight(self, k):
        U = cfi_quotient(odd_period_polynomial(k), k).U_poly
        e = k - 12
        for d in (e + 1, 60, 200):
            assert functional_equation_defect(rv_polynomial(U, d, weight=k).H, d, e).is_zero()


class TestSelfInversivePivot:
    def test_cfi_quotients_satisfy_inversion(self):
        for k in (12, 16, 18, 20, 22, 26):
            U = cfi_quotient(odd_period_polynomial(k), k).U_poly
            assert U.reversed_coeffs() == U


class TestIntroToys:
    def test_k0(self):
        sp = zeta_projective_space(0)
        assert sp.poly == RatPoly.x() and sp.log_scale == 1

    def test_k1(self):
        sp = zeta_projective_space(1)
        assert sp.poly == RatPoly((0, -1, 1)) and sp.log_scale == 2

    def test_k5_roots(self):
        sp = zeta_projective_space(5)
        for j in range(6):
            assert sp.poly(Fraction(j)) == 0
        assert sp.poly.degree == 6

    @pytest.mark.parametrize("lo, hi", ((1, 0), (3, 3), (-5, 0), (-4, 7), (1, 40), (786, 799)))
    def test_linear_product_matches_the_factor_products(self, lo, hi):
        expected = RatPoly.one()
        for t in range(lo, hi + 1):
            expected = expected * RatPoly((t, 1))
        assert rvtransform._linear_product(lo, hi) == expected

    def test_gamma_c_values(self):
        with mp.workprec(80):
            assert abs(gamma_c(1) - 1 / (2 * mp.pi)) < mpf("1e-12")
            assert abs(gamma_c(2) - 1 / (2 * mp.pi) ** 2) < mpf("1e-12")
            assert abs(gamma_c(mpf(1) / 2) - 1 / mp.sqrt(2)) < mpf("1e-12")

    def test_gamma_c_domain(self):
        with pytest.raises(ValueError):
            gamma_c(0)
