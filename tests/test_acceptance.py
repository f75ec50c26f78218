"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure)
and enforces its runtime budget.
"""

import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from zetapoly import habiro, modforms, periods, rvtransform, zerocert
from zetapoly.exactcore import RatPoly

WEIGHTS = (12, 16, 18, 20, 22, 26)
GOLDEN_12 = RatPoly((0, 4, 0, -25, 0, 42, 0, -25, 0, 4))


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_eichler_shimura_dimensions():
    ok = True
    for k in WEIGHTS:
        w = k - 2
        t0 = time.monotonic()
        odd = periods.relations_kernel(w, "odd")
        even = periods.relations_kernel(w, "even")
        elapsed = time.monotonic() - t0
        ok = ok and len(odd.basis) == 1 and len(even.basis) == 2 and elapsed < 1.0
    report("criterion 1: dim Y^- = 1 and dim Y^+ = 2 for all six weights, <1s each", ok)


def test_criterion_2_weight12_golden_value():
    p = periods.odd_period_polynomial(12)
    quot = periods.cfi_quotient(p, 12)
    ok = (
        p == GOLDEN_12
        and p == 4 * periods.cfi_divisor()
        and quot.U_poly == RatPoly((4,))
        and quot.e == 0
    )
    report("criterion 2: weight-12 odd period polynomial is the exact golden value", ok)


def test_criterion_3_cfi_divisibility_and_unit_circle():
    t0 = time.monotonic()
    ok = True
    for k in WEIGHTS:
        quot = periods.cfi_quotient(periods.odd_period_polynomial(k), k)
        cert = zerocert.unit_circle_certify(quot.U_poly)
        ok = (
            ok
            and quot.e == (k - 2) - 10
            and cert.passed
            and cert.counted_roots == quot.e // 2
        )
    ok = ok and (time.monotonic() - t0) < 10.0
    report("criterion 3: exact CFI quotient + unit-circle certificate, six weights, <10s", ok)


def test_criterion_4_rv_grid():
    t0 = time.monotonic()
    ok = True
    for k in WEIGHTS:
        U = periods.cfi_quotient(periods.odd_period_polynomial(k), k).U_poly
        e = U.degree
        for d in range(e + 1, e + 7):
            rec = rvtransform.rv_polynomial(U, d, weight=k)
            coeffs = rvtransform.series_coefficients(U, d, 50)
            ok = ok and all(rec.H(Fraction(n)) == coeffs[n] for n in range(51))
            ok = ok and rvtransform.functional_equation_defect(rec.H, d, e).is_zero()
            ok = ok and all(rec.H(Fraction(-j)) == 0 for j in range(1, d - e))
            cert = zerocert.critical_line_certify(rec.Q, rec.critical_line, +1)
            ok = ok and cert.passed
    ok = ok and (time.monotonic() - t0) < 60.0
    report("criterion 4: 36-cell grid — series values, functional equation, "
           "trivial zeros, critical-line certificate, <60s", ok)


def test_criterion_5_numeric_cross_validation():
    ok = True
    with mp.workprec(176):
        for k in WEIGHTS:
            f = modforms.eigenform(k)
            sign = (-1) ** (k // 2)
            lam = modforms.lambda_numeric(f, 128)
            for s in range(1, k):
                defect = abs(lam[s - 1] - sign * lam[k - s - 1])
                ok = ok and defect < Fraction(1, 2**100)
        for k in (12, 16):
            coeffs = modforms.period_polynomial_numeric(modforms.eigenform(k), 128)
            exact = periods.odd_period_polynomial(k)
            w = k - 2
            ratios = [
                coeffs[j].real / int(exact[j])
                for j in range(1, w + 1, 2)
                if exact[j] != 0
            ]
            spread = abs(max(ratios) / min(ratios) - 1)
            ok = ok and spread < mpf("1e-8")
    report("criterion 5: Lambda functional equation < 2^-100; numeric/exact odd "
           "proportionality spread < 1e-8 (weights 12, 16)", ok)


def test_criterion_6_full_period_polynomial_unimodular_roots():
    with mp.workprec(176):
        coeffs = modforms.period_polynomial_numeric(modforms.eigenform(12), 128)
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=256)
        ok = len(roots) == 10 and all(abs(abs(z) - 1) < mpf("1e-6") for z in roots)
    report("criterion 6: all 10 roots of the full numeric period polynomial of the "
           "weight-12 form within 1e-6 of the unit circle", ok)


def test_criterion_7_habiro_battery():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 13):
        r = habiro.habiro_r(n)
        q = habiro.habiro_q(n)
        qinv = habiro.habiro_qinv(n)
        ok = ok and r == q + qinv
        ok = ok and q * qinv == habiro.habiro_one(n)
    for m in range(1, 25):
        expected = habiro.CycloInt.from_poly(
            m, RatPoly.x() + RatPoly.monomial(m - 1 if m > 1 else 1)
        )
        ok = ok and habiro.eval_at_root(habiro.habiro_r(m), m) == expected
    for a in range(1, 9):
        for b in range(1, 9):
            ok = ok and habiro.psi_chebyshev(habiro.chebyshev_T(b), a) == habiro.chebyshev_T(a * b)
    elements = [RatPoly.x()] + habiro.fixed_seed_elements()
    for p in (2, 3, 5, 7, 11):
        for x in elements:
            ok = ok and habiro.frobenius_congruence_check(p, x)
    probes = [RatPoly.x(), RatPoly((1, -3, 1))]
    for m in range(1, 25):
        for p in probes:
            ok = ok and habiro.involution_invariance_check(p, m)
    for m in (3, 4):
        v = habiro.eval_at_root(habiro.habiro_q(m), m)
        ok = ok and v != v.involution()
    ok = ok and (time.monotonic() - t0) < 30.0
    report("criterion 7: Habiro battery — r = q + 1/q, inverses, root-of-unity "
           "values, Chebyshev semigroup, Frobenius congruences, involution "
           "invariance with q-witness, <30s", ok)


def test_criterion_8_intro_toys():
    ok = True
    for k in range(11):
        sp = rvtransform.zeta_projective_space(k)
        ok = ok and sp.poly.degree == k + 1 and sp.log_scale == k + 1
        ok = ok and all(sp.poly(Fraction(j)) == 0 for j in range(k + 1))
    with mp.workprec(96):
        ok = ok and abs(rvtransform.gamma_c(1) - 1 / (2 * mp.pi)) < mpf("1e-12")
        ok = ok and abs(rvtransform.gamma_c(2) - 1 / (2 * mp.pi) ** 2) < mpf("1e-12")
    report("criterion 8: projective-space toy polynomial root sets and the finite "
           "gamma factor values", ok)


def test_criterion_9_squarefree_gcd_budget():
    # ROADMAP item 2's input: A = S T^2, S seeded of degree 30 with 64-bit
    # coefficients and T of degree 3 with 8-bit ones, so deg A = 36
    sympy = pytest.importorskip("sympy")
    rng = random.Random(36)
    S = RatPoly([rng.randint(-2**64, 2**64) for _ in range(30)] + [rng.randint(1, 2**64)])
    T = RatPoly([rng.randint(-255, 255) for _ in range(3)] + [rng.randint(1, 255)])
    A = S * T * T
    t0 = time.perf_counter()
    g = A.gcd(A.derivative())
    elapsed = time.perf_counter() - t0
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(A.num[::-1]), x)
    expected = sympy.gcd(poly, poly.diff(x)).monic()
    ok = (
        A.degree == 36
        and g == RatPoly(Fraction(int(c.p), int(c.q)) for c in expected.all_coeffs()[::-1])
        and g.degree >= 3
        and elapsed < 0.05
    )
    report("criterion 9: gcd(A, A') of the degree-36 synthetic A = S T^2 matches "
           "sympy, <0.05s", ok)
