import math
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from zetapoly import zerocert
from zetapoly.exactcore import RatPoly
from zetapoly.periods import cfi_quotient, odd_period_polynomial
from zetapoly.rvtransform import rv_polynomial
from zetapoly.zerocert import (
    Certificate,
    SymmetryError,
    critical_line_certify,
    critical_line_roots,
    unit_circle_certify,
)


def P(*coeffs):
    return RatPoly(coeffs)


class TestUnitCircleCertify:
    def test_pair_of_imaginary_roots(self):
        cert = unit_circle_certify(P(1, 0, 1))
        assert cert.passed and cert.counted_roots == 1

    def test_reciprocal_pair_off_circle(self):
        cert = unit_circle_certify(P(2, -5, 2))
        assert not cert.passed

    def test_weight16_quotient(self):
        U = cfi_quotient(odd_period_polynomial(16), 16).U_poly
        cert = unit_circle_certify(U)
        assert cert.passed and cert.counted_roots == 2 and cert.expected_roots == 2

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            unit_circle_certify(P(1, 1))

    def test_non_self_inversive_rejected(self):
        with pytest.raises(ValueError):
            unit_circle_certify(P(1, 2, 3))

    def test_real_circle_point_fails(self):
        # (z-1)^2 is self-inversive with a real root on the circle
        cert = unit_circle_certify(P(1, -2, 1))
        assert not cert.passed

    def test_repeated_root_of_v_passes(self):
        # (z^2 + 1)^2 = z^2 V(z + 1/z) with V = t^2: both roots on the circle,
        # counted by multiplicity.  A squarefree-V requirement once failed it.
        cert = unit_circle_certify(P(1, 0, 2, 0, 1))
        assert cert.passed and cert.counted_roots == 2 and cert.expected_roots == 2

    @pytest.mark.parametrize(
        "U, half",
        (
            (P(1, 0, 1) ** 3, 3),
            (P(1, 1, 1) ** 2 * P(1, 0, 1), 3),
            (P(1, 0, 1, 0, 1) ** 2, 4),
        ),
        ids=("(z2+1)^3", "(z2+z+1)^2(z2+1)", "(z4+z2+1)^2"),
    )
    def test_repeated_roots_on_the_circle_pass(self, U, half):
        cert = unit_circle_certify(U)
        assert cert.passed and cert.counted_roots == cert.expected_roots == half

    @pytest.mark.parametrize(
        "U",
        (
            P(2, -5, 2) ** 2,  # a double reciprocal pair 2, 1/2 off the circle
            P(-1, 1) ** 2 * P(1, 0, 1),  # U(1) = 0: A(0) = 0, which the count must not take
            P(1, 1) ** 2 * P(1, 0, 1),  # U(-1) = 0: deg A < e/2
        ),
        ids=("(2z2-5z+2)^2", "(z-1)^2(z2+1)", "(z+1)^2(z2+1)"),
    )
    def test_repeated_roots_off_the_circle_fail(self, U):
        cert = unit_circle_certify(U)
        assert not cert.passed and cert.counted_roots < cert.expected_roots == 2

    def test_keeps_the_layers_it_counted(self):
        # (z^2 + 1)^2 (z^2 + z + 1): A = 4 (v + 1)^2 (v + 3), layers 4 (v + 1)(v + 3) and v + 1
        U = P(1, 0, 1) ** 2 * P(1, 1, 1)
        cert = unit_circle_certify(U)
        assert cert.passed and cert.counted_roots == 3
        assert cert.layers == (P(12, 16, 4), P(1, 1))
        assert "layers" not in cert.to_json_dict() and "layers" not in repr(cert)
        bare = Certificate("unit_circle", True, 3, 3, "V(t), deg 3", (), ())
        assert cert == bare and hash(cert) == hash(bare) and repr(cert) == repr(bare)

    @pytest.mark.parametrize("k", (12, 16, 18, 20, 22, 26))
    def test_all_weights(self, k):
        U = cfi_quotient(odd_period_polynomial(k), k).U_poly
        cert = unit_circle_certify(U)
        assert cert.passed
        assert cert.counted_roots == (k - 12) // 2


class TestCriticalLineCertify:
    def test_imaginary_pair_passes(self):
        cert = critical_line_certify(P(1, 0, 1), Fraction(0))
        assert cert.passed and cert.counted_roots == 2

    def test_real_pair_fails(self):
        cert = critical_line_certify(P(-1, 0, 1), Fraction(0))
        assert not cert.passed

    def test_odd_symmetry(self):
        # x(x^2+4) has all roots on Re x = 0, but it is odd: only an even Q is certified
        with pytest.raises(SymmetryError, match=re.escape("Q(2c - x) != Q(x) at c = 0")):
            critical_line_certify(P(0, 4, 0, 1), Fraction(0))

    def test_symmetry_precondition(self):
        with pytest.raises(SymmetryError):
            critical_line_certify(P(1, 1), Fraction(0))

    @pytest.mark.parametrize("q,c", (((1, 1), 1), ((1, 0, 1), -1), ((0, 1, 1), -1)))
    def test_symmetry_error_names_the_condition(self, q, c):
        # x + 1, x^2 + 1 and x^2 + x are not even about c
        with pytest.raises(SymmetryError, match=re.escape(f"Q(2c - x) != Q(x) at c = {c}")):
            critical_line_certify(P(*q), Fraction(c))

    @pytest.mark.parametrize("c", (0.0, 0.1, 0j, "1/2"))
    def test_inexact_c_raises(self, c):
        # Fraction(0.1) is the double nearest 1/10, so a float c is refused
        with pytest.raises(TypeError, match=re.escape(f"inexact real part c = {c!r} of the line")):
            critical_line_certify(P(1, 0, 1), c)

    def test_weight16_d5(self):
        U = cfi_quotient(odd_period_polynomial(16), 16).U_poly
        rec = rv_polynomial(U, 5, weight=16)
        cert = critical_line_certify(rec.Q, rec.critical_line)
        assert cert.passed and cert.counted_roots == 4

    def test_constant_q_trivially_certified(self):
        cert = critical_line_certify(P(4), Fraction(-3, 2))
        assert cert.passed and cert.expected_roots == 0
        assert cert.witness == "A constant, trivially certified" and cert.layers == ()

    def test_constant_a_odd_sign(self):
        # Q = 2(x - c) = 2u is odd about c: refused, as every odd Q is
        with pytest.raises(SymmetryError, match=re.escape("Q(2c - x) != Q(x) at c = -1/2")):
            critical_line_certify(P(1, 2), Fraction(-1, 2))

    def test_keeps_the_layers_it_counted(self):
        # A = (v + 1)^2 (v + 4): layers v^2 + 5v + 4 and v + 1
        Q = line_product(Fraction(1, 3), (1, 4), (2, 1))
        cert = critical_line_certify(Q, Fraction(1, 3))
        assert cert.passed and cert.counted_roots == 6
        assert cert.layers == (P(4, 5, 1), P(1, 1))
        assert "layers" not in cert.to_json_dict()

    def test_composes_once(self, monkeypatch):
        # the Taylor shift to R is the only composition; the guard checks R
        calls = []
        compose = RatPoly.compose

        def counting(self, other):
            calls.append(other)
            return compose(self, other)

        monkeypatch.setattr(RatPoly, "compose", counting)
        U = cfi_quotient(odd_period_polynomial(20), 20).U_poly
        rec = rv_polynomial(U, 11, weight=20)
        calls.clear()
        assert critical_line_certify(rec.Q, rec.critical_line).passed
        assert len(calls) == 1

    def test_peels_each_layer_with_one_division(self, monkeypatch):
        # A = (v + 1)^3 (v + 2)^2 (v + 3): layer j holds the roots of
        # multiplicity >= j, from one gcd and one exact division per layer
        A = P(1, 1) ** 3 * P(2, 1) ** 2 * P(3, 1)
        expected = [P(6, 11, 6, 1), P(2, 3, 1), P(1, 1)]
        divisions = []
        floordiv = RatPoly.__floordiv__

        def counting(self, other):
            divisions.append(other)
            return floordiv(self, other)

        monkeypatch.setattr(RatPoly, "__floordiv__", counting)
        R = A.compose(P(0, 0, 1))  # R(u) = A(u^2)
        A_out, layers, _ = zerocert._parity_layers(R, "even")
        assert A_out == A and list(layers) == expected
        assert len(divisions) == len(layers)


def to_mpc(root):
    """An exact (re, im) pair of critical_line_roots as an mpc at the current precision."""
    return mpc(*(mpf(x.numerator) / x.denominator for x in root))


def assert_same_roots(roots, oracle, tol):
    """roots and oracle are equal as multisets, each root within tol."""
    assert len(roots) == len(oracle)
    left = list(oracle)
    for z in roots:
        nearest = min(left, key=lambda w: abs(z - w))
        assert abs(z - nearest) < tol, (z, nearest)
        left.remove(nearest)


def polyroots(Q):
    """mpmath's roots of the RatPoly Q at the current precision, the oracle of
    the certificates' cross-checks."""
    coeffs = [mpf(q.numerator) / q.denominator for q in reversed(Q.coeffs)]
    return mpmath.polyroots(coeffs, maxsteps=200, extraprec=256)


def line_product(c, ts, multiplicities=None):
    """Q = prod ((x - c)^2 + t)^m over ts, with all roots on Re x = c."""
    shift = P(-c, 1)
    Q = RatPoly.one()
    for t, m in zip(ts, multiplicities or [1] * len(ts)):
        Q = Q * (shift * shift + P(t)) ** m
    return Q


def line_certificate(A, c):
    """The critical-line certificate of Q = A((x - c)^2), whose A is A."""
    return critical_line_certify(A.compose(P(c * c, -2 * c, 1)), c)


def assert_matches_polyroots(factors, roots, bits):
    """roots are those of the product of factors, each within 2^-bits max(1, |y|)
    of mpmath polyroots at twice the precision, run on each (squarefree) factor."""
    with mp.workprec(2 * bits):
        oracle = []
        for Q in factors:
            coeffs = [mpf(q.numerator) / q.denominator for q in reversed(Q.coeffs)]
            oracle += mpmath.polyroots(coeffs, maxsteps=200, extraprec=2 * bits)
        assert len(roots) == len(oracle) == sum(Q.degree for Q in factors)
        for z, w in zip(map(to_mpc, roots), sorted(oracle, key=lambda w: w.imag)):
            assert abs(z - w) <= mpf(2) ** -bits * max(1, abs(w.imag)), (z, w)


class TestCriticalLineRoots:
    @pytest.mark.parametrize(
        "A, cause",
        (
            (P(-2, 1, 1), "1 of the deg A = 2 roots of A are in (-oo, 0]"),  # (v - 1)(v + 2)
            (P(1, 1, 1), "0 of the deg A = 2 roots of A are in (-oo, 0]"),  # a complex pair
            # (v + 1)((v + 3/2)^2 + 1/4): Newton once took the pair's double seeds to -1
            (P(5, 11, 8, 2), "1 of the deg A = 3 roots of A are in (-oo, 0]"),
        ),
        ids=("positive-root", "complex-pair", "pair-by-root"),
    )
    def test_sign_test_refuses_a_root_off_the_line(self, A, cause):
        c = Fraction(-1, 2)
        cert = line_certificate(A, c)
        assert not cert.passed
        with pytest.raises(RuntimeError, match=re.escape("sign test fails: " + cause)):
            critical_line_roots(cert, c, 128)

    @pytest.mark.parametrize("bits", (128, 1024))
    @pytest.mark.parametrize(
        "factors",
        (
            (P(77, 1) * P(77 + Fraction(1, 2**20), 1) * P(3, 1) * P(1000, 1),),
            (P(Fraction(1, 3), 1) * P(Fraction(1, 3) + Fraction(1, 2**60), 1) * P(5, 1),),
            (P(2, 1) * P(5, 1), P(2, 1)),  # A = (v + 2)^2 (v + 5), in two layers
            (P(1, 1) * P(2, 1) * P(3, 1),),  # -2 is the midpoint of the first split of (-4, 0)
        ),
        ids=("pair-2^-20-apart", "pair-2^-60-apart", "double-root", "root-on-a-split-point"),
    )
    def test_inputs_built_to_break_double_seeding(self, factors, bits):
        # complex doubles once seeded each close pair at one point, and Newton
        # took both seeds to one root: "boxes ... overlap" on a certified A
        c = Fraction(-3, 2)
        A = math.prod(factors, start=RatPoly.one())
        cert = line_certificate(A, c)
        assert cert.passed
        roots = critical_line_roots(cert, c, bits)
        assert_matches_polyroots([f.compose(P(c * c, -2 * c, 1)) for f in factors], roots, bits)

    def test_root_on_a_split_point_is_exact(self):
        cert = line_certificate(P(1, 1) * P(2, 1) * P(3, 1), Fraction(0))
        assert cert.intervals == (((-4, -2), (-2, -2), (-2, 0)),)
        roots = [complex(*z) for z in critical_line_roots(cert, 0, 128)]
        assert roots[3:] == [1j, math.sqrt(2) * 1j, math.sqrt(3) * 1j]

    def test_value_and_slope_in_one_pass(self):
        # 2^(s n) a(V / 2^s) and 2^(s (n-1)) a'(V / 2^s), n = deg a, term by term
        rng = random.Random(2402)
        for _ in range(300):
            a = [rng.randint(-2**70, 2**70) for _ in range(rng.randint(1, 12))]
            n = len(a) - 1
            V, s = rng.randint(-2**200, 2**200), rng.randint(0, 260)
            assert zerocert._scaled_with_slope(a, V, s) == (
                sum(c * V**i << (s * (n - i)) for i, c in enumerate(a)),
                sum(i * c * V ** (i - 1) << (s * (n - i)) for i, c in enumerate(a) if i),
            )

    def test_isolates_only_in_the_certificate(self, monkeypatch):
        cert = line_certificate(P(1, 1) * P(2, 1) * P(3, 1), Fraction(0))
        monkeypatch.setattr(zerocert, "_isolate", lambda S: pytest.fail("isolated again"))
        assert len(critical_line_roots(cert, 0, 128)) == 6

    def test_repeated_roots_keep_their_multiplicity(self):
        c = Fraction(-3, 2)
        Q = line_product(c, (1, 4), (2, 1))  # ((x-c)^2 + 1)^2 ((x-c)^2 + 4)
        cert = critical_line_certify(Q, c)
        assert cert.passed
        roots = critical_line_roots(cert, c, 128)
        assert [complex(*z) for z in roots] == [-1.5 + y * 1j for y in (-2, -1, -1, 1, 1, 2)]

    def test_roots_at_c_and_odd_sign(self):
        # x^2 (x^2 + 4): A = v (v + 4) has the root 0, which is c twice;
        # x^3 (x^2 + 4) is odd about c and has no certificate
        cert = critical_line_certify(P(0, 0, 4, 0, 1), Fraction(0))
        assert cert.passed and cert.counted_roots == 4
        roots = critical_line_roots(cert, 0, 128)
        assert [complex(*z) for z in roots] == [-2j, 0, 0, 2j]
        with pytest.raises(SymmetryError):
            critical_line_certify(P(0, 0, 0, 4, 0, 1), Fraction(0))

    @pytest.mark.parametrize("c", (0.0, 0.1, "0"))
    def test_inexact_c_raises(self, c):
        cert = critical_line_certify(P(4, 0, 1), Fraction(0))
        with pytest.raises(TypeError, match=re.escape(f"inexact real part c = {c!r} of the line")):
            critical_line_roots(cert, c, 128)

    def test_out_of_double_range_seeds_at_working_precision(self):
        # A = (v + 10^400)(v + 1) overflows complex doubles, and the integer
        # isolation needs no seeds
        A = P(10**400, 10**400 + 1, 1)
        with mp.workprec(192):
            big = mpf(10) ** 200
            oracle = [mpc(0, -big), mpc(0, -1), mpc(0, 1), mpc(0, big)]
            roots = [to_mpc(z) for z in critical_line_roots(line_certificate(A, 0), 0, 128)]
            for z, w in zip(roots, oracle):
                assert abs(z - w) < abs(w) * mpf(2) ** -100

    @pytest.mark.parametrize("bits", (512, 1024))
    def test_working_precision_follows_prec_bits(self, bits):
        # every root within 2^-bits max(1, |y|) of polyroots at twice the precision
        for k in (16, 18, 20, 22, 26):
            rec = rv_polynomial(cfi_quotient(odd_period_polynomial(k), k).U_poly, k - 9, weight=k)
            cert = critical_line_certify(rec.Q, rec.critical_line)
            assert_matches_polyroots([rec.Q], critical_line_roots(cert, rec.critical_line, bits), bits)

    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=-6, max_value=6, max_denominator=5),
        st.lists(
            st.fractions(min_value=0, max_value=50, max_denominator=7).filter(lambda t: t > 0),
            min_size=1, max_size=5, unique=True,
        ),
    )
    def test_matches_polyroots(self, c, ts):
        Q = line_product(c, ts)
        cert = critical_line_certify(Q, c)
        with mp.workprec(256):
            roots = [to_mpc(z) for z in critical_line_roots(cert, c, 128)]
            oracle = polyroots(Q)
            scale = max(1, max(abs(z) for z in oracle))
            assert_same_roots(roots, oracle, scale * mpf(2) ** -100)
        assert [z.imag for z in roots] == sorted(z.imag for z in roots)


class TestCertificateNumericAgreement:
    @pytest.mark.parametrize("k", (16, 18, 20, 22, 26))
    def test_unit_circle(self, k):
        U = cfi_quotient(odd_period_polynomial(k), k).U_poly
        assert unit_circle_certify(U).passed
        with mp.workprec(200):
            for z in polyroots(U):
                assert abs(abs(z) - 1) < mpf("1e-8")

    @pytest.mark.parametrize("k,d", ((16, 5), (18, 9), (20, 11)))
    def test_critical_line(self, k, d):
        U = cfi_quotient(odd_period_polynomial(k), k).U_poly
        rec = rv_polynomial(U, d, weight=k)
        cert = critical_line_certify(rec.Q, rec.critical_line)
        assert cert.passed
        c = float(rec.critical_line)
        with mp.workprec(200):
            for z in polyroots(rec.Q):
                assert abs(z.real - c) < mpf("1e-8")
