import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
import mpmath
from mpmath import ldexp, mp, mpf, mpc
from mpmath.libmp import from_man_exp, prec_to_dps, to_str

from zetapoly import ONE_DIM_WEIGHTS, UnsupportedWeightError, lvalues, modforms
from zetapoly.modforms import (
    PrecisionError,
    QExpansion,
    cuspform_basis,
    delta_qexp,
    eichler_integral_numeric,
    eigenform,
    eisenstein_qexp,
    hecke_Tm,
    lambda_numeric,
    period_polynomial_numeric,
    rref,
)
from zetapoly.periods import odd_period_polynomial


class TestEisenstein:
    def test_e4_leading_coefficients(self):
        e4 = eisenstein_qexp(4, 8)
        assert e4.coeffs[:3] == (1, 240, 2160)

    def test_e6_leading_coefficients(self):
        e6 = eisenstein_qexp(6, 8)
        assert e6.coeffs[:3] == (1, -504, -16632)

    def test_constant_term(self):
        assert eisenstein_qexp(4, 4).coeffs[0] == 1
        assert eisenstein_qexp(6, 4).coeffs[0] == 1

    def test_unsupported_weight(self):
        with pytest.raises(UnsupportedWeightError):
            eisenstein_qexp(8, 8)


class TestDelta:
    def test_first_coefficients(self):
        d = delta_qexp(8)
        assert d.coeffs[0] == 0
        assert d.coeffs[1] == 1
        assert d.coeffs[2] == -24
        assert d.coeffs[3] == 252


class TestArithmetic:
    @pytest.mark.parametrize("other", [2.5, 1, "x"])
    def test_unsupported_operands_raise_type_error(self, other):
        f = delta_qexp(8)
        for op in (lambda: f + other, lambda: other + f, lambda: f - other, lambda: other - f):
            with pytest.raises(TypeError):
                op()
        if not isinstance(other, int):
            for op in (lambda: f * other, lambda: other * f):
                with pytest.raises(TypeError):
                    op()

    def test_supported_operands(self):
        f = delta_qexp(8)
        assert (f * 2).coeffs == (2 * f).coeffs == tuple(2 * c for c in f.coeffs)
        assert (f * Fraction(1, 2) + f * Fraction(1, 2)) == f
        assert (f - f).coeffs == (0,) * 9


class TestBasis:
    def test_weight_12(self):
        basis = cuspform_basis(12, 12)
        assert len(basis) == 1
        assert basis[0].coeffs == delta_qexp(12).coeffs

    def test_weight_16(self):
        basis = cuspform_basis(16, 12)
        assert len(basis) == 1
        assert basis[0].coeffs[1] == 1

    def test_weight_10_empty(self):
        assert cuspform_basis(10, 12) == []

    def test_weight_24_echelonized(self):
        basis = cuspform_basis(24, 16)
        assert len(basis) == 2
        assert basis[0].coeffs[1] == 1 and basis[0].coeffs[2] == 0
        assert basis[1].coeffs[1] == 0 and basis[1].coeffs[2] == 1

    @pytest.mark.parametrize("k, prec", ((36, 2), (48, 3)))
    def test_precision_below_the_dimension_raises(self, k, prec):
        # the pivots q^1..q^dim must be in the expansions: invalid input, not an internal fault
        with pytest.raises(PrecisionError, match=f"too short for the {prec + 1} forms of S_{k}"):
            cuspform_basis(k, prec)

    def test_precision_at_the_dimension_suffices(self):
        basis = cuspform_basis(36, 3)
        assert len(basis) == 3
        assert [[f.coeffs[n] for n in (1, 2, 3)] for f in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


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


class TestHecke:
    def test_t2_delta_is_eigen(self):
        d = delta_qexp(32)
        t2 = hecke_Tm(d, 2)
        assert t2.coeffs[1] == -24
        for n in range(t2.prec + 1):
            assert t2.coeffs[n] == -24 * d.coeffs[n]

    def test_t1_identity(self):
        d = delta_qexp(16)
        assert hecke_Tm(d, 1).coeffs == d.coeffs

    def test_t2_weight16(self):
        f = eigenform(16, 32)
        assert hecke_Tm(f, 2).coeffs[1] == 216

    def test_commutativity_on_delta(self):
        d = delta_qexp(64)
        a = hecke_Tm(hecke_Tm(d, 2), 3)
        b = hecke_Tm(hecke_Tm(d, 3), 2)
        n = min(a.prec, b.prec)
        assert a.coeffs[: n + 1] == b.coeffs[: n + 1]

    def test_insufficient_precision(self):
        with pytest.raises(PrecisionError):
            hecke_Tm(delta_qexp(4), 3)


class TestEigenform:
    def test_weight_12_is_delta(self):
        assert eigenform(12, 16).coeffs == delta_qexp(16).coeffs

    def test_weight_16_a2(self):
        assert eigenform(16, 16).coeffs[2] == 216

    def test_weight_28_unsupported(self):
        with pytest.raises(UnsupportedWeightError):
            eigenform(28)

    @pytest.mark.parametrize("k", ONE_DIM_WEIGHTS)
    def test_eigen_for_small_hecke(self, k):
        f = eigenform(k, 60)
        for m in (2, 3, 4, 5):
            tf = hecke_Tm(f, m)
            for n in range(tf.prec + 1):
                assert tf.coeffs[n] == f.coeffs[m] * f.coeffs[n]


class TestEigenformCoeffs:
    """lvalues.eigenform_coeffs: Delta E4^a E6^b in ints, with its checks."""

    @pytest.mark.parametrize("k", ONE_DIM_WEIGHTS)
    @pytest.mark.parametrize("bits", [None, 4096], ids=["prec64", "prec_for_4096_bits"])
    def test_matches_the_cusp_form_basis(self, k, bits):
        # oracle: the echelonized basis of S_k, built from the Fraction
        # q-expansion of Delta, RatPoly products and rref
        prec = 64 if bits is None else lvalues.qexp_prec_for(k, bits)
        coeffs = lvalues.eigenform_coeffs(k, prec)
        assert len(coeffs) == prec + 1 and all(type(c) is int for c in coeffs)
        assert coeffs == list(cuspform_basis(k, prec)[0].coeffs)

    @pytest.mark.parametrize("k, factor", [(4, 240), (6, -504)])
    def test_eisenstein_divisor_sums(self, k, factor):
        # the sieve against divisor sums by trial division
        sigma = [sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0) for n in range(1, 301)]
        assert lvalues.eisenstein_coeffs(k, 300) == [1] + [factor * s for s in sigma]

    @staticmethod
    def patch_eisenstein(monkeypatch, change):
        """Make eigenform_coeffs build from change(k, E_k) in place of E_k."""
        real = lvalues.eisenstein_coeffs
        monkeypatch.setattr(lvalues, "eisenstein_coeffs", lambda k, prec: change(k, real(k, prec)))

    @pytest.mark.parametrize("k", ONE_DIM_WEIGHTS)
    def test_e6_sign_flip_fails_the_hecke_check(self, monkeypatch, k):
        # E6 enters Delta squared, so -E6 changes f only where b = 1, to -f,
        # and T_p(-f) = -a_p f is not (-a_p)(-f)
        expected = lvalues.eigenform_coeffs(k, 64)
        self.patch_eisenstein(monkeypatch, lambda j, e: [-c for c in e] if j == 6 else e)
        if (k - 12) % 4 == 0:
            assert lvalues.eigenform_coeffs(k, 64) == expected
        else:
            with pytest.raises(RuntimeError, match=f"T_2 eigenvalue check failed for weight {k}"):
                lvalues.eigenform_coeffs(k, 64)

    @pytest.mark.parametrize("k", ONE_DIM_WEIGHTS)
    @pytest.mark.parametrize("n", [2, 7, 21])
    def test_perturbed_coefficient_fails_the_hecke_check(self, monkeypatch, k, n):
        # E4 + 1728 q^n keeps E4^3 - E6^2 divisible by 1728, so only the
        # eigenvalue checks stand between it and a wrong a_n
        self.patch_eisenstein(monkeypatch, lambda j, e: e[:n] + [e[n] + 1728] + e[n + 1:] if j == 4 else e)
        with pytest.raises(RuntimeError, match=f"T_[23] eigenvalue check failed for weight {k}"):
            lvalues.eigenform_coeffs(k, 64)

    @pytest.mark.parametrize("k", ONE_DIM_WEIGHTS)
    @pytest.mark.parametrize("n", [37, 61])
    def test_perturbed_top_coefficient_fails_the_t2_check(self, monkeypatch, k, n):
        # E4 + 1728 q^n changes a_n and the coefficients above it, so at
        # prec = n only a_n, with prec/2 < n and gcd(n, 6) = 1: to q^prec no
        # check reads it, so the series runs to q^(2 prec), where T_2 reads a_2n
        # against a_2 a_n
        self.patch_eisenstein(monkeypatch, lambda j, e: e[:n] + [e[n] + 1728] + e[n + 1:] if j == 4 else e)
        with pytest.raises(RuntimeError, match=f"T_2 eigenvalue check failed for weight {k}"):
            lvalues.eigenform_coeffs(k, n)

    @pytest.mark.parametrize("k", ONE_DIM_WEIGHTS)
    def test_e4_constant_term_fails_the_divisibility_check(self, monkeypatch, k):
        # with E4 = 2 + ..., the constant term of E4^3 - E6^2 is 7
        self.patch_eisenstein(monkeypatch, lambda j, e: [2] + e[1:] if j == 4 else e)
        with pytest.raises(RuntimeError, match="not divisible by 1728"):
            lvalues.eigenform_coeffs(k, 64)

    @pytest.mark.parametrize("k", [10, 14, 24, 28])
    def test_weight_without_one_eigenform_raises(self, k):
        with pytest.raises(UnsupportedWeightError, match="requires dim S_k = 1"):
            lvalues.eigenform_coeffs(k, 64)

    def test_expansion_too_short_for_t3_raises(self):
        assert lvalues.eigenform_coeffs(12, 6)[:4] == [0, 1, -24, 252]
        with pytest.raises(PrecisionError):
            lvalues.eigenform_coeffs(12, 5)


class TestLambda:
    def test_functional_equation_delta(self):
        f = eigenform(12)
        lam = lambda_numeric(f)
        l5 = lam[4]
        l7 = lam[6]
        assert abs(l5 - l7) < Fraction(1, 2**120)

    def test_positivity_and_quadrature_oracle(self):
        f = eigenform(12)
        val = lambda_numeric(f)[5]
        assert val > 0
        # independent oracle: numeric quadrature of the integral folded onto
        # [1, inf) by the modular transformation (s = 6 is self-dual)
        with mp.workprec(80):

            def integrand(y):
                return 2 * sum(
                    mpf(int(f.coeffs[n])) * mp.e ** (-2 * mp.pi * n * y)
                    for n in range(1, 40)
                ) * y**5

            oracle = mp.quad(integrand, [1, 3, 12])
            val = mpf(val.numerator) / val.denominator
            assert abs(val - oracle) / val < mpf("1e-9")

    def test_edge_points_equal(self):
        f = eigenform(12)
        lam = lambda_numeric(f)
        l1 = lam[0]
        l11 = lam[10]
        assert abs(l1 - l11) < Fraction(1, 2**120)

    @pytest.mark.parametrize("k", ONE_DIM_WEIGHTS)
    def test_functional_equation_all_weights(self, k):
        f = eigenform(k)
        sign = (-1) ** (k // 2)
        lam = lambda_numeric(f)
        for s in range(1, k):
            ls = lam[s - 1]
            lks = lam[k - s - 1]
            assert abs(ls - sign * lks) < Fraction(1, 2**120)


class TestLambdaMomentForm:
    @pytest.mark.parametrize("bits", [128, 512])
    @pytest.mark.parametrize("k", [12, 26])
    def test_matches_incomplete_gamma_series(self, k, bits):
        # independent oracle: the direct series over n with mpmath's own
        # upper incomplete gamma, sum_n a_n [G(s,x)/x^s + eps G(k-s,x)/x^(k-s)]
        f = eigenform(k, lvalues.qexp_prec_for(k, bits))
        lam = lambda_numeric(f, bits)
        assert len(lam) == k - 1
        sign = (-1) ** (k // 2)
        with mp.workprec(bits + 48):
            xs = [2 * mp.pi * n for n in range(1, f.prec + 1)]
            for s in range(1, k):
                direct = mp.fsum(
                    int(f.coeffs[n]) * (
                        mp.gammainc(s, x) / x**s + sign * mp.gammainc(k - s, x) / x ** (k - s)
                    )
                    for n, x in enumerate(xs, start=1)
                )
                value = mpf(lam[s - 1].numerator) / lam[s - 1].denominator
                assert abs(value - direct) <= abs(direct) * mpf(2) ** -(bits - 8)

    def test_short_expansion_raises(self):
        with pytest.raises(PrecisionError):
            lambda_numeric(eigenform(26, 64), 512)


class TestFixedPointConstants:
    # every W to 256, then a stride to 5000; mpmath at W + 64 bits is the oracle
    WIDTHS = list(range(1, 257)) + list(range(257, 5001, 17)) + [5000]

    def test_pi_within_two_units(self):
        for W in self.WIDTHS:
            with mp.workprec(W + 64):
                assert abs(mpf(lvalues._pi_fixed(W)) - ldexp(mp.pi, W)) < 2, W

    def test_exp_neg_twopi_within_one_unit(self):
        for W in self.WIDTHS:
            with mp.workprec(W + 64):
                exact = ldexp(mp.exp(-2 * mp.pi), W)
                assert abs(mpf(lvalues._exp_neg_twopi(W)) - exact) < mpf("1.01"), W


def mpmath_str(n, W, prec_bits):
    return to_str(from_man_exp(n, -W), prec_to_dps(prec_bits))


# (n, W, prec_bits), each built to break a naive port of to_str; at 53 bits
# dps = 15 and the fixed window is -5 < exponent < 15, at 128 bits dps = 38
# and it is -12 < exponent < 38
FORMAT_EDGES = {
    "zero": (0, 10, 128),
    "nines carry to 1": (2**80 - 1, 80, 53),
    "nines carry out of the window": ((10**15 << 10) - 1, 10, 53),
    "nines carry into the window": ((1 << 200) // 10**4, 200, 53),
    "half rounds up": (1, 3, 10),
    "low end inside": ((3 << 200) // (2 * 10**4), 200, 53),
    "low end outside": ((3 << 200) // (2 * 10**5), 200, 53),
    "high end inside": (15 * 10**13, 0, 53),
    "high end outside": (15 * 10**14, 0, 53),
    "low end inside, dps 38": ((3 << 200) // (2 * 10**11), 200, 128),
    "low end outside, dps 38": ((3 << 200) // (2 * 10**12), 200, 128),
    "high end inside, dps 38": (15 * 10**36, 0, 128),
    "high end outside, dps 38": (15 * 10**37, 0, 128),
    "negative": (-((3 << 200) // (2 * 10**5)), 200, 53),
    "negative carry": (1 - 2**80, 80, 53),
    "negative fixed": (-(15 * 10**13), 0, 53),
    "W = 0": (3, 0, 53),
    "W < 0": (7, -100, 53),
    "W < 0, past fixprec": (2**200 + 1, -100, 53),
    "one bit": (5, 3, 1),
    "over 4300 digits": (3**9000, 14000, 15000),
    # at 15000 bits dps = 4514, past CPython's 4300-digit int <-> str limit
    "over 4300 digits, rounds up": (((10**4514 + 7) << 16000) // 10**4514, 16000, 15000),
    "over 4300 digits, nines carry": (((13 * 10**4514 - 30) << 16000) // 10**4515, 16000, 15000),
    "over 4300 digits, nines carry to 10": ((10 << 16000) - 1, 16000, 15000),
}


class TestMpfStr:
    @pytest.mark.parametrize("n, W, bits", FORMAT_EDGES.values(), ids=list(FORMAT_EDGES))
    def test_edge_cases_match_mpmath(self, n, W, bits):
        assert lvalues._mpf_str(n, W, bits) == mpmath_str(n, W, bits)

    @settings(max_examples=1000, deadline=None)
    @given(
        st.integers(-(2**400), 2**400), st.integers(-300, 700), st.integers(1, 1200)
    )
    def test_matches_mpmath(self, n, W, bits):
        assert lvalues._mpf_str(n, W, bits) == mpmath_str(n, W, bits)
        # n / 2^W need not be in lowest terms
        assert lvalues._mpf_str(n << 7, W + 7, bits) == mpmath_str(n, W, bits)

    def test_rejects_what_it_does_not_port(self):
        # mpmath divides by a rounded power of ten past |log2 x| = 3500
        with pytest.raises(ValueError, match="out of range"):
            lvalues._mpf_str(1, 4000, 53)
        with pytest.raises(ValueError, match="out of range"):
            lvalues._mpf_str(-1, -4000, 53)


class TestProvenTruncation:
    GRID = [(12, 128), (12, 512), (26, 128), (26, 512)]

    @pytest.mark.parametrize("k", ONE_DIM_WEIGHTS)
    @pytest.mark.parametrize("bits, y", [(53, 1), (128, 1), (4096, 1), (128, 0.5), (512, 3)])
    def test_least_n_meets_the_bound(self, k, bits, y):
        # the bound of step 4 of _terms_needed, in mpmath: met at N, missed at N - 1
        def bound(N):
            n = N + 1
            rho = (1 + mpf(1) / n) ** (k // 2) * mp.exp(-2 * mp.pi * y)
            gap = 2 * mp.pi * n - (k - 2)
            if rho >= 1 or gap <= 0:
                return mp.inf
            return 4 * mpf(n) ** (k // 2) * mp.exp(-2 * mp.pi * n * y) / ((1 - rho) * gap)

        N = lvalues._terms_needed(k, bits, y)
        with mp.workprec(64):
            assert bound(N) <= mpf(2) ** -(bits + 16) < bound(N - 1)

    @pytest.mark.parametrize("k", ONE_DIM_WEIGHTS)
    def test_rounding_scale(self, k):
        # the sums of step 3 of _terms_needed with |a_n| at its bound:
        # T = max_s T_s + T_(k-s) < 2^14, where
        # T_s = sum_n 2 n^(k/2) Gamma(s, x_n) / x_n^s (terms past n = 30 are below 2^-200)
        with mp.workprec(64):
            xs = [2 * mp.pi * n for n in range(1, 31)]
            T = [
                mp.fsum(2 * mpf(n) ** (k // 2) * mp.gammainc(s, x) / x**s for n, x in enumerate(xs, 1))
                for s in range(1, k)
            ]
            assert max(T[s - 1] + T[k - s - 1] for s in range(1, k)) < 2**14

    @staticmethod
    def assert_n_terms_within_bound(f, N, bits):
        # independent oracle: the direct series over all of f's terms (2N) with
        # mpmath's own upper incomplete gamma at bits + 64, plus the bits of
        # the integer a_1 that scales every term; lambda_numeric sees exactly N terms
        k = f.weight
        lam = lambda_numeric(QExpansion(k, f.coeffs[: N + 1]), bits)
        sign = (-1) ** (k // 2)
        with mp.workprec(bits + 64 + max(f.coeffs[1].bit_length() - 1, 0)):
            xs = [2 * mp.pi * n for n in range(1, f.prec + 1)]
            P = [None] + [  # P[s] = sum_n a_n Gamma(s, x_n) / x_n^s
                mp.fsum(int(f.coeffs[n]) * mp.gammainc(s, x) / x**s for n, x in enumerate(xs, 1))
                for s in range(1, k)
            ]
            for s in range(1, k):
                value = mpf(lam[s - 1].numerator) / lam[s - 1].denominator
                assert abs(value - (P[s] + sign * P[k - s])) <= mpf(2) ** -(bits + 15)

    @pytest.mark.parametrize("k, bits", GRID)
    def test_n_terms_within_bound_of_direct_sum(self, k, bits):
        N = lvalues._terms_needed(k, bits)
        self.assert_n_terms_within_bound(eigenform(k, 2 * N), N, bits)

    @pytest.mark.parametrize("scale_bits", [0, 20, 40])
    def test_scaled_cusp_forms_meet_the_bound(self, scale_bits):
        # a_1 = 2^scale_bits: the tail grows by that factor, so N and the pass
        # are sized for 128 + scale_bits bits (step 7 of _terms_needed); sized
        # for 128 bits alone, 2^40 Delta missed the bound by 28 bits
        bits = 128
        N = lvalues._terms_needed(12, bits + scale_bits)
        f = delta_qexp(2 * N) * 2**scale_bits
        self.assert_n_terms_within_bound(f, N, bits)
        with pytest.raises(PrecisionError):
            lambda_numeric(QExpansion(12, f.coeffs[:N]), bits)
        # the Eichler integral at z = i against the same longer sum
        val = eichler_integral_numeric(QExpansion(12, f.coeffs[: N + 1]), mpc(0, 1), bits)
        with mp.workprec(bits + 64 + scale_bits):
            q = mp.exp(-2 * mp.pi)
            acc = mp.fsum(int(f.coeffs[n]) * q**n / mpf(n) ** 11 for n in range(1, f.prec + 1))
            oracle = -mpf(3628800) / (2j * mp.pi) ** 11 * acc
            assert abs(val - oracle) <= mpf(2) ** -(bits + 15)

    def test_unproven_weight_raises(self):
        # dim S_24 = 2: no form there is a multiple of one eigenform
        with pytest.raises(ValueError):
            lvalues._terms_needed(24, 128)
        f = cuspform_basis(24, 80)[0]
        with pytest.raises(ValueError):
            lambda_numeric(f, 128)
        with pytest.raises(ValueError):
            eichler_integral_numeric(f, mpc(0, 1), 128)

    @pytest.mark.parametrize("k, bits", GRID)
    def test_one_term_short_raises(self, k, bits):
        N = lvalues._terms_needed(k, bits)
        f = eigenform(k, N)
        short = QExpansion(k, f.coeffs[:N])
        with pytest.raises(PrecisionError):
            lambda_numeric(short, bits)
        with pytest.raises(PrecisionError):
            eichler_integral_numeric(short, mpc(0, 1), bits)
        # N terms are enough for both
        lambda_numeric(f, bits)
        eichler_integral_numeric(f, mpc(0, 1), bits)

    def test_decay_below_double_range_raises(self):
        # Im z = 1e-400 is 0.0 as a double: no q-expansion is long enough,
        # and the search for N must stop rather than run forever
        with mp.workprec(176):
            z = mpc(0, mpf("1e-400"))
        with pytest.raises(PrecisionError):
            eichler_integral_numeric(eigenform(12), z)

    def test_qexp_prec_for_does_not_load_mpmath(self):
        code = (
            "import sys\n"
            "from zetapoly.lvalues import qexp_prec_for\n"
            "qexp_prec_for(26, 4096)\n"
            "print('mpmath' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(modforms.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestPeriodPolynomialNumeric:
    def test_odd_part_ratios_match_exact(self):
        f = eigenform(12)
        with mp.workprec(176):
            coeffs = period_polynomial_numeric(f)
            exact = odd_period_polynomial(12)
            ratios = [coeffs[j].real / int(exact[j]) for j in (1, 3, 5, 7, 9)]
            spread = max(ratios) / min(ratios) - 1
            assert abs(spread) < mpf("1e-8")

    def test_s_relation(self):
        f = eigenform(12)
        with mp.workprec(176):
            p = period_polynomial_numeric(f)
            w = 10
            scale = max(abs(c) for c in p)
            for j in range(w + 1):
                defect = p[j] + (-1) ** j * p[w - j]
                assert abs(defect) < scale * mpf(2) ** -100

    def test_roots_near_unit_circle(self):
        f = eigenform(12)
        with mp.workprec(176):
            p = period_polynomial_numeric(f)
            roots = mpmath.polyroots(p[::-1], maxsteps=200, extraprec=256)
            assert len(roots) == 10
            assert max(abs(abs(z) - 1) for z in roots) < mpf("1e-6")


class TestEichlerIntegral:
    def test_period_relation_at_2i(self):
        f = eigenform(12)
        with mp.workprec(176):
            z = mpc(0, 2)
            lhs = eichler_integral_numeric(f, z) - z**10 * eichler_integral_numeric(
                f, -1 / z
            )
            p = period_polynomial_numeric(f)
            rf = sum(c * z**j for j, c in enumerate(p))
            assert abs(lhs - rf) < mpf("1e-8")

    def test_decay_on_imaginary_axis(self):
        f = eigenform(12)
        assert abs(eichler_integral_numeric(f, mpc(0, 5))) < abs(
            eichler_integral_numeric(f, mpc(0, 1))
        )

    def test_direct_summation_oracle(self):
        f = delta_qexp(500)
        with mp.workprec(176):
            val = eichler_integral_numeric(f, mpc(0, 1))
            # independent order: explicit 500-term sum, largest n first
            q1 = mp.e ** (-2 * mp.pi)
            acc = mpc(0)
            for n in range(500, 0, -1):
                acc += mpf(int(f.coeffs[n])) * q1**n / mpf(n) ** 11
            oracle = -mpf(3628800) / (2j * mp.pi) ** 11 * acc
            assert abs(val - oracle) < abs(val) * mpf(2) ** -100

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError):
            eichler_integral_numeric(eigenform(12), mpc(0, -1))
