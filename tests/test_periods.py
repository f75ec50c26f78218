import random
import time
from fractions import Fraction

import pytest

from zetapoly import ONE_DIM_WEIGHTS, UnsupportedWeightError, periods
from zetapoly.exactcore import RatPoly, is_self_inversive
from zetapoly.modforms import dim_cuspforms, eigenform, rref
from zetapoly.periods import (
    CFIQuotient,
    DivisibilityError,
    _relation_image,
    cfi_divisor,
    cfi_quotient,
    odd_period_polynomial,
    relations_kernel,
    slash_action,
)

SUPPORTED = (12, 16, 18, 20, 22, 26)
GOLDEN_12 = RatPoly((0, 4, 0, -25, 0, 42, 0, -25, 0, 4))
S_GEN = (0, -1, 1, 0)  # z -> -1/z
U_GEN = (1, -1, 1, 0)  # z -> 1 - 1/z


def merel_set(n):
    """Merel's X_n: integer matrices (a, b, c, d) with ad - bc = n, a > b >= 0
    and d > c >= 0, so a, d >= 1 and a + d <= n + 1 (ad <= n + bc <= n + (a-1)(d-1))."""
    return [
        (a, b, c, d)
        for a in range(1, n + 1)
        for d in range(1, n + 2 - a)
        for b in range(a)
        for c in range(d)
        if a * d - b * c == n
    ]


class TestMoebiusGen:
    def test_determinant_check(self):
        with pytest.raises(ValueError, match="determinant 0"):
            slash_action(RatPoly.monomial(3), (1, 1, 1, 1), 4)

    def test_u_cubed_acts_trivially(self):
        w = 8
        r = RatPoly((1, 2, 0, 0, 3, 0, 0, 0, -1))
        out = r
        for _ in range(3):
            out = slash_action(out, U_GEN, w)
        assert out == r

    def test_s_squared_acts_trivially(self):
        w = 6
        r = RatPoly((5, -1, 0, 2, 0, 0, 7))
        assert slash_action(slash_action(r, S_GEN, w), S_GEN, w) == r


class TestSlashAction:
    def test_top_monomial_under_s(self):
        w = 10
        assert slash_action(RatPoly.monomial(w), S_GEN, w) == RatPoly.one()

    def test_one_under_s(self):
        w = 10
        assert slash_action(RatPoly.one(), S_GEN, w) == RatPoly.monomial(w)

    def test_classical_even_relation_element(self):
        w = 10
        r = RatPoly.monomial(w) - 1
        assert r + slash_action(r, S_GEN, w) == RatPoly.zero()

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            slash_action(RatPoly.monomial(5), S_GEN, 4)

    def test_determinant_two_scales_the_variable(self):
        # (2 0; 0 1) is z -> 2z with cz + d = 1: r|g = r(2z)
        w = 6
        r = RatPoly((5, -1, 0, Fraction(2, 3), 0, 0, 7))
        assert slash_action(r, (2, 0, 0, 1), w) == r.compose(RatPoly((0, 2)))


class TestHecke:
    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("k", ONE_DIM_WEIGHTS)
    def test_odd_period_polynomial_is_a_hecke_eigenvector(self, k, n):
        # T_n r = sum over X_n of r|_w adj(M), adj(a b; c d) = (d -b; -c a)
        # (Merel 1994), with the eigenvalue a_n of the eigenform
        w, r = k - 2, odd_period_polynomial(k)
        matrices = merel_set(n)
        assert len(matrices) == {2: 4, 3: 7}[n]
        image = RatPoly.zero()
        for a, b, c, d in matrices:
            image = image + slash_action(r, (d, -b, -c, a), w)
        assert image == eigenform(k).coeffs[n] * r


class TestRelationImage:
    @pytest.mark.parametrize("w", range(2, 41, 2))
    def test_closed_form_matches_slash_action(self, w):
        for j in range(w + 1):
            r = RatPoly.monomial(j)
            rel_s = r + slash_action(r, S_GEN, w)
            ru = slash_action(r, U_GEN, w)
            rel_u = r + ru + slash_action(ru, U_GEN, w)
            expected = [rel_s[i] for i in range(w + 1)] + [rel_u[i] for i in range(w + 1)]
            assert _relation_image(j, w) == expected


def fraction_nullspace(w, parity):
    """The kernel basis of relations_kernel by Gauss-Jordan over Q
    (modforms.rref): one vector per free column, 1 there and 0 in the other
    free columns, as polynomials."""
    exps = range(w + 1) if parity == "all" else range(parity == "odd", w + 1, 2)
    cols = [_relation_image(j, w) for j in exps]
    reduced, pivots = rref([list(row) for row in zip(*cols)])
    basis = []
    for fc in (c for c in range(len(exps)) if c not in pivots):
        coeffs = [0] * (w + 1)
        coeffs[exps[fc]] = 1
        for row, pc in zip(reduced, pivots):
            coeffs[exps[pc]] = -row[fc]
        basis.append(RatPoly(coeffs))
    return tuple(basis)


class TestKernelOracles:
    # the integer elimination against two independent oracles at every even
    # w <= 60: the Fraction nullspace, and Eichler-Shimura, by which the odd
    # kernel is S_(w+2), the even one S_(w+2) plus the Eisenstein class, and
    # the whole kernel both, for dim S_k = floor(k/12) - [k = 2 mod 12]
    @pytest.mark.parametrize("w", range(2, 61, 2))
    def test_equals_the_fraction_nullspace(self, w):
        for parity in ("odd", "even", "all"):
            assert relations_kernel(w, parity).basis == fraction_nullspace(w, parity), parity

    @pytest.mark.parametrize("w", range(2, 61, 2))
    def test_eichler_shimura_dimensions(self, w):
        k = w + 2
        dim = k // 12 - (k % 12 == 2)
        assert [len(relations_kernel(w, p).basis) for p in ("odd", "even", "all")] == [dim, dim + 1, 2 * dim + 1]

    def test_random_matrices_match_gauss_jordan_over_q(self):
        # rank-deficient integer matrices, with negative and non-unit pivots;
        # rows repeated up to sign and zero rows change nothing
        rng = random.Random(34)
        for _ in range(300):
            ncols, rank = rng.randint(1, 8), rng.randint(0, 5)
            gens = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(rank)]
            rows = [[sum(rng.randint(-3, 3) * g[c] for g in gens) for c in range(ncols)] for _ in range(rng.randint(1, 7))]
            reduced, pivots = rref(rows)
            expected = []
            for fc in (c for c in range(ncols) if c not in pivots):
                vec = [0] * ncols
                vec[fc] = 1
                for row, pc in zip(reduced, pivots):
                    vec[pc] = -row[fc]
                expected.append(vec)
            padded = rows + [[-x for x in row] for row in rows] + [[0] * ncols]
            for given in (rows, rng.sample(padded, len(padded))):
                D, vectors = periods._integer_nullspace(given, ncols)
                assert [[Fraction(x, D) for x in vec] for vec in vectors] == expected


class TestRelationsKernel:
    def test_w60_odd_budget(self):
        t0 = time.perf_counter()
        space = relations_kernel(60, "odd")
        assert time.perf_counter() - t0 < 2.0
        assert len(space.basis) == dim_cuspforms(62)

    def test_w10_odd_is_golden(self):
        space = relations_kernel(10, "odd")
        assert len(space.basis) == 1
        assert space.basis[0].primitive_integer() == GOLDEN_12

    def test_w10_even_contains_zw_minus_1(self):
        space = relations_kernel(10, "even")
        assert len(space.basis) == 2
        target = RatPoly.monomial(10) - 1
        # membership: target must be a linear combination of the basis;
        # verify by checking it satisfies both relations exactly
        for g, reps in ((S_GEN, 1), (U_GEN, 2)):
            acc = target
            total = target
            for _ in range(reps):
                acc = slash_action(acc, g, 10)
                total = total + acc
            assert total == RatPoly.zero()

    @pytest.mark.parametrize("k", SUPPORTED)
    def test_dimensions(self, k):
        w = k - 2
        assert len(relations_kernel(w, "odd").basis) == 1
        assert len(relations_kernel(w, "even").basis) == 2
        assert len(relations_kernel(w, "all").basis) == 3

    @pytest.mark.parametrize("k", SUPPORTED)
    def test_basis_satisfies_relations_exactly(self, k):
        w = k - 2
        for parity in ("odd", "even"):
            for r in relations_kernel(w, parity).basis:
                assert r + slash_action(r, S_GEN, w) == RatPoly.zero()
                ru = slash_action(r, U_GEN, w)
                ruu = slash_action(ru, U_GEN, w)
                assert r + ru + ruu == RatPoly.zero()


class TestOddPeriodPolynomial:
    def test_weight_12_golden(self):
        assert odd_period_polynomial(12) == GOLDEN_12

    @pytest.mark.parametrize("k", SUPPORTED)
    def test_odd_parity(self, k):
        p = odd_period_polynomial(k)
        assert p.compose(RatPoly((0, -1))) == -p

    @pytest.mark.parametrize("k", SUPPORTED)
    def test_inversion_symmetry(self, k):
        # r(1/z) = z^(-w) r(z), as coefficient reversal of z^w r(1/z)
        w = k - 2
        p = odd_period_polynomial(k)
        rev = RatPoly(tuple(p[i] for i in range(w, -1, -1)))
        assert rev == p

    def test_unsupported_weight(self):
        with pytest.raises(UnsupportedWeightError):
            odd_period_polynomial(28)


class TestCFIQuotient:
    def test_divisor_expansion(self):
        assert 4 * cfi_divisor() == GOLDEN_12

    def test_weight_12_constant(self):
        q = cfi_quotient(GOLDEN_12, 12)
        assert q.U_poly == RatPoly((4,)) and q.e == 0

    def test_weight_16_degree_4(self):
        q = cfi_quotient(odd_period_polynomial(16), 16)
        assert q.e == 4
        assert is_self_inversive(q.U_poly)
        assert all(c.denominator == 1 for c in q.U_poly.coeffs)

    def test_non_member_rejected(self):
        with pytest.raises(DivisibilityError):
            cfi_quotient(RatPoly.monomial(9), 12)

    @pytest.mark.parametrize("k", SUPPORTED)
    def test_exact_quotient_all_weights(self, k):
        q = cfi_quotient(odd_period_polynomial(k), k)
        assert q.e == k - 12
        assert q.U_poly.degree == q.e
        # self-inversive identity U(1/z) z^e == U(z)
        assert q.U_poly.reversed_coeffs() == q.U_poly
        assert q.U_poly * cfi_divisor() == odd_period_polynomial(k)
