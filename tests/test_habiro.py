import ast
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from zetapoly import cli, habiro
from zetapoly.exactcore import RatPoly
from zetapoly.habiro import (
    CycloInt,
    HabiroTrunc,
    LevelError,
    chebyshev_T,
    cyclotomic_poly,
    eval_at_root,
    frobenius_congruence_check,
    habiro_battery,
    habiro_one,
    habiro_q,
    habiro_qinv,
    habiro_r,
    involution_invariance_check,
    psi_chebyshev,
    psi_toric,
    psi_toric_divisibility_holds,
    qpochhammer,
)


def P(*coeffs):
    return RatPoly(coeffs)


def fixed_seed_elements():
    """Twenty deterministic pseudo-random nonzero integer polynomials in r, of
    degree 1 to 5 with coefficients in -9..9, for the reproducible
    congruence batteries."""
    rng = random.Random(20260823)
    out = []
    while len(out) < 20:
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
        p = RatPoly(coeffs)
        if not p.is_zero():
            out.append(p)
    return out


class TestCyclotomic:
    def test_phi1(self):
        assert cyclotomic_poly(1) == P(-1, 1)

    def test_phi4(self):
        assert cyclotomic_poly(4) == P(1, 0, 1)

    def test_phi12(self):
        assert cyclotomic_poly(12) == P(1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        for m in (6, 8, 10, 15):
            prod = RatPoly.one()
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = prod * cyclotomic_poly(d)
            assert prod == RatPoly.monomial(m) - 1


class TestHabiroTruncMake:
    def test_non_integer_residue_rejected(self):
        with pytest.raises(ValueError):
            HabiroTrunc.make(3, RatPoly((Fraction(1, 2),)))

    def test_non_integer_residue_rejected_under_optimize(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "from fractions import Fraction\n"
            "from zetapoly.exactcore import RatPoly\n"
            "from zetapoly.habiro import HabiroTrunc\n"
            "HabiroTrunc.make(3, RatPoly((Fraction(1, 2),)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr


class TestValueClasses:
    def test_equal_values_are_equal_and_hash_alike(self):
        x, y = habiro_r(6), HabiroTrunc.make(6, habiro_r(6).residue)
        assert x is not y and x == y and hash(x) == hash(y)
        u, v = eval_at_root(habiro_r(5), 3), CycloInt(3, (-1,))
        assert u is not v and u == v and hash(u) == hash(v)
        assert len({x, y}) == 1 and len({u, v}) == 1

    def test_levels_and_conductors_tell_values_apart(self):
        assert habiro_one(5) != habiro_one(6)
        assert habiro_one(5) != habiro_one(5).residue
        assert CycloInt(3, (1,)) != CycloInt(4, (1,))
        assert CycloInt(3, (1,)) != (3, (1,))

    def test_keyword_construction(self):
        x = habiro_r(4)
        assert HabiroTrunc(level=4, residue=x.residue) == HabiroTrunc(4, x.residue) == x
        assert CycloInt(conductor=3, coords=(-1,)) == CycloInt(3, (-1,))

    def test_repr_names_the_fields(self):
        assert repr(habiro_one(2)) == "HabiroTrunc(level=2, residue=RatPoly(1))"
        assert repr(CycloInt(3, (-1,))) == "CycloInt(conductor=3, coords=(-1,))"

    @pytest.mark.parametrize(
        "value, name",
        [
            (HabiroTrunc(4, RatPoly.one()), "level"),
            (HabiroTrunc(4, RatPoly.one()), "residue"),
            (CycloInt(3, (-1,)), "conductor"),
            (CycloInt(3, (-1,)), "coords"),
        ],
    )
    def test_fields_cannot_change(self, value, name):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 5
        assert getattr(value, name) == before


class TestHabiroR:
    def test_level1_collapses_to_2(self):
        assert habiro_r(1).residue == P(2)

    def test_level2(self):
        assert habiro_r(2).residue == P(1, 2, -1)

    def test_projective_compatibility(self):
        assert habiro_r(5).reduce_level(2) == habiro_r(2)
        for n in range(1, 10):
            for m in range(1, n):
                assert habiro_r(n).reduce_level(m) == habiro_r(m)


class TestHabiroQinv:
    def test_level2(self):
        qinv = habiro_qinv(2)
        assert qinv.residue == P(1, 1, -1)
        assert habiro_q(2) * qinv == habiro_one(2)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_inverse_at_all_levels(self, n):
        assert habiro_q(n) * habiro_qinv(n) == habiro_one(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_r_identity(self, n):
        assert habiro_r(n) == habiro_q(n) + habiro_qinv(n)

    def test_equals_habiro_series(self):
        # the series 1 + sum_(1<=n<N) q^n (q)_n, built here with its own
        # running product, is the oracle for q^(-1) = r - q
        for N in range(1, 31):
            series, pochhammer = RatPoly.one(), RatPoly.one()
            for n in range(1, N):
                pochhammer = pochhammer * (RatPoly.one() - RatPoly.monomial(n))
                series = series + RatPoly.monomial(n) * pochhammer
            assert habiro_qinv(N) == HabiroTrunc.make(N, series), N
            # and for r = q + q^(-1), whose top terms an accumulator one
            # entry too short would drop
            assert habiro_r(N) == HabiroTrunc.make(N, RatPoly.x() + series), N

    def test_no_recursion_on_n(self):
        # a fresh interpreter with a recursion limit of 100: (q)_150 built by
        # one call per factor would need some 300 frames, where the default
        # limit would need n near 500.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "from zetapoly.exactcore import RatPoly\n"
            "from zetapoly.habiro import HabiroTrunc, habiro_qinv, qpochhammer\n"
            "sys.setrecursionlimit(100)\n"
            "g = qpochhammer(150)\n"
            "if g.degree != 150 * 151 // 2 or g != qpochhammer(149) * RatPoly((1,) + (0,) * 149 + (-1,)):\n"
            "    raise SystemExit('wrong (q)_150')\n"
            "if habiro_qinv(150).residue != HabiroTrunc.make(150, RatPoly(g.num[1:]) * -1).residue:\n"
            "    raise SystemExit('wrong q^(-1)')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_memory_quadratic_in_n(self):
        # a fresh interpreter: (q)_300 has 45151 coefficients, so keeping
        # every (q)_j for j <= 300 would take some 200 MB, and keeping only
        # the last list takes a few (ru_maxrss is in KiB on Linux)
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import resource\n"
            "from zetapoly.exactcore import RatPoly\n"
            "from zetapoly.habiro import habiro_r, qpochhammer\n"
            "def rise(f, n):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    f(n)\n"
            "    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
            "    if kib >= 48 * 1024:\n"
            "        raise SystemExit(f'{f.__name__}({n}) raised ru_maxrss by {kib} KiB')\n"
            "rise(qpochhammer, 300)\n"
            "rise(habiro_r, 300)\n"
            "if qpochhammer(300) != qpochhammer(299) * RatPoly((1,) + (0,) * 299 + (-1,)):\n"
            "    raise SystemExit('wrong (q)_300')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("N", (1, 3, 8))
    def test_battery_sees_a_wrong_r(self, monkeypatch, N):
        # q^(-1) is built without r, so the battery's r = q + q^(-1) is a
        # check: an r off by its top monomial q^(m-1), m = N(N+1)/2, fails it
        real = habiro.habiro_r
        monkeypatch.setattr(
            habiro, "habiro_r", lambda n: real(n) + HabiroTrunc.make(n, RatPoly.monomial(n * (n + 1) // 2 - 1))
        )
        results = habiro_battery(N)
        assert results["r_equals_q_plus_qinv"] is False
        assert results["q_times_qinv_is_one"] is True

    def test_battery_sees_a_wrong_q(self, monkeypatch, capsys):
        # habiro_qinv does not check q q^(-1) = 1 itself, so a wrong q
        # reaches the battery, which records it instead of raising
        real = habiro.habiro_q
        monkeypatch.setattr(habiro, "habiro_q", lambda n: real(n) + real(n))
        results = habiro_battery(6)
        assert results["q_times_qinv_is_one"] is False
        assert results["r_equals_q_plus_qinv"] is False
        assert cli.main(["habiro", "--level", "6"]) == 1
        assert '"q_times_qinv_is_one": false' in capsys.readouterr().out


class TestEvalAtRoot:
    def test_conductor_1(self):
        assert eval_at_root(habiro_r(5), 1) == CycloInt(1, (2,))

    def test_conductor_4_vanishes(self):
        assert eval_at_root(habiro_r(5), 4) == CycloInt(4, ())

    def test_conductor_3(self):
        assert eval_at_root(habiro_r(5), 3) == CycloInt(3, (-1,))

    def test_level_too_small(self):
        with pytest.raises(LevelError):
            eval_at_root(habiro_r(3), 4)

    def test_representative_independence(self):
        # shifting the representative by a multiple of (q)_N leaves the value fixed
        from zetapoly.habiro import qpochhammer

        x = habiro_r(6)
        shifted = HabiroTrunc.make(6, x.residue + qpochhammer(6) * P(3, -2, 1))
        assert eval_at_root(shifted, 5) == eval_at_root(x, 5)


class TestChebyshev:
    def test_t1(self):
        assert chebyshev_T(1) == RatPoly.x()

    def test_t2(self):
        assert chebyshev_T(2) == P(-2, 0, 1)

    def test_t3(self):
        assert chebyshev_T(3) == P(0, -3, 0, 1)

    def test_closed_form_matches_recurrence(self):
        # T_(k+1) = r T_k - T_(k-1), run iteratively from T_0 = 2, T_1 = r
        prev, cur = P(2), RatPoly.x()
        assert chebyshev_T(0) == prev
        for k in range(1, 301):
            assert chebyshev_T(k) == cur, k
            prev, cur = cur, RatPoly.x() * cur - prev

    def test_large_k_has_no_recursion_limit(self):
        # k and p well past Python's recursion limit
        T = chebyshev_T(1200)
        assert T.degree == 1200 and T[1200] == 1 and T[0] == 2 and T[1] == 0
        assert psi_chebyshev(RatPoly.x(), 997) == chebyshev_T(997)
        assert frobenius_congruence_check(1009, RatPoly.x())

    def test_defining_q_identity(self):
        # T_k(q + 1/q) = q^k + q^(-k), checked as a Laurent identity cleared by q^k
        for k in range(1, 9):
            # q^k * T_k(q + 1/q) with q + 1/q -> (q^2+1)/q
            acc = RatPoly.zero()
            for i, c in enumerate(chebyshev_T(k).coeffs):
                acc = acc + c * P(1, 0, 1) ** i * RatPoly.monomial(k - i)
            assert acc == RatPoly.monomial(2 * k) + 1


class TestPsiToric:
    def test_q_to_qk(self):
        assert psi_toric(habiro_q(6), 2) == HabiroTrunc.make(6, RatPoly.monomial(2))

    def test_identity(self):
        x = habiro_r(8)
        assert psi_toric(x, 1) == x

    def test_composition(self):
        q = habiro_q(10)
        assert psi_toric(psi_toric(q, 2), 3) == psi_toric(q, 6)

    def test_multiplicativity_on_r_level12(self):
        r = habiro_r(12)
        for a in (2, 3, 4):
            for b in (2, 3):
                if a * b <= 8:
                    assert psi_toric(psi_toric(r, a), b) == psi_toric(r, a * b)

    def test_divisibility_lemma(self):
        for k in (2, 3, 5):
            assert psi_toric_divisibility_holds(k, 8)

    @pytest.mark.parametrize("N", range(1, 13))
    def test_divisibility_is_the_cyclotomic_statement(self, N):
        # (q)_N = (-1)^N prod_(d<=N) Phi_d^(floor(N/d)), so one division by
        # (q)_N is floor(N/d) divisions by each Phi_d
        product = RatPoly.one()
        for d in range(1, N + 1):
            product = product * cyclotomic_poly(d) ** (N // d)
        assert qpochhammer(N) == (-1) ** N * product
        for k in (1, 2, 3, 4, 7):
            assert psi_toric_divisibility_holds(k, N)
            body = habiro._substitute_power(qpochhammer(N), k)
            for d in range(1, N + 1):
                assert (body % cyclotomic_poly(d) ** (N // d)).is_zero()

    @pytest.mark.parametrize("N", (1, 4, 8, 12))
    def test_battery_sees_a_wrong_psi_of_the_pochhammer(self, monkeypatch, N):
        # psi^k((q)_N) off by the monomial q is not a multiple of (q)_N
        real = habiro._substitute_power
        monkeypatch.setattr(habiro, "_substitute_power", lambda poly, k: real(poly, k) + RatPoly.x())
        for k in (2, 3):
            assert psi_toric_divisibility_holds(k, min(N, 8)) is False
        assert habiro_battery(N)["toric_divisibility_lemma"] is False

    @pytest.mark.parametrize("k", (0, -1))
    def test_divisibility_lemma_needs_k_at_least_1(self, k):
        # psi^0((q)_N) = 0 would pass for any divisor; psi^k for k < 0 is not a polynomial
        with pytest.raises(ValueError, match="k must be >= 1"):
            psi_toric_divisibility_holds(k, 8)

    def test_frobenius_toric(self):
        for p in (2, 3, 5):
            for x in (habiro_q(12), habiro_r(12)):
                assert habiro._frobenius_toric_holds(p, x, psi_toric(x, p))

    def test_commutes_with_reduction(self):
        x = habiro_r(10)
        assert psi_toric(x, 3).reduce_level(6) == psi_toric(x.reduce_level(6), 3)


class TestPsiChebyshev:
    def test_psi2_of_r(self):
        assert psi_chebyshev(RatPoly.x(), 2) == P(-2, 0, 1)

    def test_commuting_composition(self):
        r = RatPoly.x()
        assert psi_chebyshev(psi_chebyshev(r, 3), 2) == psi_chebyshev(r, 6)
        assert psi_chebyshev(psi_chebyshev(r, 2), 3) == psi_chebyshev(r, 6)

    def test_ring_homomorphism(self):
        p = P(0, 0, 1)  # r^2
        assert psi_chebyshev(p, 4) == chebyshev_T(4) ** 2

    def test_chebyshev_semigroup(self):
        for a in range(1, 9):
            for b in range(1, 9):
                assert psi_chebyshev(chebyshev_T(b), a) == chebyshev_T(a * b)


class TestFrobenius:
    def test_generator_p2(self):
        assert frobenius_congruence_check(2, RatPoly.x())

    def test_generator_p3(self):
        assert frobenius_congruence_check(3, RatPoly.x())

    def test_quadratic_p5(self):
        assert frobenius_congruence_check(5, P(1, 1, 1))

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            frobenius_congruence_check(4, RatPoly.x())

    def test_fixed_seed_battery(self):
        # psi^p and the p-th power are ring endomorphisms of F_p[r], so the
        # battery's congruence on the generator carries over to every element
        elements = fixed_seed_elements()
        assert len(elements) == 20
        assert elements == fixed_seed_elements()  # deterministic
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for x in elements:
                assert frobenius_congruence_check(p, x)

    def test_matches_the_defect_over_z(self):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for x in [RatPoly.x()] + fixed_seed_elements():
                defect = psi_chebyshev(x, p) - x**p
                assert frobenius_congruence_check(p, x) == all(c % p == 0 for c in defect.coeffs)

    def test_large_prime_on_a_degree_5_element(self):
        x = P(5, 1, -9, 9, -4, 3)
        assert x in fixed_seed_elements()
        start = time.process_time()
        assert frobenius_congruence_check(1009, x)
        assert time.process_time() - start < 5  # 13.3 s when made over Z

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError, match="integer coefficients"):
            frobenius_congruence_check(3, P(Fraction(1, 2), 1))

    def test_battery_checks_the_generator_at_every_prime_below_32(self, monkeypatch):
        # T_13 with its constant term plus 1 breaks T_13(r) == r^13 mod 13; the
        # seeded sample at p <= 11 cannot see it, the generator check at p < 32 does
        real = habiro.chebyshev_T
        monkeypatch.setattr(habiro, "chebyshev_T", lambda k: real(k) + 1 if k == 13 else real(k))
        assert all(
            frobenius_congruence_check(p, x)
            for p in (2, 3, 5, 7, 11)
            for x in [RatPoly.x()] + fixed_seed_elements()
        )
        assert not frobenius_congruence_check(13, RatPoly.x())
        assert habiro_battery(8)["frobenius_chebyshev"] is False


def horner_at(p, x):
    """p(x) by Horner in HabiroTrunc arithmetic, one ring product per
    coefficient: the oracle for the recurrence and, at x = r, for the value
    of p(r) at a root of unity."""
    acc = HabiroTrunc.make(x.level, RatPoly.zero())
    for c in reversed(p.num):
        acc = acc * x + c
    return acc


class TestChebyshevValues:
    @pytest.mark.parametrize("n", [*range(1, 15), 24])
    def test_matches_horner(self, n):
        r = habiro_r(n)
        values = habiro._chebyshev_values(r, 8)
        assert len(values) == 9
        for k, value in enumerate(values):
            assert value == horner_at(chebyshev_T(k), r), k

    @pytest.mark.parametrize("n", [*range(2, 15), 24])
    def test_off_by_one_differs(self, n):
        # at level 1, r = 2 and every T_k(2) = 2, so the indices cannot be told apart
        r = habiro_r(n)
        values = habiro._chebyshev_values(r, 9)
        for k in range(1, 9):
            assert psi_toric(r, k) == values[k]
            assert psi_toric(r, k) != values[k + 1], k

    def test_short_lists(self):
        r = habiro_r(5)
        assert habiro._chebyshev_values(r, 0) == [habiro_one(5) * 2]
        assert habiro._chebyshev_values(r, 1) == [habiro_one(5) * 2, r]


class TestInvolution:
    def test_r_at_4(self):
        assert involution_invariance_check(RatPoly.x(), 4)

    def test_constant(self):
        for m in (1, 2, 5, 7):
            assert involution_invariance_check(P(17), m)

    def test_q_not_invariant(self):
        for m in (3, 4):
            v = eval_at_root(habiro_q(m), m)
            assert v != v.involution()

    def test_polynomials_in_r_invariant(self):
        for m in range(1, 13):
            for p in (RatPoly.x(), P(1, -3, 1), P(2, 0, 1, 1)):
                assert involution_invariance_check(p, m)

    @pytest.mark.parametrize("m", range(1, 25))
    def test_value_matches_the_habiro_route(self, m):
        # p(r) made in Z[q]/((q)_m) by Horner and then taken at zeta_m,
        # against p of r(zeta_m) in Z[x]/Phi_m, for the battery's three
        # probes, the seeded elements and two constants; r(zeta_m) is itself
        # a constant at m = 1, 2, 3, 4 and 6
        for p in [RatPoly.x(), P(1, -3, 1), P(2, 0, 1, 1)] + fixed_seed_elements() + [RatPoly.zero(), P(-4)]:
            assert habiro._value_at_root(p, m) == eval_at_root(horner_at(p, habiro_r(m)), m), p

    def test_fractional_polynomial_is_rejected(self):
        with pytest.raises(ValueError, match="integer coefficients"):
            involution_invariance_check(P(Fraction(1, 2), 1), 3)

    @pytest.mark.parametrize("N", (4, 8, 12))
    def test_battery_sees_a_wrong_r(self, monkeypatch, N):
        # with q in place of r, p(q) at zeta_m is not fixed by zeta -> zeta^(-1)
        # from m = 3 on: the entry reads False
        monkeypatch.setattr(habiro, "habiro_r", habiro_q)
        assert habiro_battery(N)["involution_invariance"] is False


class TestFractionalInput:
    def test_integral_residue_is_accepted(self):
        # (q)_4 / 2 + 1 has fractional coefficients but is 1 mod (q)_4
        x = HabiroTrunc.make(4, qpochhammer(4) * Fraction(1, 2) + 1)
        assert x.residue == 1 and x == habiro_one(4)

    def test_fractional_residue_is_rejected(self):
        with pytest.raises(ValueError, match="integer coefficients"):
            HabiroTrunc.make(4, qpochhammer(3) * Fraction(1, 2))

    def test_fractional_residue_of_a_long_input_is_rejected(self):
        # length 11 > m = 10, so this one goes through the expansion
        with pytest.raises(ValueError, match="integer coefficients"):
            HabiroTrunc.make(4, RatPoly.monomial(10, Fraction(1, 2)))


class TestOperands:
    @pytest.mark.parametrize("other", (1.5, Fraction(1, 2), RatPoly.x(), "a"), ids=repr)
    @pytest.mark.parametrize(
        "op",
        (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: y * x),
        ids=("add", "sub", "mul", "rmul"),
    )
    def test_foreign_operand_raises_type_error(self, op, other):
        with pytest.raises(TypeError):
            op(habiro_r(5), other)

    def test_int_operands_and_levels(self):
        x = habiro_r(5)
        assert x + 2 - 2 == x and 3 * x == x * 3 == x + x + x
        with pytest.raises(LevelError, match="levels differ"):
            x + habiro_r(4)


class TestPower:
    def test_negative_power_raises(self):
        with pytest.raises(ValueError, match="negative power"):
            habiro_q(3) ** -1

    def test_zero_and_positive_powers(self):
        q = habiro_q(4)
        assert q**0 == habiro_one(4)
        assert q**3 == q * q * q


def test_battery_level_24_budget():
    # CPU time, about 10x the 31-32 ms the battery takes
    t0 = time.process_time()
    results = habiro_battery(24)
    elapsed = time.process_time() - t0
    assert all(results.values())
    assert elapsed < 0.3


class TestReductionCoherence:
    def test_ops_commute_with_reduction(self):
        a = habiro_r(9)
        b = habiro_q(9) * habiro_q(9) + 3
        for m in (2, 4, 7):
            assert (a + b).reduce_level(m) == a.reduce_level(m) + b.reduce_level(m)
            assert (a * b).reduce_level(m) == a.reduce_level(m) * b.reduce_level(m)

    def test_eval_commutes_with_reduction(self):
        x = habiro_r(10)
        for m in (1, 2, 3, 4, 5):
            assert eval_at_root(x, m) == eval_at_root(x.reduce_level(6), m)

    def test_json_shapes(self):
        d = habiro_r(4).to_json_dict()
        assert d["level"] == 4 and d["modulus_degree"] == 10
        assert all(isinstance(c, int) for c in d["residue"])
        c = eval_at_root(habiro_r(5), 4).to_json_dict()
        assert c == {"conductor": 4, "coords": []}


class TestBlockedReduction:
    """_reduce, the cyclotomic expansion, against schoolbook division by
    (q)_n."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_schoolbook_division(self, n):
        g = qpochhammer(n)
        m = g.degree
        rng = random.Random(n)
        lengths = [1, m, m + 1, 2 * m - 1, 2 * m, 2 * m + 1, 12 * m, rng.randint(1, 12 * m)]
        for length in lengths:
            coeffs = [rng.randint(-(1 << 100), 1 << 100) for _ in range(length - 1)]
            poly = RatPoly(coeffs + [rng.choice((-1, 1)) << rng.randint(0, 100)])
            assert len(poly.coeffs) == length
            assert habiro._reduce(poly, n) == divmod(poly, g)[1], length
        # whole blocks of zero quotient: a multiple of (q)_n plus a residue
        assert habiro._reduce(g * (RatPoly.monomial(5 * m) + 3) + 7, n) == 7
        # psi^8 of r: the longest input the battery reduces
        poly = habiro._substitute_power(habiro_r(n).residue, 8)
        assert habiro._reduce(poly, n) == divmod(poly, g)[1]

    @pytest.mark.parametrize("n", (1, 2, 5, 14))
    def test_short_input_is_returned_as_is(self, n):
        m = n * (n + 1) // 2
        for poly in (RatPoly.zero(), RatPoly.monomial(m - 1, 7), habiro_r(n).residue):
            assert len(poly.num) <= m
            assert habiro._reduce(poly, n) is poly

    def test_caches_the_tracer_reads(self):
        # the names come from CACHED in bench/tracer.py, read as source only
        tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracer.py").read_text())
        (names,) = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CACHED"]
        ]
        assert names
        for name in names:
            assert callable(getattr(habiro, name).cache_info), name
