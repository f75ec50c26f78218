"""Level-one modular forms: q-expansions, Hecke operators, eigenforms,
and high-precision completed L-values / Eichler integrals.

All q-expansion arithmetic is exact over Q; floating-point work is done
with mpmath at a configurable mantissa (default 128 bits), imported only by
the numeric functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactcore import ONE_DIM_WEIGHTS, UnsupportedWeightError, _exact, rref

DEFAULT_QEXP_PREC = 64


class PrecisionError(ValueError):
    pass


@dataclass(frozen=True)
class QExpansion:
    """Truncated q-series sum a_n q^n, n = 0..prec, with rational a_n."""

    weight: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in self.coeffs))
        if self.prec < 2:
            raise ValueError("need at least 3 coefficients (prec >= 2)")

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1

    def a(self, n: int):
        return self.coeffs[n]

    def is_cuspidal(self) -> bool:
        return self.coeffs[0] == 0

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if self.weight != other.weight:
            raise ValueError("weights differ")
        n = min(self.prec, other.prec)
        return QExpansion(
            self.weight, [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QExpansion(self.weight, [c * other for c in self.coeffs])
        n = min(self.prec, other.prec)
        out = [0] * (n + 1)
        for i in range(n + 1):
            if self.coeffs[i] == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += self.coeffs[i] * other.coeffs[j]
        return QExpansion(self.weight + other.weight, out)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        return {"weight": self.weight, "coeffs": [str(c) for c in self.coeffs]}


def _sigma(n: int, e: int) -> int:
    total = 0
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            total += d**e
            if d != n // d:
                total += (n // d) ** e
    return total


def eisenstein_qexp(k: int, prec: int = DEFAULT_QEXP_PREC) -> QExpansion:
    """Normalized Eisenstein series E4 or E6 with constant term 1."""
    if k not in (4, 6):
        raise UnsupportedWeightError(f"Eisenstein generator for weight {k} not supported")
    if prec < 2:
        raise ValueError("prec must be >= 2")
    factor = 240 if k == 4 else -504
    e = k - 1
    coeffs = [1] + [factor * _sigma(n, e) for n in range(1, prec + 1)]
    return QExpansion(k, coeffs)


def delta_qexp(prec: int = DEFAULT_QEXP_PREC) -> QExpansion:
    """The discriminant cusp form (E4^3 - E6^2)/1728."""
    e4 = eisenstein_qexp(4, prec)
    e6 = eisenstein_qexp(6, prec)
    return (e4 * e4 * e4 - e6 * e6) * Fraction(1, 1728)


def dim_cuspforms(k: int) -> int:
    """dim S_k for PSL(2,Z), even k >= 0."""
    if k < 12 or k % 2 == 1:
        return 0
    if k % 12 == 2:
        return k // 12 - 1
    return k // 12


def cuspform_basis(k: int, prec: int = DEFAULT_QEXP_PREC) -> list:
    """Echelonized basis of S_k from monomials E4^a E6^b Delta^c.

    Basis element i has leading coefficient 1 at q^(i+1) and zeros at the
    earlier pivot powers.
    """
    if k % 2 != 0 or k < 0:
        return []
    dim = dim_cuspforms(k)
    forms = []
    e4 = eisenstein_qexp(4, prec)
    e6 = eisenstein_qexp(6, prec)
    delta = delta_qexp(prec)
    # Delta^c * E4^a * E6^b with b in {0,1}: leading term q^c, so the set
    # is triangular and independent
    for c in range(1, dim + 1):
        rem = k - 12 * c
        b = 0 if rem % 4 == 0 else 1
        a = (rem - 6 * b) // 4
        if a < 0 or 4 * a + 6 * b + 12 * c != k:
            raise RuntimeError(f"no monomial E4^a E6^b Delta^{c} of weight {k}")
        f = delta
        for _ in range(c - 1):
            f = f * delta
        for _ in range(a):
            f = f * e4
        for _ in range(b):
            f = f * e6
        forms.append(f)
    basis, pivots = rref([f.coeffs for f in forms])
    if pivots != list(range(1, dim + 1)):
        raise RuntimeError("monomial basis unexpectedly degenerate")
    return [QExpansion(k, b) for b in basis]


def hecke_Tm(f: QExpansion, m: int) -> QExpansion:
    """Apply the Hecke operator T_m:
    (T_m f)_n = sum over d | gcd(m, n) of d^(k-1) a_(m n / d^2).

    Output precision is floor(f.prec / m), reported in the result.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    out_prec = f.prec // m
    if out_prec < 2:
        raise PrecisionError(f"q-expansion too short to apply T_{m}")
    k = f.weight
    out = []
    for n in range(out_prec + 1):
        total = 0
        g = m if n == 0 else math.gcd(m, n)
        for d in range(1, g + 1):
            if g % d == 0:
                total += d ** (k - 1) * f.coeffs[m * n // (d * d)]
        out.append(total)
    return QExpansion(k, out)


def eigenform(k: int, prec: int = DEFAULT_QEXP_PREC) -> QExpansion:
    """The unique normalized Hecke eigenform of weight k, dim S_k = 1 only."""
    if k not in ONE_DIM_WEIGHTS:
        raise UnsupportedWeightError(
            f"weight {k} unsupported: requires dim S_k = 1 "
            f"(supported weights: {ONE_DIM_WEIGHTS})"
        )
    f = cuspform_basis(k, prec)[0]
    if f.coeffs[0] != 0 or f.coeffs[1] != 1:
        raise RuntimeError(f"cusp form of weight {k} is not normalized")
    for m in (2, 3):
        tf = hecke_Tm(f, m)
        lam = f.coeffs[m]
        for n in range(tf.prec + 1):
            if tf.coeffs[n] != lam * f.coeffs[n]:
                raise RuntimeError(f"T_{m} eigenvalue check failed for weight {k}")
    return f


# ---------------------------------------------------------------------
# numeric side (mpmath)
# ---------------------------------------------------------------------


def _mpq(x):
    from mpmath import mpf

    return mpf(x.numerator) / x.denominator


def _tail_bound(x, n: int, k: int):
    from mpmath import mp, mpf

    # tail estimate: |a_n| <= d(n) n^((k-1)/2) and Gamma(t, x)/x^t ~ e^-x
    return mp.exp(-x) * mpf(n + 1) ** k * 4


def qexp_prec_for(k: int, prec_bits: int) -> int:
    """Number of q-terms at which lambda_numeric's tail bound meets a
    prec_bits target for weight k, and never fewer than DEFAULT_QEXP_PREC."""
    from mpmath import mp, mpf

    with mp.workprec(prec_bits + 48):
        twopi = 2 * mp.pi
        tol = mpf(2) ** (-(prec_bits + 16))
        n = 1
        while _tail_bound(twopi * n, n, k) >= tol:
            n += 1
    return max(n, DEFAULT_QEXP_PREC)


def lambda_numeric(f: QExpansion, prec_bits: int = 128) -> list:
    """Completed L-values [Lambda(f, 1), ..., Lambda(f, k-1)], where
    Lambda(f, s) = integral of f(iy) y^(s-1) on (0, inf).

    Splitting the integral at y = 1 and using modularity of f gives
    Lambda(f, s) = P_s + (-1)^(k/2) P_(k-s), P_s = sum_n a_n Gamma(s, x_n) / x_n^s
    with x_n = 2 pi n.  For integer s, Gamma(s, x) / x^s is
    e^(-x) sum_(m=1..s) (s-1)!/(s-m)! x^(-m), so every P_s is a finite
    combination of the moments S_m = sum_n a_n e^(-x_n) x_n^(-m), m = 1..k-1,
    which one pass over n accumulates.
    """
    from mpmath import mp, mpf

    k = f.weight
    if not f.is_cuspidal():
        raise ValueError("cusp form required")
    sign = (-1) ** (k // 2)
    with mp.workprec(prec_bits + 48):
        twopi = 2 * mp.pi
        tol = mpf(2) ** (-(prec_bits + 16))
        moments = [mpf(0)] * k  # moments[m] = S_m; index 0 unused
        for n in range(1, f.prec + 1):
            x = twopi * n
            term = _mpq(f.coeffs[n]) * mp.exp(-x)
            for m in range(1, k):
                term /= x
                moments[m] += term
            if _tail_bound(x, n, k) < tol:
                break
        else:
            raise PrecisionError(
                f"q-expansion with {f.prec} terms too short for {prec_bits}-bit target"
            )
        P = [  # P[s - 1] = P_s
            mp.fsum(math.perm(s - 1, m - 1) * moments[m] for m in range(1, s + 1))
            for s in range(1, k)
        ]
        return [P[s - 1] + sign * P[k - s - 1] for s in range(1, k)]


def period_polynomial_numeric(f: QExpansion, prec_bits: int = 128) -> list:
    """Coefficients (constant first, length w+1) of the full period polynomial

        r_f(z) = sum_n C(w,n) (-z)^(w-n) i^(n+1) Lambda(f, n+1).

    The odd-degree coefficients come out real (up to rounding); a
    RuntimeError is raised if one has an imaginary part above
    2^(-prec_bits/2) of the largest coefficient.
    """
    from mpmath import mp, mpc, mpf

    k = f.weight
    w = k - 2
    lam = lambda_numeric(f, prec_bits)
    with mp.workprec(prec_bits + 48):
        coeffs = []
        for j in range(w + 1):
            n = w - j
            c = math.comb(w, n) * (-1) ** j * mpc(0, 1) ** (n + 1) * lam[n]
            coeffs.append(c)
        scale = max(abs(c) for c in coeffs)
        for j in range(1, w + 1, 2):
            if abs(coeffs[j].imag) > scale * mpf(2) ** (-prec_bits // 2):
                raise RuntimeError("odd part of period polynomial not real")
        return coeffs


def eichler_integral_numeric(f: QExpansion, z, prec_bits: int = 128):
    """The Eichler integral -(k-2)!/(2 pi i)^(k-1) sum a_n n^(1-k) e^(2 pi i n z).

    Requires Im z > 0 for convergence.
    """
    from mpmath import mp, mpc, mpf

    k = f.weight
    with mp.workprec(prec_bits + 48):
        z = mpc(z)
        if z.imag <= 0:
            raise ValueError("Eichler integral series requires Im z > 0")
        tol = mpf(2) ** (-(prec_bits + 16))
        q1 = mp.e ** (2j * mp.pi * z)
        front = -mpf(math.factorial(k - 2)) / (2j * mp.pi) ** (k - 1)
        total = mpc(0)
        converged = False
        for n in range(1, f.prec + 1):
            term = _mpq(f.coeffs[n]) * q1**n / mpf(n) ** (k - 1)
            total += term
            if abs(q1) ** n * mpf(n + 1) ** k < tol:
                converged = True
                break
        if not converged:
            raise PrecisionError("q-expansion too short for requested precision")
        return front * total
