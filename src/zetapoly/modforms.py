"""Level-one modular forms: q-expansions over Q, Hecke operators, the
cusp-form basis of any weight, and high-precision completed L-values,
period polynomials and Eichler integrals.

q-expansion arithmetic is exact over Q, through ``RatPoly`` products and
``rref``: this is the generic machinery for any dim S_k.  The eigenform of a
weight with dim S_k = 1 and its completed L-values come from ``lvalues``,
in integers: `eigenform` wraps its closed form and `lambda_numeric` its one
moment sum, as exact dyadic Fractions.  mpmath, at a configurable mantissa
(default 128 bits), is imported only by `period_polynomial_numeric` and
`eichler_integral_numeric`.
"""

import math
from fractions import Fraction

from .exactcore import RatPoly, _exact, _Record, rref
from .lvalues import (
    DEFAULT_QEXP_PREC, PrecisionError, _sized_pass, eigenform_coeffs, eisenstein_coeffs, hecke_coeffs,
    lambda_fixed,
)


class QExpansion(_Record):
    """Truncated q-series sum a_n q^n, n = 0..prec, with rational a_n."""

    __slots__ = ("weight", "coeffs")

    def _validate(self):
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in self.coeffs))
        if self.prec < 2:
            raise ValueError("need at least 3 coefficients (prec >= 2)")

    @property
    def prec(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if not isinstance(other, QExpansion):
            return NotImplemented
        if self.weight != other.weight:
            raise ValueError("weights differ")
        n = min(self.prec, other.prec)
        return QExpansion(
            self.weight, [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QExpansion(self.weight, [c * other for c in self.coeffs])
        if not isinstance(other, QExpansion):
            return NotImplemented
        n = min(self.prec, other.prec)
        out = (RatPoly(self.coeffs[: n + 1]) * RatPoly(other.coeffs[: n + 1])).coeffs[: n + 1]
        return QExpansion(self.weight + other.weight, out + (0,) * (n + 1 - len(out)))

    __rmul__ = __mul__


def eisenstein_qexp(k: int, prec: int = DEFAULT_QEXP_PREC) -> QExpansion:
    """Normalized Eisenstein series E4 or E6 with constant term 1."""
    return QExpansion(k, eisenstein_coeffs(k, prec))


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
    earlier pivot powers, so prec must reach q^dim: PrecisionError otherwise.
    """
    if k % 2 != 0 or k < 0:
        return []
    dim = dim_cuspforms(k)
    if prec < dim:
        raise PrecisionError(f"q-expansion to q^{prec} too short for the {dim} forms of S_{k}")
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
    """Apply the Hecke operator T_m (`lvalues.hecke_coeffs`).

    Output precision is floor(f.prec / m), reported in the result.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if f.prec // m < 2:
        raise PrecisionError(f"q-expansion too short to apply T_{m}")
    return QExpansion(f.weight, hecke_coeffs(f.weight, f.coeffs, m))


def eigenform(k: int, prec: int = DEFAULT_QEXP_PREC) -> QExpansion:
    """The unique normalized Hecke eigenform of weight k, dim S_k = 1 only:
    `lvalues.eigenform_coeffs`, checked there."""
    return QExpansion(k, eigenform_coeffs(k, prec))


# ---------------------------------------------------------------------
# numeric side: L-values in integer fixed point, the rest in mpmath
# ---------------------------------------------------------------------


def _mpq(x):
    from mpmath import mpf

    return mpf(x.numerator) / x.denominator


def lambda_numeric(f: QExpansion, prec_bits: int = 128) -> list:
    """Completed L-values [Lambda(f, 1), ..., Lambda(f, k-1)] of the cusp form
    f, as exact dyadic Fractions each within 2^-(prec_bits+15) of the true
    value: `lvalues.lambda_fixed`, over its 2^W."""
    values, W = lambda_fixed(f.weight, f.coeffs, prec_bits)
    return [Fraction(v, 1 << W) for v in values]


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
        lam = [_mpq(v) for v in lam]
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
    """The Eichler integral -(k-2)!/(2 pi i)^(k-1) sum a_n n^(1-k) e^(2 pi i n z),
    summed over n = 1..N with N from `_sized_pass` at y = Im z.

    Requires Im z > 0 for convergence.
    """
    from mpmath import mp, mpc, mpf

    k = f.weight
    y = mpc(z).imag  # its sign is exact at any precision
    if y <= 0:
        raise ValueError("Eichler integral series requires Im z > 0")
    N, work_bits = _sized_pass(k, f.coeffs, prec_bits, float(y))
    with mp.workprec(work_bits):
        z = mpc(z)
        q = mp.exp(2j * mp.pi * z)
        qn = mpc(1)  # q^n
        front = -mpf(math.factorial(k - 2)) / (2j * mp.pi) ** (k - 1)
        total = mpc(0)
        for n in range(1, N + 1):
            qn *= q
            total += _mpq(f.coeffs[n]) * qn / mpf(n) ** (k - 1)
        return front * total
