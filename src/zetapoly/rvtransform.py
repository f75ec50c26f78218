"""Zeta polynomials from self-inversive numerators.

Given a self-inversive U of degree e and d > e, the Taylor coefficients of
U(z)/(1-z)^d are values H(n) of a degree d-1 polynomial H.  H satisfies

    H(x) = (-1)^(d-1) H(-d+e-x),

vanishes at x = -1, ..., -(d-e-1), and its remaining zeros sit on the
symmetry line Re x = -(d-e)/2 of that functional equation.

Q, H divided by its trivial zeros, is built and checked once, in integers,
as (d-1)! Q (`zeta_quotient`); `rv_polynomial` makes the full record over
it, and only its ``critical_line`` is a Fraction.
"""

import math

from .exactcore import RatPoly, _poly, _Record, is_self_inversive


class ZetaPolyRecord(_Record):
    __slots__ = ("weight", "e", "d", "H", "Q", "critical_line")  # Q: H without its trivial zeros

    def to_json_dict(self) -> dict:
        return {
            "weight": self.weight,
            "e": self.e,
            "d": self.d,
            "H": self.H.coeff_strings(),
            "Q": self.Q.coeff_strings(),
            "critical_line": str(self.critical_line),
            "functional_equation": "exact",
        }


class ScaledPoly(_Record):
    """poly together with a power of 2*pi: the true object is (2pi)^(-log_scale) * poly."""

    __slots__ = ("poly", "log_scale")


def series_coefficients(U: RatPoly, d: int, N: int) -> list:
    """First N+1 Taylor coefficients of U(z)/(1-z)^d: the convolution
    c_n = sum_j u_j b_(n-j) with b_m = C(m+d-1, d-1), and each binomial
    from the one before, b_(m+1) = b_m (m+d) / (m+1), exactly."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    b = [1]
    for m in range(N):
        b.append(b[m] * (m + d) // (m + 1))
    return [sum(u * b[n - j] for j, u in enumerate(U.coeffs[: n + 1])) for n in range(N + 1)]


def _linear_product(lo: int, hi: int) -> RatPoly:
    """prod_{t=lo}^{hi} (x + t), or 1 when hi < lo: each factor is one pass
    c <- t c + x c over the integer coefficients, constant first."""
    c = [1]
    for t in range(lo, hi + 1):
        c = [a * t + b for a, b in zip(c + [0], [0] + c)]
    return _poly(c)


def _zeta_interpolant(U: RatPoly, d: int) -> RatPoly:
    """(d-1)! D Q(x), an integer polynomial, where D = U.den,
    Q = H / prod_{t=1}^{d-e-1} (x+t) and H(x) = sum_j u_j C(x-j+d-1, d-1).

    (d-1)! H = sum_j u_j prod_{t=1-j}^{d-1-j} (x+t), and for 0 <= j <= e < d
    every one of those products contains the strip t = 1..d-e-1, so
    (d-1)! Q = sum_j u_j P_j with P_j = prod_{t=1-j}^{0} (x+t)
    prod_{t=d-e}^{d-1-j} (x+t), a product of e linear factors.  Each P_j
    comes from the one before: P_j = P_(j-1) (x-j+1) / (x+d-j)
    = P_(j-1) + (1-d) P_(j-1) / (x+d-j), one exact synthetic division by a
    monic linear factor of P_(j-1)."""
    num, e = U.num, U.degree
    P = list(_linear_product(d - e, d - 1).num)
    G = [num[0] * c for c in P]
    for j in range(1, e + 1):
        carry = 0  # coefficient i of P_(j-1) / (x+d-j), from the top
        for i in range(e, -1, -1):
            c = P[i]
            P[i] = c + (1 - d) * carry
            carry = c - (d - j) * carry
        G = [g + num[j] * c for g, c in zip(G, P)]
    return _poly(G)


def functional_equation_defect(H: RatPoly, d: int, e: int) -> RatPoly:
    """H(x) - (-1)^(d-1) H(-d+e-x); zero iff the functional equation holds."""
    reflected = H.compose(RatPoly((e - d, -1)))
    return H - (-1) ** (d - 1) * reflected


def zeta_quotient(U: RatPoly, d: int) -> tuple:
    """(Q, c + u): Q = H / L, L(x) = prod_{t=1}^{d-e-1} (x+t), over (d-1)!,
    and the critical line Re x = c = -(d-e)/2 as the linear polynomial c + u.

    GQ = (d-1)! D Q, D = U.den, is built in closed form (_zeta_interpolant)
    and checked in integers, on GQ and on L's closed form rather than on the
    expanded H: GQ(n) L(n), L(n) = (n+d-e-1)!/n!, is (d-1)! times the series
    coefficient of D U(z)/(1-z)^d, and as L(e-d-x) = (-1)^(d-e-1) L(x), H
    has its functional equation iff GQ(e-d-x) = (-1)^e GQ(x).  So the checks
    take O(d e) integer steps."""
    if U.is_zero():
        raise ValueError("U must be nonzero")
    e = U.degree
    if d <= e:
        raise ValueError(f"d = {d} must exceed deg U = {e}")
    if not is_self_inversive(U):
        raise ValueError("U must be self-inversive: U(1/z) z^e == U(z)")
    scale = math.factorial(d - 1)
    GQ = _zeta_interpolant(U, d)
    if GQ.degree != e:
        raise RuntimeError(f"deg Q = {GQ.degree} != e = {e}")
    if GQ.compose(RatPoly((e - d, -1))) != (-1) ** e * GQ:
        raise RuntimeError("functional equation fails")
    L = math.factorial(d - e - 1)
    for n, c in enumerate(series_coefficients(_poly(U.num), d, 2 * d)):
        if GQ(n) * L != scale * c:
            raise RuntimeError(f"H({n}) disagrees with the series coefficient")
        L = L * (n + d - e) // (n + 1)
    return _poly(GQ.num, scale * U.den), _poly((e - d, 2), 2)


def rv_polynomial(U: RatPoly, d: int, weight: int | None = None) -> ZetaPolyRecord:
    """The record of U at d over the checked Q of `zeta_quotient`: H = L Q,
    with L(x) = prod_{t=1}^{d-e-1} (x+t), and the Fraction c of its line."""
    from fractions import Fraction

    Q, _ = zeta_quotient(U, d)
    e = U.degree
    return ZetaPolyRecord(
        weight=weight,
        e=e,
        d=d,
        H=_linear_product(1, d - e - 1) * Q,
        Q=Q,
        critical_line=Fraction(-(d - e), 2),
    )


def zeta_projective_space(k: int) -> ScaledPoly:
    """s(s-1)...(s-k), carrying the symbolic prefactor (2 pi)^-(k+1)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return ScaledPoly(poly=_linear_product(-k, 0), log_scale=k + 1)


def gamma_c(s, prec_bits: int = 128):
    """The finite complex gamma factor (2 pi)^(-s) Gamma(s) for real s > 0."""
    from mpmath import mp, mpf

    with mp.workprec(prec_bits + 16):
        s = mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        return (2 * mp.pi) ** (-s) * mp.gamma(s)
