"""Level-one modular forms: q-expansions, Hecke operators, eigenforms,
and high-precision completed L-values / Eichler integrals.

All q-expansion arithmetic is exact over Q.  The completed L-values are
summed in integer fixed point and printed by `_mpf_str`, an integer port of
mpmath's decimal formatter, so `lambda_numeric` and `lfun` load no mpmath.
mpmath, at a configurable mantissa (default 128 bits), is imported only by
`period_polynomial_numeric` and `eichler_integral_numeric`.
"""

import math
from bisect import bisect_left
from fractions import Fraction

from .exactcore import ONE_DIM_WEIGHTS, RatPoly, UnsupportedWeightError, _exact, _Record, rref

DEFAULT_QEXP_PREC = 64


class PrecisionError(ValueError):
    pass


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

    def is_cuspidal(self) -> bool:
        return self.coeffs[0] == 0

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
# numeric side: L-values in integer fixed point, the rest in mpmath
# ---------------------------------------------------------------------


def _mpq(x):
    from mpmath import mpf

    return mpf(x.numerator) / x.denominator


def _terms_needed(k: int, prec_bits: int, y: float = 1.0) -> int:
    """The least N such that dropping the terms n > N of the q-series moves
    every result of `lambda_numeric` (y = 1) and of
    `eichler_integral_numeric` (y = Im z) by at most 2^-(prec_bits+16),
    for a normalized Hecke eigenform of weight k; any k outside ONE_DIM_WEIGHTS raises.

    1. |a_n| <= d(n) n^((k-1)/2) (Deligne 1974) and d(n) <= 2 sqrt(n), so
       |a_n| <= 2 n^(k/2).
    2. Let t_n = n^(k/2) e^(-2 pi n y).  For n > N,
       t_(n+1) / t_n = (1 + 1/n)^(k/2) e^(-2 pi y) <= rho, where
       rho = (1 + 1/(N+1))^(k/2) e^(-2 pi y).  When rho < 1,
       sum_(n>N) t_n <= t_(N+1) / (1 - rho), so by 1
       B = sum_(n>N) |a_n| e^(-2 pi n y) <= 2 t_(N+1) / (1 - rho).
    3. P_s = sum_n a_n e^(-x_n) sum_(m=1..s) perm(s-1, m-1) x_n^(-m), with
       x_n = 2 pi n (see `lambda_numeric`).  For n > N, x_n^(-m) <= X^(-m)
       with X = 2 pi (N+1), and perm(s-1, m-1) <= (k-2)^(m-1), so the inner
       sum is at most sum_(m>=1) (k-2)^(m-1) X^(-m) = 1 / (X - (k-2)) when
       X > k-2.  The tail therefore moves each P_s by at most
       B / (X - (k-2)).
    4. Lambda(f, s) = P_s +- P_(k-s), which doubles that bound to
       2B / (X - (k-2)) <= 4 t_(N+1) / ((1 - rho)(X - (k-2))).  An Eichler
       term, (k-2)! / (2 pi)^(k-1) |a_n| n^(1-k) e^(-2 pi n y)
       = |a_n| e^(-2 pi n y) perm(k-2, k-2) x_n^(-(k-1)), is one of the
       terms of 3 with e^(-2 pi n) replaced by e^(-2 pi n y), so the same
       bound holds for it.
    5. Once rho < 1 and X > k-2 hold, they hold for every larger N, and
       each factor of the bound in 4 falls as N grows (t_(N+2) <= rho t_(N+1)).
       So the least N at which the bound meets 2^-(prec_bits+16) is found by
       doubling and then bisection.  The search stops at 2^62, which no
       stored expansion reaches, so a larger answer comes out as 2^62 + 1.
       The comparison is made in natural logs, in doubles, whose rounding
       is a few units of 2^-53 relative to the target; the target is
       tightened by a relative 2^-40 to cover it.
    6. `lambda_numeric` sums in integers at the scale 2^W, W = p + G, where
       p = prec_bits + 48.  Each truncation (a floor) costs at most one unit
       u = 2^-W.  `_pi_fixed(W)` is within 2 units of 2^W pi, and
       Q = `_exp_neg_twopi(W)` within 1.01 units of 2^W e^(-2 pi).  So
       e^(-x_n), stepped as qn <- floor(qn Q / 2^W), stays within 2 units:
       each step adds one floor to less than 1/500 of the errors before it.
       1/x_n, taken as floor(2^(2W) / (2 `_pi_fixed(W)` n)), is within 2
       units: the floor, plus 4 / (4 pi^2 n) from pi.  The term a_n e^(-x_n)
       is then within 2|a_n| + 1 units (the 1 is the floor of dividing by
       a_n's denominator).  Each of the m products by 1/x_n keeps it within
       2|a_n| + 2 units: it scales the error so far by at most
       1/(2 pi) + 2u < 0.16, and adds one floor and 1/x_n's error times
       |a_n| e^(-x_n) < |a_n| / 250.  So each moment S_m is within 4NA
       units, where A = max(1, max over n <= N of |a_n|).  P_s and Lambda
       are exact integer sums of the moments with weights
       sum_m perm(s-1, m-1) <= s! <= k (k-2)!, so each Lambda(f, s) is
       within 8 N k A (k-2)! units.  With
       G = bits(A) + bits((k-2)!) + bits(N k) + 3, that is below
       2^G u = 2^-p.  With the tail of 4, each Lambda(f, s) is then within
       2^-(prec_bits+16) + 2^-(prec_bits+48) < 2^-(prec_bits+15) of its
       true value.  `eichler_integral_numeric` sums in mpmath at p bits.
    7. Any other cusp form of weight k is a_1 times the eigenform, so the
       tail of 4 grows by the factor |a_1|, and A of 6 with it.  Asking here
       for prec_bits + b bits, 2^b >= max(1, |a_1|), keeps the tail within
       the bound above, and `_sized_pass` sets p = prec_bits + b + 48.
    """
    if k not in ONE_DIM_WEIGHTS:
        raise UnsupportedWeightError(f"no proven q-series truncation for weight {k}")
    target = -(prec_bits + 16) * math.log(2) * (1 + 2**-40)
    twopi_y = 2 * math.pi * y

    def log_bound(N):  # log of the bound in 4, or inf where it does not apply
        n = N + 1
        log_rho = k / 2 * math.log1p(1 / n) - twopi_y
        gap = 2 * math.pi * n - (k - 2)  # X - (k-2)
        if log_rho >= 0 or gap <= 0:
            return math.inf
        log_t = k / 2 * math.log(n) - twopi_y * n
        return log_t + math.log(4 / gap) - math.log(-math.expm1(log_rho))

    hi = 1
    while hi < 2**62 and log_bound(hi) > target:
        hi *= 2
    return bisect_left(range(hi + 1), True, key=lambda N: log_bound(N) <= target)


def qexp_prec_for(k: int, prec_bits: int) -> int:
    """Number of q-terms lambda_numeric needs for a prec_bits target at
    weight k, and never fewer than DEFAULT_QEXP_PREC."""
    return max(_terms_needed(k, prec_bits), DEFAULT_QEXP_PREC)


def _sized_pass(f: QExpansion, prec_bits: int, y: float = 1.0) -> tuple:
    """(N, working precision) for summing f's q-series at decay e^(-2 pi n y)
    to a prec_bits target: step 7 of `_terms_needed`, which widens both by
    the bits of |a_1|.  PrecisionError when f has fewer than N terms."""
    bits = prec_bits + (max(math.ceil(abs(f.coeffs[1])), 1) - 1).bit_length()
    N = _terms_needed(f.weight, bits, y)
    if f.prec < N:
        raise PrecisionError(f"{f.prec} q-terms too short for {prec_bits} bits; {N} needed")
    return N, bits + 48


def _atan_inv(x: int, V: int) -> int:
    """2^V atan(1/x) for an integer x >= 2, by the alternating series
    sum_j (-1)^j x^-(2j+1) / (2j+1) with each division floored.  The powers
    t_j stay less than x^2 / (x^2 - 1) < 1.05 units below 2^V x^-j, so each
    term is within 2.05 units and the tail once t reaches 0 within 1.05: a
    series of n terms is off by less than 2.05 n + 1.05 units, and
    n <= V / (2 log2 x) + 1."""
    t = total = (1 << V) // x
    x2, j, sign = x * x, 1, 1
    while t:
        t //= x2
        j += 2
        sign = -sign
        total += sign * (t // j)
    return total


def _pi_fixed(W: int) -> int:
    """An integer within 2 of 2^W pi (W >= 0): Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) at V = W + g bits,
    g = bits(W) + 7.  By `_atan_inv` the sum is off by less than
    16 (0.45 V + 3.1) + 4 (0.13 V + 3.1) < 8 V + 64 units of 2^-V, which is
    below 2^g, and the floor that drops the g bits adds less than one unit
    of 2^-W."""
    g = W.bit_length() + 7
    V = W + g
    return (16 * _atan_inv(5, V) - 4 * _atan_inv(239, V)) >> g


def _exp_neg_twopi(W: int) -> int:
    """An integer within 1.01 of 2^W e^(-2 pi) (W >= 0): the positive series
    s = sum_j x^j / j! for e^x, x = 2 `_pi_fixed(V)` / 2^V at
    V = W + bits(W) + 4, then one floored reciprocal 2^(V+W) // s.  Each
    series term is floored twice, and an error made at term i grows by at
    most e^x < 540 through the terms after it (and by at most 1.82 once
    i >= 13); there are at most V + 40 terms, and x is within 4 units of
    2^V 2 pi, which moves e^x by less than 2800 units.  So s is within
    16000 + 3.7 V units of 2^V e^(2 pi) > 535 2^V, and the reciprocal
    carries that as less than (16000 + 3.7 V) 2^W e^(-2 pi) / (535 2^V)
    < 0.01 units of 2^-W, plus its floor."""
    V = W + W.bit_length() + 4
    x = 2 * _pi_fixed(V)
    t = s = 1 << V
    j = 0
    while t:
        j += 1
        t = (t * x >> V) // j
        s += t
    return (1 << (V + W)) // s


def lambda_numeric(f: QExpansion, prec_bits: int = 128) -> list:
    """Completed L-values [Lambda(f, 1), ..., Lambda(f, k-1)], where
    Lambda(f, s) = integral of f(iy) y^(s-1) on (0, inf), as exact dyadic
    Fractions each within 2^-(prec_bits+15) of the true value.

    Splitting the integral at y = 1 and using modularity of f gives
    Lambda(f, s) = P_s + (-1)^(k/2) P_(k-s), P_s = sum_n a_n Gamma(s, x_n) / x_n^s
    with x_n = 2 pi n.  For integer s, Gamma(s, x) / x^s is
    e^(-x) sum_(m=1..s) (s-1)!/(s-m)! x^(-m), so every P_s is a finite
    combination of the moments S_m = sum_n a_n e^(-x_n) x_n^(-m), m = 1..k-1,
    which one pass over n = 1..N accumulates, N from `_sized_pass`.  The
    pass runs on integers at the scale 2^W of step 6 of `_terms_needed`,
    which bounds its truncations (Brent, J. ACM 23, 1976, for the fixed
    point pi and exponential).
    """
    k = f.weight
    if not f.is_cuspidal():
        raise ValueError("cusp form required")
    N, work_bits = _sized_pass(f, prec_bits)
    coeffs = f.coeffs[: N + 1]
    A = max(max(math.ceil(abs(a)) for a in coeffs), 1)
    W = (
        work_bits + A.bit_length() + math.factorial(k - 2).bit_length()
        + (N * k).bit_length() + 3
    )
    one = 1 << W
    twopi = 2 * _pi_fixed(W)
    q = _exp_neg_twopi(W)
    qn = one  # 2^W e^(-x_n)
    moments = [0] * k  # moments[m] = 2^W S_m; index 0 unused
    for n in range(1, N + 1):
        qn = qn * q >> W
        inv_x = (one << W) // (twopi * n)
        term = coeffs[n].numerator * qn // coeffs[n].denominator
        for m in range(1, k):
            term = term * inv_x >> W
            moments[m] += term
    P = [  # P[s - 1] = 2^W P_s
        sum(math.perm(s - 1, m - 1) * moments[m] for m in range(1, s + 1))
        for s in range(1, k)
    ]
    sign = (-1) ** (k // 2)
    return [Fraction(P[s - 1] + sign * P[k - s - 1], one) for s in range(1, k)]


def _mpf_str(x: Fraction, prec_bits: int) -> str:
    """The dyadic x as mpmath prints it at prec_bits: `str(mpf(x))` under
    `mp.workprec(prec_bits)`, without loading mpmath.

    A port of `mpmath.libmp.to_str(s, dps)` and of the `to_digits_exp(s,
    dps + 3)` it calls, at dps = `prec_to_dps(prec_bits)`: floor x to
    fixprec bits, then to fixdps decimals; round half up on digit dps,
    carrying through nines; print in fixed point when the leading decimal
    exponent lies strictly inside (min(-(dps//3), -5), dps) and in
    e-notation otherwise; strip trailing zeros.  mpmath first divides by a
    rounded power of ten when |log2 x| > 3500, which this port refuses."""
    dps = max(1, int(round(prec_bits / 3.3219280948873626) - 1))  # prec_to_dps
    n, W = x.numerator, x.denominator.bit_length() - 1
    if x.denominator != 1 << W:
        raise ValueError(f"{x} is not dyadic")
    if not n:
        return "0.0"
    sign, n = ("-" if n < 0 else ""), abs(n)
    top = n.bit_length() - W  # exp + bc of the mpf
    if abs(top) > 3500:
        raise ValueError(f"binary exponent {top} out of range")
    # to_digits_exp(x, dps + 3)
    bitprec = int((dps + 3) * math.log(10, 2)) + 10
    fixprec = max(bitprec - top, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    shift = fixprec - W
    fixed = n << shift if shift >= 0 else n >> -shift
    digits = _decimal(fixed * 10**fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    # to_str: round on digit dps, then place the point
    if len(digits) > dps and digits[dps] in "56789":
        i = dps - 1  # carry on the string: no int <-> str past 4300 digits
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:  # carried through nines into 10^dps
            digits = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        digits = digits[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
            split = 1
        else:
            split = exponent + 1
            if split > dps:
                digits += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{exponent:+d}"


def _decimal(n: int) -> str:
    """str(n) for n >= 0, split in halves past CPython's limit on the
    digits of an int -> str conversion."""
    if n.bit_length() < 13000:
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the decimal digits
    hi, lo = divmod(n, 10**half)
    return _decimal(hi) + _decimal(lo).rjust(half, "0")


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
    N, work_bits = _sized_pass(f, prec_bits, float(y))
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
