"""The level-one eigenform of a weight with dim S_k = 1, and its completed
L-values, in integers.

The eigenform is the closed form Delta E4^a E6^b, 4a + 6b = k - 12, with
Delta = (E4^3 - E6^2) / 1728 (Zagier, "Elliptic modular forms and their
applications", 2008): every coefficient is an int, and every product goes
through ``intmul._mul``.  The completed L-values are one moment sum in
integer fixed point, returned as numerators over one 2^W, and `_mpf_str`,
an integer port of mpmath's decimal formatter, prints them.  So ``lfun``,
which runs only this module and ``intmul``, loads no ``fractions``,
``decimal``, ``exactcore``, ``modforms`` or mpmath.  ``modforms`` builds its
`eigenform` and `lambda_numeric` on this module.
"""

import math
from bisect import bisect_left

from . import ONE_DIM_WEIGHTS, UnsupportedWeightError
from .intmul import _mul

DEFAULT_QEXP_PREC = 64


class PrecisionError(ValueError):
    pass


def eisenstein_coeffs(k: int, prec: int) -> list:
    """a_0..a_prec of the normalized Eisenstein series E4 (k = 4) or E6
    (k = 6), 1 + c sum_n sigma_(k-1)(n) q^n with c = 240 or -504, as ints;
    the divisor sums come from one sieve over the divisors d."""
    if k not in (4, 6):
        raise UnsupportedWeightError(f"Eisenstein generator for weight {k} not supported")
    sigma = [0] * (prec + 1)
    for d in range(1, prec + 1):
        power = d ** (k - 1)
        for n in range(d, prec + 1, d):
            sigma[n] += power
    factor = 240 if k == 4 else -504
    return [1] + [factor * s for s in sigma[1:]]


def hecke_coeffs(k: int, coeffs, m: int) -> list:
    """(T_m f)_n for n = 0..prec // m, of the form f of weight k with
    q-expansion a_0..a_prec = coeffs:
    (T_m f)_n = sum over d | gcd(m, n) of d^(k-1) a_(m n / d^2)."""
    out = []
    for n in range((len(coeffs) - 1) // m + 1):
        g = math.gcd(m, n)  # gcd(m, 0) = m
        out.append(sum(d ** (k - 1) * coeffs[m * n // (d * d)] for d in range(1, g + 1) if g % d == 0))
    return out


def eigenform_coeffs(k: int, prec: int) -> list:
    """a_0..a_prec of the normalized Hecke eigenform of weight k, dim S_k = 1
    only, as ints: Delta E4^a E6^b with 4a + 6b = k - 12 and b in {0, 1},
    each product truncated at q^(2 prec).

    Three checks raise RuntimeError: 1728 divides E4^3 - E6^2 on every
    coefficient; T_p f = a_p f for p = 2 and 3 on every coefficient of T_p f
    that q^(2 prec) determines; and a_0 = 0, a_1 = 1.  The series runs to
    2 prec so that the T_2 check reads every a_n, n <= prec, returned: as
    a_2 a_n against a_2n + 2^(k-1) a_(n/2).  To q^prec alone no check would
    read an a_n with prec/2 < n <= prec and gcd(n, 6) = 1.  The eigenvalue
    checks run first, since they also refuse any multiple c f with c != 1:
    T_p (c f) = c a_p f, where the check asks for c a_p (c f).
    """
    if k not in ONE_DIM_WEIGHTS:
        raise UnsupportedWeightError(
            f"weight {k} unsupported: requires dim S_k = 1 "
            f"(supported weights: {ONE_DIM_WEIGHTS})"
        )
    if prec < 6:
        raise PrecisionError(f"q-expansion to q^{prec} too short for the T_3 check; q^6 needed")
    top = 2 * prec
    n = top + 1
    e4, e6 = eisenstein_coeffs(4, top), eisenstein_coeffs(6, top)
    powers = [[1], e4, _mul(e4, e4)[:n]]  # E4^a, a <= 2, and E4^3 = E4^2 E4
    f = []
    for c, s in zip(_mul(powers[2], e4), _mul(e6, e6)[:n]):
        a, r = divmod(c - s, 1728)
        if r:
            raise RuntimeError(f"E4^3 - E6^2 is not divisible by 1728 (weight {k})")
        f.append(a)
    b = (k - 12) % 4 // 2  # one E6 when k - 12 = 2 mod 4
    g = powers[(k - 12 - 6 * b) // 4]
    if b:
        g = _mul(g, e6)[:n]
    f = _mul(f, g)[:n]
    for p in (2, 3):
        if hecke_coeffs(k, f, p) != [f[p] * c for c in f[: top // p + 1]]:
            raise RuntimeError(f"T_{p} eigenvalue check failed for weight {k}")
    if f[0] != 0 or f[1] != 1:
        raise RuntimeError(f"cusp form of weight {k} is not normalized")
    return f[: prec + 1]


def _terms_needed(k: int, prec_bits: int, y: float = 1.0) -> int:
    """The least N such that dropping the terms n > N of the q-series moves
    every result of `lambda_fixed` (y = 1) and of
    `modforms.eichler_integral_numeric` (y = Im z) by at most
    2^-(prec_bits+16), for a normalized Hecke eigenform of weight k; any k
    outside ONE_DIM_WEIGHTS raises.

    1. |a_n| <= d(n) n^((k-1)/2) (Deligne 1974) and d(n) <= 2 sqrt(n), so
       |a_n| <= 2 n^(k/2).
    2. Let t_n = n^(k/2) e^(-2 pi n y).  For n > N,
       t_(n+1) / t_n = (1 + 1/n)^(k/2) e^(-2 pi y) <= rho, where
       rho = (1 + 1/(N+1))^(k/2) e^(-2 pi y).  When rho < 1,
       sum_(n>N) t_n <= t_(N+1) / (1 - rho), so by 1
       B = sum_(n>N) |a_n| e^(-2 pi n y) <= 2 t_(N+1) / (1 - rho).
    3. P_s = sum_n a_n e^(-x_n) sum_(m=1..s) perm(s-1, m-1) x_n^(-m), with
       x_n = 2 pi n (see `lambda_fixed`).  For n > N, x_n^(-m) <= X^(-m)
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
    6. `lambda_fixed` sums in integers at the scale 2^W, W = p + G, where
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
    """Number of q-terms lambda_fixed needs for a prec_bits target at
    weight k, and never fewer than DEFAULT_QEXP_PREC."""
    return max(_terms_needed(k, prec_bits), DEFAULT_QEXP_PREC)


def _sized_pass(k: int, coeffs, prec_bits: int, y: float = 1.0) -> tuple:
    """(N, working precision) for summing the q-series a_0..a_prec = coeffs of
    a cusp form of weight k at decay e^(-2 pi n y) to a prec_bits target:
    step 7 of `_terms_needed`, which widens both by the bits of |a_1|.
    PrecisionError when coeffs has fewer than N + 1 terms."""
    bits = prec_bits + (max(math.ceil(abs(coeffs[1])), 1) - 1).bit_length()
    N = _terms_needed(k, bits, y)
    if len(coeffs) - 1 < N:
        raise PrecisionError(f"{len(coeffs) - 1} q-terms too short for {prec_bits} bits; {N} needed")
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


def lambda_fixed(k: int, coeffs, prec_bits: int) -> tuple:
    """The completed L-values Lambda(f, s), s = 1..k-1, of the cusp form f of
    weight k with q-expansion a_0..a_prec = coeffs (ints, or any exact
    rationals with numerator and denominator), as (values, W): values[s - 1]
    is an int, and values[s - 1] / 2^W is within 2^-(prec_bits+15) of
    Lambda(f, s) = integral of f(iy) y^(s-1) on (0, inf).

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
    if coeffs[0] != 0:
        raise ValueError("cusp form required")
    N, work_bits = _sized_pass(k, coeffs, prec_bits)
    coeffs = coeffs[: N + 1]
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
    return [P[s - 1] + sign * P[k - s - 1] for s in range(1, k)], W


def _mpf_str(n: int, W: int, prec_bits: int) -> str:
    """n / 2^W as mpmath prints it at prec_bits: `str(mpf(n / 2^W))` under
    `mp.workprec(prec_bits)`, without loading mpmath.  Any int W is taken, so
    the value need not be in lowest terms.

    A port of `mpmath.libmp.to_str(s, dps)` and of the `to_digits_exp(s,
    dps + 3)` it calls, at dps = `prec_to_dps(prec_bits)`: floor x to
    fixprec bits, then to fixdps decimals; round half up on digit dps,
    carrying through nines; print in fixed point when the leading decimal
    exponent lies strictly inside (min(-(dps//3), -5), dps) and in
    e-notation otherwise; strip trailing zeros.  mpmath first divides by a
    rounded power of ten when |log2 x| > 3500, which this port refuses."""
    dps = max(1, int(round(prec_bits / 3.3219280948873626) - 1))  # prec_to_dps
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
