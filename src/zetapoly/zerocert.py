"""Exact certificates for unit-circle and critical-line zero claims, and the
critical-line roots refined in integers from the intervals that certified
them.  No root is found in floating point: roots_json only rounds the exact
roots to doubles for output.

Both certificates are one count.  The zeros of an even R(u) = A(u^2) lie on
the line Re u = 0 iff every root of A is real and <= 0.  A is peeled into
squarefree layers (_parity_layers), and the negative roots of each layer are
isolated once, in integers, by Descartes' rule of signs (_isolate); the count
is the number of isolating intervals.  For the critical line Re x = c,
R(u) = Q(c + u); for the unit circle, R is the Cayley transform
(1-u)^e U((1+u)/(1-u)), which takes the circle onto that line.
"""

import math
from fractions import Fraction

from .exactcore import RatPoly, _exact, _linear_compose, _poly, _Record


class SymmetryError(ValueError):
    pass


class Certificate(_Record):
    """A "unit_circle" or "critical_line" verdict.  Not in the JSON, ==, hash
    or repr: the squarefree layers of the A that the count peeled, with
    R(u) = A(u^2) for R = Q(c + u) on the critical line and the Cayley
    transform of U on the unit circle, and for each layer the isolating
    intervals of its negative roots (_isolate)."""

    _hidden = ("layers", "intervals")
    __slots__ = ("kind", "passed", "counted_roots", "expected_roots", "witness") + _hidden

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "expected": self.expected_roots,
            "counted": self.counted_roots,
            "witness": self.witness,
        }


def _variations(values) -> int:
    """Sign changes along values, zeros skipped: the count in Descartes'
    rule of signs when values are a polynomial's coefficients."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _parity_layers(R: RatPoly, claim: str):
    """A with R(u) = A(u^2), the squarefree layers of A, and the
    isolating intervals of each layer's negative roots (_isolate).  Layer j
    holds, once each, the roots of multiplicity >= j, so a root lies in as
    many layers as its multiplicity.  From B = A, each step takes the one
    gcd g = gcd(B, B'), appends the layer B // g and sets B <- g, until B is
    constant.  Raises SymmetryError(claim) when R has an odd term, i.e.
    R(-u) != R(u)."""
    if any(R.num[1::2]):
        raise SymmetryError(claim)
    A = _poly(R.num[::2], R.den)
    layers, B = [], A
    while B.degree > 0:
        g = B.gcd(B.derivative())
        layers.append(B // g)
        B = g
    return A, tuple(layers), tuple(map(_isolate, layers))


_X_PLUS_1 = RatPoly((1, 1))


def _flips(P) -> int:
    """Descartes' bound on the roots of P in (0, 1): the sign variations of
    (1+y)^n P(1/(1+y)), exact when 0 or 1."""
    return _variations(_linear_compose(P[::-1], 1, _X_PLUS_1).num)


def _isolate(S: RatPoly) -> tuple:
    """The negative roots of the squarefree S, each as a pair (lo, hi) of
    dyadic Fractions, ascending: S has exactly one root in the open interval
    (lo, hi), or the root lo = hi.  A root 0 is left out: it stays on the
    left end of the nodes that reach it.

    Descartes' rule of signs with bisection, in integers (Collins and Akritas
    1976; Rouillier and Zimmermann 2004).  The roots x = -v of S(-x) lie in
    (0, 2^k) by Fujiwara's bound, so T(y) = S(-2^k y), times a power of 2,
    has them in (0, 1).  The node (i, j, P, flips) stands for the interval
    (i, i + 1) / 2^j and holds P(y), a multiple of T((y + i) / 2^j) with the
    same roots in (0, 1).  A node with two or more flips is split into
    2^n P(y/2) and that shifted by 1, each an integer Taylor shift; a root
    on the split point is recorded and divided out.  The halves' flips and
    that root add up to at most the node's (subadditivity; Eigenwillig,
    Sharma and Yap 2006), so when the left half keeps every flip the right
    half is not made.  Termination needs S squarefree.
    """
    b = [-c if i % 2 else c for i, c in enumerate(S.num)]
    n, top = len(b) - 1, abs(b[-1]).bit_length()
    # |b_i / b_n|^(1/(n-i)) < 2^ceil((bits(b_i) - top + 1) / (n - i)); Fujiwara: |x| < 2 max
    k = 1 + max((-((top - abs(c).bit_length() - 1) // (n - i)) for i, c in enumerate(b[:-1]) if c), default=0)
    T = [c << (k * i - min(k, 0) * n) for i, c in enumerate(b)]
    found, todo = [], [(0, 0, T, _flips(T))]
    while todo:
        i, j, P, flips = todo.pop()
        if flips == 1:
            w = Fraction(2) ** (k - j)  # the width of the node
            found.append((-(i + 1) * w, -i * w))
        elif flips > 1:
            left = [c << (len(P) - 1 - d) for d, c in enumerate(P)]
            todo.append((2 * i, j + 1, left, _flips(left)))
            if todo[-1][3] < flips:  # else the right half holds no root
                right = list(_linear_compose(left, 1, _X_PLUS_1).num)
                if right[0] == 0:
                    found.append((-(2 * i + 1) * Fraction(2) ** (k - j - 1),) * 2)
                    del right[0]
                todo.append((2 * i + 1, j + 1, right, _flips(right)))
    return tuple(sorted(found))


def unit_circle_certify(U: RatPoly) -> Certificate:
    """Certify that all zeros of U lie on the unit circle and none is real.

    U must have even degree e and be self-inversive, U(1/z) z^e = U(z).  The
    Cayley transform z = (1+u)/(1-u) takes the circle onto the line Re u = 0,
    z = 1 to u = 0 and z = -1 to u = oo: R(u) = (1-u)^e U((1+u)/(1-u)) is
    even exactly when U is self-inversive, R(u) = A(u^2), with R(0) = U(1)
    and U(-1) the coefficient of u^e.  So the claim holds iff A has degree
    e/2 and every root of A, counted by multiplicity, is real and < 0.  As
    A(v) = (1-v)^(e/2) V(2(1+v)/(1-v)) for U = z^(e/2) V(z + 1/z), deg A is
    deg V.
    """
    if U.is_zero():
        raise ValueError("zero polynomial")
    e = U.degree
    if e % 2 != 0:
        raise ValueError("degree must be even")
    # two integer Taylor shifts and a reversal: z -> 2w - 1, w -> 1/w, w -> 1 - u
    R = U.compose(RatPoly((-1, 2))).reversed_coeffs().compose(RatPoly((1, -1)))
    _, layers, intervals = _parity_layers(R, "U must be self-inversive: U(1/z) z^e == U(z)")
    # the roots of A in (-inf, 0), by multiplicity: a root 0 is U(1) = 0
    count = sum(map(len, intervals))
    return Certificate(
        kind="unit_circle",
        passed=count == e // 2,
        counted_roots=count,
        expected_roots=e // 2,
        witness=f"V(t), deg {e // 2}" if e else "constant, trivially certified",
        layers=layers,
        intervals=intervals,
    )


def _real_part(c):
    """c, the real part of the critical line, as _exact makes it; any c that
    is not an int or Fraction raises TypeError naming c."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"inexact real part c = {c!r} of the line; use int or Fraction")
    return _exact(c)


def critical_line_certify(Q: RatPoly, c) -> Certificate:
    """Certify that all zeros of Q lie on the vertical line Re x = c, for an
    int or Fraction c (any other c raises TypeError).

    Q must satisfy Q(2c - x) = Q(x) exactly, so Q has even degree and
    Q(c + u) = A(u^2); the zeros of Q are on the line iff every root of A is
    real and <= 0.  The Q of a zeta polynomial record always does: its sign
    (-1)^e under x -> 2c - x is +1, as the weight k = e + 12 is even.
    """
    if Q.is_zero():
        raise ValueError("zero polynomial")
    c = _real_part(c)
    A, layers, intervals = _parity_layers(Q.compose(RatPoly((c, 1))), f"Q(2c - x) != Q(x) at c = {c}")
    # A's roots in (-inf, 0], each counted once per layer it lies in, i.e. by multiplicity
    counted = 2 * sum(len(iv) + (S.num[0] == 0) for S, iv in zip(layers, intervals))
    return Certificate(
        kind="critical_line",
        passed=counted == Q.degree,
        counted_roots=counted,
        expected_roots=Q.degree,
        witness=f"A(v), deg {A.degree}" if A.degree > 0 else "A constant, trivially certified",
        layers=layers,
        intervals=intervals,
    )


def _scaled_with_slope(a, n: int, s: int) -> tuple:
    """2^(s deg a) a(n / 2^s) for the integer polynomial a (constant first),
    and 2^(s (deg a - 1)) a'(n / 2^s), by one Horner pass in integers: the
    second is the derivative of the first in n."""
    acc = slope = 0
    for k, c in enumerate(reversed(a)):
        slope = slope * n + acc
        acc = acc * n + (c << (s * k))
    return acc, slope


def _negative_roots(cert: Certificate, prec_bits: int):
    """The roots v <= 0 of the A of cert, layer by layer, as the integers
    -V >= 0 with V = v 2^F rounded down, F = prec_bits + 64, from the
    isolating intervals of _isolate.

    Each root is refined in its interval from the midpoint by Newton steps on
    the integer multiple of its layer S at the scale 2^s, with S and S'
    exact, both from one Horner pass (_scaled_with_slope).  Every point reached narrows a bracket (lo, hi) around the root,
    and a step that would leave it is replaced by a bisection.  The precision
    p doubles from 64 (or prec_bits, if less) up to prec_bits, each at the
    scale of the next, s = min(2p, prec_bits) + 64, or finer where the
    interval's ends need it; it stops once a Newton step is at most
    2^-(p+8) max(1, |v|), lands on the root, or the bracket is one unit
    wide.  The root is then boxed in
    (v - h, v + h), h = 2^-(prec_bits+4) max(1, |v|), cut to the bracket: S
    must change sign across the box, or RuntimeError is raised.  An exact
    root (lo = hi) passes as it is.
    """
    for S, intervals in zip(cert.layers, cert.intervals):
        a = S.primitive_integer().num
        yield from [0] * (a[0] == 0)  # a squarefree layer has 0 as a root at most once
        for ends in intervals:
            s = max(min(128, prec_bits) + 64, max(x.denominator for x in ends).bit_length() - 1)
            lo, hi = (x.numerator * (1 << s) // x.denominator for x in ends)
            fv, dv = _scaled_with_slope(a, lo, s)
            slo = fv or dv  # the sign of S just right of lo
            V, p = (lo + hi) // 2, 0
            while p < prec_bits:
                p = min(max(2 * p, 64), prec_bits)
                up = max(min(2 * p, prec_bits) + 64 - s, 0)
                s, V, lo, hi = s + up, V << up, lo << up, hi << up
                while hi - lo > 1:
                    fv, dv = _scaled_with_slope(a, V, s)
                    if not fv:
                        break
                    lo, hi = (V, hi) if (fv > 0) == (slo > 0) else (lo, V)
                    step = fv // dv if dv else hi - lo  # (S / S')(v) 2^s; S' = 0 forces a bisection
                    if lo <= V - step <= hi and abs(step) << (p + 8) <= max(1 << s, abs(V - step)):
                        V -= step
                        break
                    V = V - step if lo < V - step < hi else (lo + hi) // 2
            h = max(1 << s, abs(V)) >> (prec_bits + 4)
            blo, bhi = max(V - h, lo), min(V + h, hi)
            flo, fhi = (_scaled_with_slope(a, x, s)[0] * slo for x in (blo, bhi))
            if (blo > lo and flo <= 0) or (bhi < hi and fhi >= 0):
                raise RuntimeError("sign test fails: A keeps its sign near its root in (%s, %s)" % ends)
            yield -(V >> (s - prec_bits - 64))


def critical_line_roots(cert: Certificate, c, prec_bits: int = 128) -> list[tuple]:
    """All zeros of the Q of cert = critical_line_certify(Q, c), with
    Q(c + u) = A(u^2), as exact pairs (c, +-sqrt(-v)), the square root to
    prec_bits + 64 fractional bits, over the roots v of A, ascending in
    imaginary part and repeated by multiplicity.  c is an int or Fraction;
    any other c raises TypeError.

    The roots of each squarefree layer of A are refined in integers
    (_negative_roots) from the isolating intervals that the certificate
    counted, so a root lies in as many layers as its multiplicity, and
    nothing is isolated again.  RuntimeError is raised when the intervals
    number fewer than deg A, or when a root's sign test fails; there is no
    fallback to a complex solve.
    """
    if not cert.passed:  # Q has even degree, so both counts are twice A's
        found, deg = cert.counted_roots // 2, cert.expected_roots // 2
        raise RuntimeError(f"sign test fails: {found} of the deg A = {deg} roots of A are in (-oo, 0]")
    c, F = _real_part(c), prec_bits + 64
    ys = [Fraction(math.isqrt(W << F), 1 << F) for W in sorted(_negative_roots(cert, prec_bits))]
    return [(c, -y) for y in reversed(ys)] + [(c, y) for y in ys]


def roots_json(roots) -> list:
    """The (re, im) pairs of critical_line_roots as correctly rounded doubles."""
    return [{"re": float(re), "im": float(im)} for re, im in roots]
