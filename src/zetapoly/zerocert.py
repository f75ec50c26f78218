"""Exact Sturm-sequence certificates for unit-circle and critical-line zero
claims, the critical-line roots in integers, and roots_numeric, a complex
solver in mpmath.  mpmath and cmath load only in the functions that use them.

Both certificates are one count.  The zeros of R(u) = u^offset A(u^2) lie on
the line Re u = 0 iff every root of A is real and <= 0, and A is counted by
the Sturm chains of its squarefree layers (_parity_layers).  For the critical
line Re x = c, R(u) = Q(c + u); for the unit circle, R is the Cayley
transform (1-u)^e U((1+u)/(1-u)), which takes the circle onto that line.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional

from .exactcore import RatPoly, _poly, _Record


class SymmetryError(ValueError):
    pass


class RootConvergenceError(RuntimeError):
    def __init__(self, message, roots):
        super().__init__(message)
        self.roots = roots


class Certificate(_Record):
    """A "unit_circle" or "critical_line" verdict.  Not in the JSON, ==, hash
    or repr: the squarefree layers of the A that the count peeled, and the
    offset with R(u) = u^offset A(u^2), for R = Q(c + u) on the critical line
    and the Cayley transform of U (offset 0) on the unit circle."""

    __slots__ = ("kind", "passed", "counted_roots", "expected_roots", "witness", "layers", "offset")
    _defaults = ((), 0)
    _hidden = ("layers", "offset")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "expected": self.expected_roots,
            "counted": self.counted_roots,
            "witness": self.witness,
        }


def _sign_at(q: RatPoly, x: Optional[Fraction], end: int) -> int:
    """Sign of q at x, or at -inf/+inf when x is None (end = -1 or +1)."""
    if q.is_zero():
        return 0
    if x is None:
        s = 1 if q.num[-1] > 0 else -1
        if end < 0 and q.degree % 2 == 1:
            s = -s
        return s
    v = q(Fraction(x))
    return (v > 0) - (v < 0)


def _variations(chain: list, x: Optional[Fraction], end: int) -> int:
    signs = [s for s in (_sign_at(q, x, end) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: RatPoly, a: Optional[Fraction], b: Optional[Fraction]) -> int:
    """Number of distinct real roots of p in (a, b]; None means -inf / +inf."""
    if a is not None and b is not None and a > b:
        raise ValueError(f"reversed interval: a = {a} > b = {b}")
    sf = p.squarefree_part()  # raises ValueError on the zero polynomial
    return _sturm_count_squarefree(sf, a, b)


def _sturm_count_squarefree(sf: RatPoly, a: Optional[Fraction], b: Optional[Fraction]) -> int:
    """sturm_count for an sf already known to be squarefree."""
    if sf.degree == 0:
        return 0
    # Sturm chain: squarefree part, derivative, then negated remainders
    chain = [sf, sf.derivative()]
    while chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    return _variations(chain, a, -1) - _variations(chain, b, +1)


def _parity_layers(R: RatPoly, offset: int, claim: str):
    """A with R(u) = u^offset A(u^2), and the squarefree layers of A: layer j
    holds, once each, the roots of multiplicity >= j, so a root lies in as
    many layers as its multiplicity.  Raises SymmetryError(claim) when R has
    a term of the other parity, i.e. R(-u) != (-1)^offset R(u)."""
    if any(R.num[1 - offset :: 2]):
        raise SymmetryError(claim)
    A = _poly(R.num[offset::2], R.den)
    # reconstruction guard: spreading A back out must give R
    rec = [0] * (offset + 2 * len(A.num))
    rec[offset::2] = A.num
    if _poly(rec, A.den) != R:
        raise RuntimeError("even/odd decomposition failed to reconstruct input")
    layers, B = [], A
    while B.degree > 0:
        layers.append(B.squarefree_part())
        B = B // layers[-1]
    return A, tuple(layers)


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
    _, layers = _parity_layers(R, 0, "U must be self-inversive: U(1/z) z^e == U(z)")
    # the roots of A in (-inf, 0), by multiplicity: a root 0 is U(1) = 0
    count = sum(_sturm_count_squarefree(S, None, 0) - (S.num[0] == 0) for S in layers)
    return Certificate(
        kind="unit_circle",
        passed=count == e // 2,
        counted_roots=count,
        expected_roots=e // 2,
        witness=f"V(t), deg {e // 2}" if e else "constant, trivially certified",
        layers=layers,
    )


def critical_line_certify(Q: RatPoly, c: Fraction, sign: int) -> Certificate:
    """Certify that all zeros of Q lie on the vertical line Re x = c.

    Q must satisfy Q(2c - x) = sign * Q(x) exactly.  Substituting x = c + u
    gives Q(c+u) = A(u^2) (sign +) or u A(u^2) (sign -); the zeros of Q are
    on the line iff every root of A is real and <= 0.
    """
    if Q.is_zero():
        raise ValueError("zero polynomial")
    c = Fraction(c)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    offset = 0 if sign == 1 else 1
    A, layers = _parity_layers(
        Q.compose(RatPoly((c, 1))), offset, f"Q(2c - x) != {sign:+d} Q(x) at c = {c}"
    )
    # A's roots, each counted once per layer it lies in, i.e. by multiplicity
    counted = 2 * sum(_sturm_count_squarefree(S, None, 0) for S in layers) + offset
    return Certificate(
        kind="critical_line",
        passed=counted == Q.degree,
        counted_roots=counted,
        expected_roots=Q.degree,
        witness=f"A(v), deg {A.degree}" if A.degree > 0 else "A constant, trivially certified",
        layers=layers,
        offset=offset,
    )


# ---------------------------------------------------------------------
# floating-point roots (presentation only)
# ---------------------------------------------------------------------


def _as_mpc_coeffs(p) -> List:
    from mpmath import mpc, mpf

    if isinstance(p, RatPoly):
        return [mpf(c.numerator) / c.denominator for c in p.coeffs]
    return [mpc(c) for c in p]


def _poly_eval(coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _aberth(coeffs, deriv, zs, eps) -> None:
    """Gauss-Seidel Aberth sweeps on zs in place, in whatever number type zs
    holds, until every step is at most eps * |z| (200 sweeps at most)."""
    n = len(zs)
    for _ in range(200):
        done = True
        for i in range(n):
            z = zs[i]
            pv = _poly_eval(coeffs, z)
            dv = _poly_eval(deriv, z)
            if dv == 0:
                zs[i] = z + 1e-8 * (1 + abs(z))
                done = False
                continue
            newton = pv / dv
            repulse = sum(1 / (z - w) for j, w in enumerate(zs) if j != i)
            denom = 1 - newton * repulse
            step = newton if denom == 0 else newton / denom
            zs[i] = z - step
            done = done and abs(step) <= eps * abs(zs[i])
        if done:
            return


def _double_seeds(coeffs, start) -> Optional[List]:
    """The Aberth sweep in complex doubles from `start`, as a complex list, to
    a relative step of 1e-14.  None when the doubles cannot carry it: a
    coefficient or a modulus out of double range, a division by zero, or a
    non-finite or repeated point."""
    import cmath

    try:  # complex() of an int past 1.8e308 and abs() of such a point overflow
        c = [complex(x) for x in coeffs]
        if any(not cmath.isfinite(x) or (x == 0) != (y == 0) for x, y in zip(c, coeffs)):
            return None
        zs = [complex(z) for z in start]
        _aberth(c, [i * x for i, x in enumerate(c)][1:], zs, 1e-14)
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(map(cmath.isfinite, zs)) or len(set(zs)) < len(zs):
        return None
    return zs


def _start_points(logs) -> List:
    """Aberth start points from the Newton polygon (Bini 1996), as pairs
    (log r, angle), from logs[i] = log|c_i| (None where c_i = 0; not at either
    end): for each edge (i, j) of the upper convex hull of the points
    (i, logs[i]), j - i points spread round the circle of radius
    r = exp((logs[i] - logs[j]) / (j - i)), where the polynomial has j - i
    roots of about that modulus."""
    hull = []  # vertices (i, log|c_i|), left to right
    for j, y in enumerate(logs):
        if y is None:
            continue
        while len(hull) > 1:  # drop the last vertex while it is on or below the chord
            (i0, y0), (i1, y1) = hull[-2:]
            if (y1 - y0) * (j - i0) > (y - y0) * (i1 - i0):
                break
            hull.pop()
        hull.append((j, y))
    return [
        ((yi - yj) / (j - i), 2 * math.pi * (k - i + 0.25) / (j - i) + 0.003 * k)
        for (i, yi), (j, yj) in zip(hull, hull[1:])
        for k in range(i, j)
    ]


def roots_numeric(p, prec_bits: int = 128) -> List:
    """All complex roots by Aberth simultaneous iteration: one sweep, run
    first in complex doubles from the Newton-polygon circles and then at
    working precision from where the doubles stopped, or from the circles
    when they failed (precision escalation, as in MPSolve).  Each run stops
    once every step is at most a fixed fraction of its root: 1e-14 in
    doubles, 2^(-prec_bits-24) at working precision.  Accepts a RatPoly or a
    coefficient list (constant first).  Guarantees, for every root z,
    |p(z)| < 2^(-prec_bits/2) * sum |c_i| |z|^i, or raises
    RootConvergenceError.
    """
    from mpmath import mp, mpc, mpf

    with mp.workprec(prec_bits + 64):
        coeffs = _as_mpc_coeffs(p)
        while coeffs and abs(coeffs[-1]) == 0:
            coeffs.pop()
        if len(coeffs) <= 1:
            raise ValueError("polynomial must have positive degree")
        roots = []
        # deflate exact zeros at the origin
        while abs(coeffs[0]) == 0:
            roots.append(mpc(0))
            coeffs = coeffs[1:]
        n = len(coeffs) - 1
        if n > 0:
            logs = [float(mp.log(abs(c))) if c else None for c in coeffs]
            zs = [mp.exp(r) * mp.expj(t) for r, t in _start_points(logs)]
            zs = [mpc(z) for z in _double_seeds(coeffs, zs) or ()] or zs
            deriv = [i * c for i, c in enumerate(coeffs)][1:]
            _aberth(coeffs, deriv, zs, mpf(2) ** (-(prec_bits + 24)))
            roots.extend(zs)
            sizes = [abs(c) for c in coeffs]
            bound = mpf(2) ** (-(prec_bits // 2))
            bad = [z for z in zs if abs(_poly_eval(coeffs, z)) >= bound * _poly_eval(sizes, abs(z))]
            if bad:
                raise RootConvergenceError(
                    f"{len(bad)} root(s) failed the residual bound", roots
                )
        return [mpc(z) for z in roots]


def _scaled(a, n: int, s: int) -> int:
    """2^(s deg a) a(n / 2^s) for the integer polynomial a (constant first),
    by Horner in integers."""
    acc = 0
    for k, c in enumerate(reversed(a)):
        acc = acc * n + (c << (s * k))
    return acc


def _nstr(n: int, s: int) -> str:
    """n / 2^s to 12 significant digits, as mpmath's nstr(x, 12) writes it
    (past double range cut, not rounded; subnormal doubles keep fewer)."""
    try:
        mant, _, exp = f"{n / (1 << s):.12g}".partition("e")
    except OverflowError:
        digits = str(abs(n) >> s)
        mant, exp = "-" * (n < 0) + digits[0] + "." + (digits[1:12].rstrip("0") or "0"), len(digits) - 1
    return (mant if "." in mant else mant + ".0") + (f"e{int(exp):+d}" if exp else "")


def _real_seeds(a, prec_bits: int) -> List[tuple]:
    """The real parts of the Aberth roots of the integer polynomial a, as
    exact ratios (p, q): the sweep in doubles, or, when the doubles cannot
    carry a, roots_numeric at prec_bits."""
    pts = _start_points([math.log(abs(c)) if c else None for c in a])
    # a generator, so that a start circle past double range overflows inside _double_seeds
    zs = _double_seeds(a, (math.exp(r) * complex(math.cos(t), math.sin(t)) for r, t in pts))
    if zs is not None:
        return [z.real.as_integer_ratio() for z in zs]
    from mpmath.libmp import to_rational

    return [to_rational(z.real._mpf_) for z in roots_numeric(a, prec_bits)]


def _negative_roots(S: RatPoly, prec_bits: int) -> List[int]:
    """The roots v of a squarefree S, each with a witness that it is real and
    < 0, as the integers V = v 2^F, F = prec_bits + 64; raises RuntimeError
    when a witness fails.

    Each seed (_real_seeds) is polished by Newton steps, with S and S' exact
    on the integer multiple of S, until a step is at most 2^-(prec_bits+8)
    max(1, |v|), then boxed in (v - h, min(v + h, 0)), h = 2^-(prec_bits+4)
    max(1, |v|).  S must change sign across every box; deg S pairwise
    disjoint boxes then hold all deg S roots of S.
    """
    F = prec_bits + 64
    a = S.primitive_integer().coeffs
    roots = [0] * (a[0] == 0)  # a squarefree layer has 0 as a root at most once
    a = a[len(roots) :]
    if len(a) <= 1:
        return roots
    da = [i * c for i, c in enumerate(a)][1:]
    boxes = []
    for p, q in _real_seeds(a, prec_bits):
        V = (p << F) // q
        for _ in range(64):  # a few steps from a double seed; the cap stops a divergent one
            dv = _scaled(da, V, F)
            if dv == 0:
                break
            step = _scaled(a, V, F) // dv  # (S / S')(v) 2^F
            V -= step
            if abs(step) << (prec_bits + 8) <= max(1 << F, abs(V)):
                break
        h = max(1 << F, abs(V)) >> (prec_bits + 4)
        lo, hi = V - h, min(V + h, 0)
        if not (lo < hi and _scaled(a, lo, F) * _scaled(a, hi, F) < 0):
            raise RuntimeError(f"sign test fails: A has no certified negative root near {_nstr(V, F)}")
        boxes.append((lo, hi, V))
    boxes.sort()
    for (_, hi, v), (lo, _, w) in zip(boxes, boxes[1:]):
        if hi >= lo:
            raise RuntimeError(
                f"sign test fails: boxes around roots {_nstr(v, F)} and {_nstr(w, F)} of A overlap"
            )
    return roots + [V for _, _, V in boxes]


def critical_line_roots(layers, c, prec_bits: int = 128, offset: int = 0) -> List[tuple]:
    """All zeros of the Q with Q(c + u) = u^offset A(u^2), as exact pairs
    (c, +-sqrt(-v)), the square root to prec_bits + 64 fractional bits, over
    the roots v of A, ascending in imaginary part and repeated by
    multiplicity.  layers are the squarefree layers of A in the Certificate
    of critical_line_certify; a root lies in as many as its multiplicity.

    Each layer is solved in integers (_negative_roots), so every root has an
    integer sign-change witness at about prec_bits.  A failed witness raises
    RuntimeError; there is no fallback to a complex solve.
    """
    c = Fraction(c)
    F = prec_bits + 64
    # v may be just above a root, in (-h, 0)
    ys = sorted(math.isqrt(max(-V, 0) << F) for S in layers for V in _negative_roots(S, prec_bits))
    ys = [Fraction(y, 1 << F) for y in ys]
    return [(c, -y) for y in reversed(ys)] + [(c, Fraction(0))] * offset + [(c, y) for y in ys]


def roots_json(roots) -> list:
    """The (re, im) pairs of critical_line_roots as correctly rounded doubles."""
    return [{"re": float(re), "im": float(im)} for re, im in roots]
