"""Exact Sturm-sequence certificates for unit-circle and critical-line zero
claims, plus floating-point root extraction for reports.  mpmath and cmath
are imported only by the functions that compute floating-point roots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .exactcore import RatPoly, _Record, chebyshev_T, is_self_inversive


class SymmetryError(ValueError):
    pass


class RootConvergenceError(RuntimeError):
    def __init__(self, message, roots):
        super().__init__(message)
        self.roots = roots


class Certificate(_Record):
    """A "unit_circle" or "critical_line" verdict.  For critical_line only, and
    not in the JSON, ==, hash or repr: Q(c + u) = u^offset A(u^2), and the
    squarefree layers of A that the count peeled."""

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
        s = 1 if q.leading() > 0 else -1
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


def chebyshev_basis_decompose(U: RatPoly) -> RatPoly:
    """The unique V with z^(-e/2) U(z) = V(z + 1/z), for self-inversive U of
    even degree e, via the basis z^j + z^(-j) = T_j(z + 1/z)."""
    e = U.degree
    half = e // 2
    V = RatPoly((U[half],))
    for j in range(1, half + 1):
        V = V + U[half + j] * chebyshev_T(j)
    # reconstruction guard: z^half V((z^2+1)/z) must recover U exactly
    rec = RatPoly.zero()
    zsq1 = RatPoly((1, 0, 1))
    for i, v in enumerate(V.coeffs):
        rec = rec + v * zsq1**i * RatPoly.monomial(half - i)
    if rec != U:
        raise RuntimeError("Chebyshev-basis expansion failed to reconstruct input")
    return V


def unit_circle_certify(U: RatPoly) -> Certificate:
    """Certify that all complex zeros of a self-inversive U lie on the unit
    circle and none is real: V (with U = z^(e/2) V(z+1/z)) must be squarefree
    with exactly e/2 real roots strictly inside (-2, 2)."""
    if U.is_zero():
        raise ValueError("zero polynomial")
    e = U.degree
    if e % 2 != 0:
        raise ValueError("degree must be even")
    if not is_self_inversive(U):
        raise ValueError("U must be self-inversive: U(1/z) z^e == U(z)")
    half = e // 2
    if e == 0:
        return Certificate("unit_circle", True, 0, 0, "constant, trivially certified")
    V = chebyshev_basis_decompose(U)
    sf = V.squarefree_part()
    squarefree = sf.degree == V.degree
    count = _sturm_count_squarefree(sf, -2, 2)
    if V(2) == 0:
        count -= 1
    endpoints_clear = V(2) != 0 and V(-2) != 0
    passed = squarefree and endpoints_clear and count == half
    return Certificate(
        kind="unit_circle",
        passed=passed,
        counted_roots=count,
        expected_roots=half,
        witness=f"V(t), deg {half}",
    )


def _squarefree_layers(A: RatPoly):
    """Peel A into squarefree layers: layer j holds, once each, the roots of
    multiplicity >= j, so a root lies in as many layers as its multiplicity."""
    B = A
    while B.degree > 0:
        sf = B.squarefree_part()
        yield sf
        B = B // sf


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
    R = Q.compose(RatPoly((c, 1)))
    # R(-u) = sign * R(u) exactly when R has no terms of the other parity
    offset = 0 if sign == 1 else 1
    for i in range(1 - offset, R.degree + 1, 2):
        if R[i] != 0:
            raise SymmetryError(f"Q(2c - x) != {sign:+d} Q(x) at c = {c}")
    A = RatPoly(R[2 * i + offset] for i in range((R.degree - offset) // 2 + 1))
    # reconstruction guard: spreading A back out must give R
    rec = [0] * (offset + 2 * len(A.coeffs))
    rec[offset::2] = A.coeffs
    if RatPoly(rec) != R:
        raise RuntimeError("even/odd decomposition failed to reconstruct input")
    # A's roots, each counted once per layer it lies in, i.e. by multiplicity
    layers = tuple(_squarefree_layers(A))
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
    """The Aberth sweep of roots_numeric in complex doubles from `start`, to
    a relative step of 1e-14.  None when the doubles cannot carry it: a
    coefficient or a modulus out of double range, a division by zero, or a
    non-finite or repeated point."""
    import cmath

    from mpmath import mpc

    c = [complex(x) for x in coeffs]
    if any(not cmath.isfinite(x) or (x == 0) != (y == 0) for x, y in zip(c, coeffs)):
        return None
    zs = [complex(z) for z in start]
    try:
        _aberth(c, [i * x for i, x in enumerate(c)][1:], zs, 1e-14)
    except (ZeroDivisionError, OverflowError):  # abs() overflows past 1.8e308
        return None
    if not all(map(cmath.isfinite, zs)) or len(set(zs)) < len(zs):
        return None
    return [mpc(z) for z in zs]


def _start_points(coeffs) -> List:
    """Aberth start points from the Newton polygon (Bini 1996): for each edge
    (i, j) of the upper convex hull of the points (i, log|c_i|), j - i points
    spread round the circle of radius |c_i / c_j|^(1/(j - i)), where the
    polynomial has j - i roots of about that modulus.  The first and last
    coefficients must be nonzero."""
    from mpmath import mp, mpf

    with mp.workprec(53):  # start points need no more than double precision
        hull = []  # vertices (i, log|c_i|), left to right
        for j, c in enumerate(coeffs):
            if abs(c) == 0:
                continue
            y = mp.log(abs(c))
            while len(hull) > 1:  # drop the last vertex while it is on or below the chord
                (i0, y0), (i1, y1) = hull[-2:]
                if (y1 - y0) * (j - i0) > (y - y0) * (i1 - i0):
                    break
                hull.pop()
            hull.append((j, y))
        zs = []
        for (i, log_i), (j, log_j) in zip(hull, hull[1:]):
            radius = mp.exp((log_i - log_j) / (j - i))
            zs += [
                radius * mp.expj(2 * mp.pi * (k - i + mpf("0.25")) / (j - i) + mpf("0.003") * k)
                for k in range(i, j)
            ]
    return zs


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
            zs = _start_points(coeffs)
            zs = _double_seeds(coeffs, zs) or zs
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


def _dyadic_sign(a, x: Fraction) -> int:
    """Sign of the integer polynomial a (constant first) at the dyadic
    x = n / 2^s, by Horner on 2^(s deg a) a(x): integers only."""
    n, s = x.numerator, x.denominator.bit_length() - 1
    acc = 0
    for k, c in enumerate(reversed(a)):
        acc = acc * n + (c << (s * k))
    return (acc > 0) - (acc < 0)


def _negative_roots(S: RatPoly, prec_bits: int) -> List:
    """The roots of a squarefree S, each with a witness that it is real and
    < 0, at the working precision of the caller; raises RuntimeError when a
    witness fails.

    Seeds come from the Aberth sweep in doubles, or at working precision
    when S is out of double range.  Each is polished by real Newton steps
    until a step is at most 2^-(prec_bits+8) max(1, |v|), then boxed in
    (v - h, min(v + h, 0)) with h = 2^-(prec_bits+4) max(1, |v|).  The ends
    are dyadic, and S must change sign across every box, evaluated
    exactly on the integer multiple of S.  deg S pairwise disjoint boxes then
    hold deg S distinct roots, which are all the roots of S.
    """
    from mpmath import mp, mpf
    from mpmath.libmp import to_rational

    roots = []
    if S[0] == 0:  # a squarefree layer has 0 as a root at most once
        roots.append(mpf(0))
        S = RatPoly(S.coeffs[1:])
    if S.degree <= 0:
        return roots
    coeffs = _as_mpc_coeffs(S)
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    start = _start_points(coeffs)
    zs = _double_seeds(coeffs, start)
    if zs is None:  # out of double range: run the sweep at working precision
        zs = start
        _aberth(coeffs, deriv, zs, mpf(2) ** -53)
    ints = S.primitive_integer().coeffs
    tol, box = mpf(2) ** -(prec_bits + 8), mpf(2) ** -(prec_bits + 4)
    boxes = []
    for z in zs:
        v = z.real
        for _ in range(64):  # a few steps from a double seed; the cap stops a divergent one
            dv = _poly_eval(deriv, v)
            if dv == 0:
                break
            step = _poly_eval(coeffs, v) / dv
            v -= step
            if abs(step) <= tol * max(1, abs(v)):
                break
        h = box * max(1, abs(v))
        lo, hi = (Fraction(*to_rational(x._mpf_)) for x in (v - h, v + h))
        hi = min(hi, 0)
        if not (lo < hi and _dyadic_sign(ints, lo) * _dyadic_sign(ints, hi) < 0):
            raise RuntimeError(
                f"sign test fails: A has no certified negative root near {mp.nstr(v, 12)}"
            )
        boxes.append((lo, hi, v))
    boxes.sort(key=lambda b: b[0])
    for left, right in zip(boxes, boxes[1:]):
        if left[1] >= right[0]:
            raise RuntimeError(
                f"sign test fails: boxes around roots {mp.nstr(left[2], 12)} and "
                f"{mp.nstr(right[2], 12)} of A overlap"
            )
    return roots + [v for _, _, v in boxes]


def critical_line_roots(layers, c, prec_bits: int = 128, offset: int = 0) -> List:
    """All zeros of the Q with Q(c + u) = u^offset A(u^2), as
    c +- i sqrt(-v) over the roots v of A, in ascending imaginary part, each
    repeated by its multiplicity.  layers are the squarefree layers of A
    that critical_line_certify peeled (a root lies in as many layers as its
    multiplicity), as its Certificate keeps them.

    Each layer is solved in real arithmetic (see _negative_roots), at most
    half the degree of Q, so every root carries an integer sign-change
    witness at about prec_bits.  A failed witness raises RuntimeError; there
    is no fallback to a complex solve.
    """
    from mpmath import mp, mpc, mpf

    c = Fraction(c)
    with mp.workprec(prec_bits + 64):
        vs = [v for S in layers for v in _negative_roots(S, prec_bits)]
        ys = sorted(mp.sqrt(max(-v, 0)) for v in vs)  # v may be just above a root in (-h, 0)
        cm = mpf(c.numerator) / c.denominator
        return (
            [mpc(cm, -y) for y in reversed(ys)]
            + [mpc(cm)] * offset
            + [mpc(cm, y) for y in ys]
        )


def roots_json(roots) -> list:
    return [{"re": float(z.real), "im": float(z.imag)} for z in roots]
