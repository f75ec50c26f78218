"""Dense univariate polynomials with exact rational coefficients, and exact
row reduction.

Coefficients are stored constant-first, so ``coeffs[i]`` is the coefficient
of ``z**i``.  The zero polynomial has an empty coefficient tuple and degree -1.
All values are immutable; every operation returns a new polynomial.
A coefficient is an ``int`` when integral and a ``Fraction`` otherwise;
``_exact`` enforces this and ``_quo`` does every exact division.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def _exact(c):
    """c as an int when it is integral, else as a Fraction; anything that is
    not an exact rational (float, complex, mpmath) raises TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"inexact coefficient {c!r}; use int or Fraction")


def _quo(a, b):
    """The exact quotient a / b of two rationals."""
    return _exact(Fraction(a, b))


def rational_to_str(x) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(_exact(x))


def rref(rows: Sequence[Sequence]) -> tuple[list, list]:
    """Reduced row echelon form over Q by Gauss-Jordan elimination.

    Returns the nonzero reduced rows, each with a 1 in its pivot column and
    zeros in the other pivot columns, and the list of pivot columns.
    """
    mat = [[_exact(v) for v in row] for row in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        pick = next((r for r in range(top, len(mat)) if mat[r][col] != 0), None)
        if pick is None:
            continue
        mat[top], mat[pick] = mat[pick], mat[top]
        lead = mat[top][col]
        prow = mat[top] = [_quo(v, lead) for v in mat[top]]
        for r, row in enumerate(mat):
            fac = row[col]
            if r != top and fac != 0:
                mat[r] = [_exact(v - fac * p) for v, p in zip(row, prow)]
        pivots.append(col)
    return mat[: len(pivots)], pivots


class RatPoly:
    """Immutable dense polynomial over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, n: int, c=1) -> "RatPoly":
        if n < 0:
            raise ValueError("negative exponent")
        return cls((0,) * n + (c,))

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "RatPoly":
        return cls(Fraction(s) for s in strings)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff_strings(self) -> list:
        return [rational_to_str(c) for c in self.coeffs]

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "RatPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        return "RatPoly(" + " + ".join(terms) + ")"

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "RatPoly":
        return RatPoly(-c for c in self.coeffs)

    def __add__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly(c * other for c in self.coeffs)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return RatPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative power")
        result = RatPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple:
        other = _coerce(other)
        if other is None or other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = other.degree
        lead = other.coeffs[-1]
        if len(rem) <= dq:
            return RatPoly.zero(), self
        quot = [0] * (len(rem) - dq)
        for i in range(len(rem) - dq - 1, -1, -1):
            c = _quo(rem[i + dq], lead)
            quot[i] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return RatPoly(quot), RatPoly(rem)

    def __floordiv__(self, other) -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "RatPoly":
        return divmod(self, other)[1]

    # -- calculus & composition --------------------------------------

    def derivative(self) -> "RatPoly":
        return RatPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def compose(self, other: "RatPoly") -> "RatPoly":
        """Return self(other(z))."""
        other = _coerce(other)
        result = RatPoly.zero()
        for c in reversed(self.coeffs):
            result = result * other + RatPoly((c,))
        return result

    def __call__(self, x):
        """Evaluate by Horner: exactly at an int or Fraction, and in the
        numeric type of x for float, complex or mpmath."""
        result = 0 * x
        if isinstance(x, (int, Fraction)):
            for c in reversed(self.coeffs):
                result = result * x + c
            return _exact(result)
        for c in reversed(self.coeffs):
            result = result * x + _num(c, x)
        return result

    # -- gcd machinery ------------------------------------------------

    def monic(self) -> "RatPoly":
        if self.is_zero():
            return self
        return self * _quo(1, self.leading())

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic gcd by the Euclidean algorithm over Q."""
        a, b = self, _coerce(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def squarefree_part(self) -> "RatPoly":
        """self / gcd(self, self'), same root set without multiplicities."""
        if self.is_zero():
            raise ValueError("squarefree part of the zero polynomial")
        g = self.gcd(self.derivative())
        return self // g

    def primitive_integer(self) -> "RatPoly":
        """Scale to integer coefficients with content 1 and positive leading."""
        if self.is_zero():
            return self
        denom = lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (denom // c.denominator) for c in self.coeffs]
        content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
        return RatPoly(c // content for c in ints)

    def reversed_coeffs(self) -> "RatPoly":
        """z^deg * self(1/z)."""
        return RatPoly(reversed(self.coeffs))


def _coerce(v) -> RatPoly:
    if isinstance(v, RatPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return RatPoly((v,))
    return None


def _num(c, like):
    # convert an exact rational to the numeric type of `like` without
    # an intermediate float
    return (0 * like + c.numerator) / c.denominator


def is_self_inversive(p: RatPoly) -> bool:
    """True iff p(1/z) * z^deg(p) == p(z)."""
    return bool(p) and p.coeffs == tuple(reversed(p.coeffs))
