"""Dense univariate polynomials with exact rational coefficients, and exact
row reduction.

Coefficients are stored constant-first, so ``coeffs[i]`` is the coefficient
of ``z**i``.  The zero polynomial has an empty coefficient tuple and degree -1.
All values are immutable; every operation returns a new polynomial.
A coefficient is an ``int`` when integral and a ``Fraction`` otherwise;
``_exact`` enforces this and ``_quo`` does every exact division.

When every coefficient of both operands is an ``int``, products and
divisions by a divisor with leading coefficient +-1 stay in integers: a
product of two long polynomials is one big-integer product by Kronecker
substitution (``_kronecker_mul``), and the rest is integer schoolbook.
Composition with a linear polynomial is one Taylor shift in integers
(``_linear_compose``), whatever the coefficients.

This is the one module every command loads, so it also holds the few names
that several others share: the supported weights, ``UnsupportedWeightError``
and the Chebyshev polynomials ``chebyshev_T``.
"""

from __future__ import annotations

import operator
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

# weights k with dim S_k = 1 for PSL(2,Z)
ONE_DIM_WEIGHTS = (12, 16, 18, 20, 22, 26)


class UnsupportedWeightError(ValueError):
    pass


def _frozen(self, name, *value):
    """__setattr__ and __delattr__ of the immutable value classes."""
    raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")


class _Record:
    """Base of the immutable value classes.  The fields are the subclass's
    ``__slots__``; a generated ``__init__`` takes them by position or keyword,
    ``_defaults`` for the trailing ones, then calls ``_validate`` if defined.
    Fields in ``_hidden`` stay out of ==, hash and repr; a record equals only its own class."""

    __slots__ = _defaults = _hidden = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
        if hasattr(cls, "_validate"):
            body += "\n    self._validate()"
        scope = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}):{body}", scope)
        init = cls.__init__ = scope["__init__"]
        init.__defaults__ = cls._defaults
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._shown = tuple(name for name in names if name not in cls._hidden)
        cls._key = operator.attrgetter(*cls._shown)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


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
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return RatPoly, (self.coeffs,)

    # -- constructors -------------------------------------------------

    @classmethod
    def _of_ints(cls, cs: list) -> "RatPoly":
        """The polynomial with the int coefficients cs, without re-checking
        their type; cs is consumed."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

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
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly(c * other for c in self.coeffs)
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if min(len(a), len(b)) >= _KRONECKER_MIN_LEN and _all_int(a) and _all_int(b):
            return RatPoly._of_ints(_kronecker_mul(a, b))
        return RatPoly(_schoolbook_mul(a, b))

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
        if len(self.coeffs) <= other.degree:
            return RatPoly.zero(), self
        rem = list(self.coeffs)
        # 1/lead = lead for a lead of +-1, so c * lead is the exact quotient c / lead
        quo = operator.mul if other.coeffs[-1] in (1, -1) else _quo
        quot = _schoolbook_divmod(rem, other.coeffs, quo)
        return RatPoly(quot), RatPoly(rem)

    def __floordiv__(self, other) -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "RatPoly":
        return divmod(self, other)[1]

    # -- calculus & composition --------------------------------------

    def derivative(self) -> "RatPoly":
        return RatPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def compose(self, other: "RatPoly") -> "RatPoly":
        """Return self(other(z)); for a linear other, by one Taylor shift."""
        other = _coerce(other)
        if other.degree == 1:
            return _linear_compose(self.coeffs, *other.coeffs)
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


# -- integer fast paths ---------------------------------------------

# Products whose shorter operand has at least this many coefficients go by
# Kronecker substitution; below it integer schoolbook is faster.
_KRONECKER_MIN_LEN = 12

# Signed array type codes by item size in bytes: digits of these widths are
# packed and unpacked by the array module instead of one by one.
_ARRAY_CODES = {array(t).itemsize: t for t in "bhiq"}


def _all_int(cs) -> bool:
    return all(type(c) is int for c in cs)


def _schoolbook_mul(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _kronecker_mul(a: Sequence, b: Sequence) -> list:
    """Kronecker substitution: a(2^w) * b(2^w) as one big-integer product,
    read back digit by digit.  Every product coefficient is at most
    max|a| * max|b| * min(len) in absolute value, so a signed digit of w bits
    (w a multiple of 8) above that bound holds it without overlap."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8  # bytes
    width = next((w for w in _ARRAY_CODES if w >= width), width)
    x = _pack(a, width)
    y = x if a is b else _pack(b, width)
    return _unpack(x * y, width, len(a) + len(b) - 1)


def _sign_bits(width: int, n: int) -> int:
    """The integer with only the top bit of each of n digits of width bytes
    set.  Adding it to a packed value makes every signed digit d into
    d + 2^(8 width - 1) >= 0 with no carry between digits; XOR with it then
    turns that into the two's-complement bits of d."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(cs: Sequence, width: int) -> int:
    """sum_i cs[i] * 2^(8 width i) for ints with |cs[i]| < 2^(8 width - 1)."""
    code = _ARRAY_CODES.get(width)
    if code:
        digits = array(code, cs)
        if sys.byteorder == "big":
            digits.byteswap()
        raw = digits.tobytes()
    else:
        raw = b"".join(c.to_bytes(width, "little", signed=True) for c in cs)
    top = _sign_bits(width, len(cs))
    return (int.from_bytes(raw, "little") ^ top) - top


def _unpack(v: int, width: int, n: int) -> list:
    """The n signed digits of width bytes of v, the inverse of _pack."""
    top = _sign_bits(width, n)
    raw = ((v + top) ^ top).to_bytes(width * n, "little")
    code = _ARRAY_CODES.get(width)
    if code:
        digits = array(code, raw)
        if sys.byteorder == "big":
            digits.byteswap()
        return digits.tolist()
    return [int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, len(raw), width)]


def _schoolbook_divmod(rem: list, div: Sequence, quo) -> list:
    """Schoolbook division of the coefficients rem by div, whose leading
    coefficient is lead; quo(c, lead) gives each quotient coefficient.
    Returns the quotient; rem is left holding the remainder."""
    dq = len(div) - 1
    lead = div[-1]
    terms = [(j, b) for j, b in enumerate(div[:-1]) if b]
    quot = [0] * (len(rem) - dq)
    for i in range(len(rem) - dq - 1, -1, -1):
        c = quot[i] = quo(rem[i + dq], lead)
        if c:
            for j, b in terms:
                rem[i + j] -= c * b
    del rem[dq:]
    return quot


def _linear_compose(p: Sequence, a, b) -> RatPoly:
    """p(a + b z) by the in-place Taylor shift in integers (Horner's scheme,
    n(n+1)/2 multiply-adds for n = deg p).  With m the common denominator of
    a and b, and den that of p, den m^n p(a + b z) = sum_i c_i (al + be z)^i
    for the integers c_i = den p_i m^(n-i), al = m a and be = m b: shift c by
    al, then scale coefficient j by be^j / (den m^n)."""
    n = len(p) - 1
    a, b = Fraction(a), Fraction(b)
    m = lcm(a.denominator, b.denominator)
    al, be = a.numerator * (m // a.denominator), b.numerator * (m // b.denominator)
    den = lcm(*(c.denominator for c in p))
    c = [x.numerator * (den // x.denominator) for x in p]
    if m != 1:
        for i in range(n - 1, -1, -1):
            c[i] *= m ** (n - i)
        den *= m**n
    if al:
        for i in range(n):
            acc = c[n]
            for j in range(n - 1, i - 1, -1):
                acc = c[j] = c[j] + al * acc
    if be != 1:
        scale = 1
        for j in range(1, n + 1):
            scale *= be
            c[j] *= scale
    if den == 1:
        return RatPoly._of_ints(c)
    return RatPoly(Fraction(x, den) for x in c)


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


@lru_cache(maxsize=None)
def chebyshev_T(k: int) -> RatPoly:
    """Monic (k >= 1) integer polynomial with T_k(q + 1/q) = q^k + q^(-k):
    T_0 = 2, T_1 = r, T_{k+1} = r T_k - T_{k-1}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return RatPoly((2,))
    if k == 1:
        return RatPoly.x()
    return RatPoly.x() * chebyshev_T(k - 1) - chebyshev_T(k - 2)
