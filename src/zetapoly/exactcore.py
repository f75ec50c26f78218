"""Dense univariate polynomials with exact rational coefficients, and exact
row reduction.

A polynomial is an integer polynomial over one common denominator, as in
FLINT's ``fmpq_poly``: ``num`` is a tuple of ints, constant first and with no
trailing zero, and ``den`` an int >= 1 prime to every entry of ``num``, so
the coefficient of ``z**i`` is ``num[i] / den``.  The zero polynomial has
``num == ()``, ``den == 1`` and degree -1, and a polynomial is integral
exactly when ``den == 1``.  ``coeffs`` reads the coefficients back, an
``int`` where integral and a ``Fraction`` elsewhere.  All values are
immutable; ``_poly`` builds every result.

Every product of numerators goes through ``_mul``, the one integer product
path: Kronecker substitution (``_kronecker_mul``) when both are long, and
schoolbook otherwise.  A product multiplies the numerators by it and the
denominators; a power is square-and-multiply on the numerator by it, over
den^n.  A division is Knuth's pseudo-division (TAOCP vol. 2, 4.6.1,
Algorithm R): the dividend's numerator times |lead|^(deg a - deg b + 1),
with lead the divisor's leading numerator, makes every quotient step an
exact integer division.  Evaluation is exact only: a polynomial is called at
an int or Fraction p/q by Horner's scheme in integers, and a float, complex
or mpmath point raises TypeError, as every other operation does with an
inexact operand.  Composition with a constant is evaluation, with a linear
polynomial one Taylor shift in integers (``_linear_compose``), and with any
other B / db Horner's scheme on the numerators, one ``_mul`` per step, over
den db^n.

This is the one module every command loads, so it also holds the few names
that several others share: the supported weights and
``UnsupportedWeightError``, and nothing that only one other module uses.
"""

import operator
import sys
from array import array
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

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
        prow = mat[top] = [_exact(Fraction(v, lead)) for v in mat[top]]
        for r, row in enumerate(mat):
            fac = row[col]
            if r != top and fac != 0:
                mat[r] = [_exact(v - fac * p) for v, p in zip(row, prow)]
        pivots.append(col)
    return mat[: len(pivots)], pivots


class RatPoly:
    """Immutable dense polynomial over Q: num / den (see the module docstring)."""

    __slots__ = ("num", "den")

    def __new__(cls, coeffs: Iterable = ()):
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs if type(c) is not int))
        if den != 1:
            cs = [c.numerator * (den // c.denominator) for c in cs]
        return _poly(cs, den)

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        return RatPoly, (self.coeffs,)

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

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients, constant first: ints where integral, Fractions
        elsewhere; num itself when den == 1."""
        den = self.den
        if den == 1:
            return self.num
        return tuple(_ratio(c, den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __getitem__(self, i: int):
        if 0 <= i < len(self.num):
            return _ratio(self.num[i], self.den)
        return 0

    def coeff_strings(self) -> list:
        return [str(c) for c in self.coeffs]

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its value, so it hashes as that value
        return hash(self[0]) if len(self.num) < 2 else hash((self.num, self.den))

    def __repr__(self):
        if not self.num:
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
        return _poly([-c for c in self.num], self.den)

    def __add__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self.num, other.num, self.den
        if other.den != den:
            den = lcm(den, other.den)
            a = [c * (den // self.den) for c in a]
            b = [c * (den // other.den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, den)

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
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _poly(_mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        return _poly(_power(self.num, n, [1], _mul), self.den**n)

    def __divmod__(self, other) -> tuple:
        """Pseudo-division: with a = A / da, b = B / db and s = |lead B|^(deg a
        - deg b + 1), s A = Q B + R in integers, so a = (Q db / (s da)) b +
        R / (s da)."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        a, b = self.num, other.num
        if len(a) < len(b):
            return RatPoly.zero(), self
        s = abs(b[-1]) ** (len(a) - len(b) + 1)
        rem = [c * s for c in a] if s != 1 else list(a)
        quot = [c * other.den for c in _schoolbook_divmod(rem, b)]
        return _poly(quot, s * self.den), _poly(rem, s * self.den)

    def __floordiv__(self, other) -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "RatPoly":
        return divmod(self, other)[1]

    # -- calculus & composition --------------------------------------

    def derivative(self) -> "RatPoly":
        return _poly([i * c for i, c in enumerate(self.num)][1:], self.den)

    def compose(self, other: "RatPoly") -> "RatPoly":
        """Return self(other(z)) for a RatPoly, int or Fraction other.  A
        constant other is evaluated exactly by __call__, a linear one is one
        Taylor shift, and any other B / db goes by Horner in integers,
        acc <- acc B + num_i db^(n-i), over den db^n: __call__'s Horner with a
        polynomial in place of p.  An inexact other raises TypeError."""
        other = other if isinstance(other, RatPoly) else RatPoly((other,))
        if other.degree < 1:
            return RatPoly((self(other[0]),))
        if self.degree < 1:
            return self
        if other.degree == 1:
            return _linear_compose(self.num, self.den, other)
        b, db = other.num, other.den
        acc, scale = [self.num[-1]], 1
        for c in reversed(self.num[:-1]):
            scale *= db
            acc = _mul(acc, b)
            acc[0] += c * scale
        return _poly(acc, self.den * scale)  # scale = db^n

    def __call__(self, x):
        """The exact value at an int or Fraction x = p/q, by Horner in
        integers: sum_i num_i p^i q^(n-i) over q^n den.  Any other x (float,
        complex, mpmath) raises TypeError, as in every other operation."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"inexact point {x!r}; use int or Fraction")
        p, q = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.num):
            acc = acc * p + (c if q == 1 else c * scale)
            scale *= q
        return _ratio(acc * q, scale * self.den)  # scale = q^(n+1)

    # -- gcd machinery ------------------------------------------------

    def monic(self) -> "RatPoly":
        if self.is_zero():
            return self
        return self * Fraction(self.den, self.num[-1])

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic gcd by the heuristic gcd of Char, Geddes and Gonnet (J. Symb.
        Comput. 7, 1989), on the primitive integer parts a and b.  At
        xi = 2^(8 width), wide enough for _pack to hold every coefficient and
        so xi >= 2 min(|a|, |b|) + 2 in max norm, G = gcd(a(xi), b(xi)) is
        read back as signed digits (G <= |a(xi)|, |b(xi)|, so it fits in the
        shorter's length), and h is their primitive part.  By their theorem
        an h that divides both a and b is their gcd g, so one exact division
        check, in integers since h is primitive (Gauss's lemma), stands in
        for any coefficient bound.  Otherwise the width doubles.  This ends:
        G = k g(xi) with k dividing Res(a/g, b/g), which does not depend on
        xi, so a wide enough xi reads G back as k g, whose primitive part is
        g."""
        other = other if isinstance(other, RatPoly) else RatPoly((other,))
        a, b = self.primitive_integer().num, other.primitive_integer().num
        if not (a and b):
            return (self if a else other).monic()
        width = (max(map(abs, a + b)).bit_length() + 8) // 8
        while True:
            G = gcd(_pack(a, width), _pack(b, width))
            h = _poly(_unpack(G, width, min(len(a), len(b)))).primitive_integer()
            if all(_mul(_schoolbook_divmod(list(p), h.num), h.num) == list(p) for p in (a, b)):
                return h.monic()
            width *= 2

    def primitive_integer(self) -> "RatPoly":
        """Scale to integer coefficients with content 1 and positive leading."""
        if self.is_zero():
            return self
        content = gcd(*self.num) if self.num[-1] > 0 else -gcd(*self.num)
        return _poly([c // content for c in self.num])

    def reversed_coeffs(self) -> "RatPoly":
        """z^deg * self(1/z)."""
        return _poly(self.num[::-1], self.den)


_new, _set = object.__new__, object.__setattr__


def _poly(num, den: int = 1) -> RatPoly:
    """The polynomial num / den, for a sequence of ints num and an int
    den >= 1: trailing zeros stripped, the fraction in lowest terms."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    num = tuple(num[:n])
    if den != 1 and (g := gcd(den, *num)) != 1:
        num, den = tuple(c // g for c in num), den // g
    p = _new(RatPoly)
    _set(p, "num", num)
    _set(p, "den", den)
    return p


def _ratio(n: int, d: int):
    """n / d for ints n and d >= 1: an int when d divides n, else a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


def _power(base, n: int, one, mul):
    """base ** n by square-and-multiply from the identity one, with the
    product mul; the square after the top bit of n is not made."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


# -- integer kernels -------------------------------------------------

# Products whose shorter operand has at least this many coefficients go by
# Kronecker substitution; below it integer schoolbook is faster.
_KRONECKER_MIN_LEN = 12

# Signed array type codes by item size in bytes: digits of these widths are
# packed and unpacked by the array module instead of one by one.
_ARRAY_CODES = {array(t).itemsize: t for t in "bhiq"}


def _mul(a: Sequence, b: Sequence) -> list:
    """The product of the int coefficient sequences a and b, the one integer
    product path: Kronecker substitution when both are long, schoolbook
    otherwise."""
    if min(len(a), len(b)) >= _KRONECKER_MIN_LEN:
        return _kronecker_mul(a, b)
    return _schoolbook_mul(a, b)


def _schoolbook_mul(a: Sequence, b: Sequence) -> list:
    if len(a) > len(b):  # the shorter outside, so a scalar is one pass over the other
        a, b = b, a
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


def _schoolbook_divmod(rem: list, div: Sequence) -> list:
    """Schoolbook division of the int coefficients rem by div, for a rem that
    pseudo-division has scaled so that div's leading coefficient divides
    every quotient coefficient exactly.  Returns the quotient; rem is left
    holding the remainder."""
    dq = len(div) - 1
    lead = div[-1]
    terms = [(j, b) for j, b in enumerate(div[:-1]) if b]
    quot = [0] * (len(rem) - dq)
    for i in range(len(rem) - dq - 1, -1, -1):
        c = quot[i] = rem[i + dq] // lead
        if c:
            for j, b in terms:
                rem[i + j] -= c * b
    del rem[dq:]
    return quot


def _linear_compose(num: Sequence, den: int, line: RatPoly) -> RatPoly:
    """num(line) / den, for deg num = n >= 1 and line = (al + be z) / m of
    degree 1, by the in-place Taylor shift in integers (Horner's scheme,
    n(n+1)/2 multiply-adds).  m^n num(line) = sum_i c_i (al + be z)^i for the
    integers c_i = num_i m^(n-i): shift c by al, then scale coefficient j by
    be^j; the result is that over den m^n."""
    n = len(num) - 1
    (al, be), m = line.num, line.den
    c = list(num)
    if m != 1:
        for i in range(n - 1, -1, -1):
            c[i] *= m ** (n - i)
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
    return _poly(c, den * m**n)


def _coerce(v) -> RatPoly:
    if isinstance(v, RatPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return RatPoly((v,))
    return None


def is_self_inversive(p: RatPoly) -> bool:
    """True iff p(1/z) * z^deg(p) == p(z)."""
    return bool(p) and p.num == p.num[::-1]

