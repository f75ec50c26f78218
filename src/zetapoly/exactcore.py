"""Dense univariate polynomials with exact rational coefficients.

A polynomial is an integer polynomial over one common denominator, as in
FLINT's ``fmpq_poly``: ``num`` is a tuple of ints, constant first and with no
trailing zero, and ``den`` an int >= 1 prime to every entry of ``num``, so
the coefficient of ``z**i`` is ``num[i] / den``.  The zero polynomial has
``num == ()``, ``den == 1`` and degree -1, and a polynomial is integral
exactly when ``den == 1``.  ``coeffs`` reads the coefficients back, an
``int`` where integral and a ``Fraction`` elsewhere; ``coeff_strings``
writes them as ``str(Fraction)`` does, from num and den (``_ratio_str``).
All values are immutable; ``_poly`` builds every result.

Every product of numerators goes through ``intmul._mul``, the one integer
product path of the package.  A product multiplies the numerators by it and
the denominators; a power is square-and-multiply on the numerator by it,
over den^n (``_power``, which ``habiro`` shares).  A division is Knuth's
pseudo-division (TAOCP vol. 2, 4.6.1, Algorithm R): the dividend's numerator
times |lead|^(deg a - deg b + 1), with lead the divisor's leading numerator,
makes every quotient step an exact integer division.  Evaluation is exact
only: a polynomial is called at an int or Fraction p/q by Horner's scheme in
integers, and a float, complex or mpmath point raises TypeError, as every
other operation does with an inexact operand.  Composition with a constant
is evaluation, with a linear polynomial one Taylor shift in integers
(``_linear_compose``), and with any other B / db Horner's scheme on the
numerators, one ``_mul`` per step, over den db^n.

Every command but ``lfun`` loads this module.  The names that several
modules share, the supported weights and ``UnsupportedWeightError``, live in
the package root, and a name that only one other module uses lives in that
module: Gauss-Jordan over Q, ``rref``, lives in ``modforms``, whose
`cuspform_basis` is its one caller.  It imports ``fractions`` only inside a
function that makes a Fraction, once per call, and tells a Fraction it is
given by the class of the loaded module (``_is_fraction``).  So past the
interpreter's start-up a job whose numbers are all ints loads ``json`` and
``array`` only, and not ``fractions`` or the ``decimal`` and ``numbers``
that it imports: every command but ``rv``, which makes its record's critical
line a Fraction.
"""

import operator
import sys
from collections.abc import Iterable, Sequence
from math import gcd, lcm

from .intmul import _mul, _pack, _unpack


def _frozen(self, name, *value):
    """__setattr__ and __delattr__ of the immutable value classes."""
    raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")


class _Record:
    """Base of the immutable value classes.  The fields are the subclass's
    ``__slots__``; a generated ``__init__`` takes every one of them, by
    position or keyword, then calls ``_validate`` if defined.
    Fields in ``_hidden`` stay out of ==, hash and repr; a record equals only its own class."""

    __slots__ = _hidden = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
        if hasattr(cls, "_validate"):
            body += "\n    self._validate()"
        scope = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}):{body}", scope)
        init = cls.__init__ = scope["__init__"]
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


def _is_fraction(c) -> bool:
    """Whether c is a Fraction, told without importing fractions: while no
    code has imported that module, no Fraction exists."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(c, fractions.Fraction)


def _exact(c):
    """c as an int when it is integral, else as a Fraction; anything that is
    not an exact rational (float, complex, mpmath) raises TypeError."""
    if type(c) is int:
        return c
    if _is_fraction(c):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"inexact coefficient {c!r}; use int or Fraction")


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
        from fractions import Fraction  # den > 1 in lowest terms: some c is not a multiple

        return tuple(c // den if c % den == 0 else Fraction(c, den) for c in self.num)

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
        """str of each coefficient, as str(Fraction) writes it."""
        return [_ratio_str(c, self.den) for c in self.num]

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
        if not (isinstance(x, int) or _is_fraction(x)):
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
        lead = self.num[-1]  # num / den times den / lead
        return _poly(self.num, lead) if lead > 0 else _poly([-c for c in self.num], -lead)

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
    if n % d == 0:
        return n // d
    from fractions import Fraction

    return Fraction(n, d)


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for ints n and d >= 1, without making one: n/d in
    lowest terms, or the int alone when the denominator is 1."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


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
    if isinstance(v, int) or _is_fraction(v):
        return RatPoly((v,))
    return None


def is_self_inversive(p: RatPoly) -> bool:
    """True iff p(1/z) * z^deg(p) == p(z)."""
    return bool(p) and p.num == p.num[::-1]

