"""The one integer product path of the package: the product of two int
coefficient sequences, constant first, by Kronecker substitution when both
are long and by schoolbook otherwise.  ``exactcore`` multiplies polynomial
numerators by it, ``habiro`` residues mod p and ``lvalues`` q-expansions,
and ``exactcore``'s gcd packs and unpacks by ``_pack`` and ``_unpack``.

It imports only ``array``, ``sys`` and ``collections.abc``, so a job that
needs products and no rational arithmetic, such as ``lfun``, loads no
``exactcore``.
"""

import sys
from array import array
from collections.abc import Sequence

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
