"""Period-polynomial spaces from the slash-action relations, parity split,
odd period polynomials for one-dimensional weights, and the quotient by the
fixed degree-10 factor z(z^2-4)(z^2-1/4)(z^2-1)^2.
"""

from fractions import Fraction
from math import comb

from . import ONE_DIM_WEIGHTS, UnsupportedWeightError
from .exactcore import RatPoly, _Record, is_self_inversive, rref


class DivisibilityError(ValueError):
    """The odd period polynomial was not divisible by the fixed factor."""


class PeriodSpace(_Record):
    __slots__ = ("w", "parity", "basis")  # parity "all" | "even" | "odd"; basis of RatPoly


class CFIQuotient(_Record):
    __slots__ = ("weight", "e", "U_poly")


def slash_action(r: RatPoly, g: tuple, w: int) -> RatPoly:
    """(r|_w g)(z) = (cz+d)^w r((az+b)/(cz+d)) for the integer matrix
    g = (a, b, c, d) of any nonzero determinant, exact for deg r <= w."""
    if w < 0 or w % 2 != 0:
        raise ValueError("w must be a nonnegative even integer")
    if r.degree > w:
        raise ValueError(f"degree {r.degree} exceeds w = {w}")
    a, b, c, d = g
    if a * d == b * c:
        raise ValueError(f"matrix {g} has determinant 0")
    num = RatPoly((b, a))  # a z + b
    den = RatPoly((d, c))  # c z + d
    num_pows = [RatPoly.one()]
    den_pows = [RatPoly.one()]
    for _ in range(w):
        num_pows.append(num_pows[-1] * num)
        den_pows.append(den_pows[-1] * den)
    out = RatPoly.zero()
    for j, c in enumerate(r.coeffs):
        if c != 0:
            out = out + c * num_pows[j] * den_pows[w - j]
    return out


def _relation_image(j: int, w: int) -> list[int]:
    """Stacked coefficient vector of z^j|_w(1+S) and z^j|_w(1+U+U^2), from
    z^j|S = (-1)^j z^(w-j), z^j|U = z^(w-j) (z-1)^j, z^j|U^2 = (1-z)^(w-j)."""
    rel_s = [0] * (w + 1)
    rel_s[j] += 1
    rel_s[w - j] += (-1) ** j
    rel_u = [(-1) ** i * comb(w - j, i) for i in range(w + 1)]
    rel_u[j] += 1
    for m in range(j + 1):
        rel_u[w - j + m] += (-1) ** (j - m) * comb(j, m)
    return rel_s + rel_u


def _rational_nullspace(rows: list[list], ncols: int) -> list[list]:
    """Basis of the right nullspace, one vector per free column of the
    reduced row echelon form."""
    reduced, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def relations_kernel(w: int, parity: str = "all") -> PeriodSpace:
    """Exact kernel of r -> (r|_w(1+S), r|_w(1+U+U^2)) on the parity-restricted
    monomial span inside polynomials of degree <= w."""
    if w < 2 or w % 2 != 0:
        raise ValueError("w must be an even integer >= 2")
    if parity not in ("all", "even", "odd"):
        raise ValueError("parity must be all, even, or odd")
    exps = range(w + 1) if parity == "all" else range(parity == "odd", w + 1, 2)
    cols = [_relation_image(j, w) for j in exps]
    nrows = 2 * (w + 1)
    rows = [[cols[c][r] for c in range(len(exps))] for r in range(nrows)]
    basis = []
    for vec in _rational_nullspace(rows, len(exps)):
        coeffs = [0] * (w + 1)
        for x, j in zip(vec, exps):
            coeffs[j] = x
        basis.append(RatPoly(coeffs))
    return PeriodSpace(w, parity, tuple(basis))


def odd_period_polynomial(k: int) -> RatPoly:
    """Generator of the odd kernel at w = k-2, scaled to primitive integer
    coefficients with positive leading coefficient (dim S_k = 1 weights only)."""
    if k not in ONE_DIM_WEIGHTS:
        raise UnsupportedWeightError(
            f"weight {k} unsupported: the odd kernel is one-dimensional only "
            f"for weights {ONE_DIM_WEIGHTS}"
        )
    space = relations_kernel(k - 2, "odd")
    if len(space.basis) != 1:
        raise RuntimeError(f"odd kernel at w={k - 2} has dimension {len(space.basis)}")
    return space.basis[0].primitive_integer()


def cfi_divisor() -> RatPoly:
    """z(z^2-4)(z^2-1/4)(z^2-1)^2, expanded exactly."""
    z = RatPoly.x()
    return (
        z
        * (z * z - 4)
        * (z * z - Fraction(1, 4))
        * (z * z - 1) ** 2
    )


def cfi_quotient(rminus: RatPoly, k: int) -> CFIQuotient:
    """Exact quotient U = rminus / [z(z^2-4)(z^2-1/4)(z^2-1)^2].

    Fails with DivisibilityError on nonzero remainder; the result must be
    self-inversive of degree e = k-12.
    """
    w = k - 2
    if k < 12:
        raise ValueError("weight must be >= 12")
    if rminus.degree > w:
        raise ValueError("input degree exceeds w = k-2")
    quot, rem = divmod(rminus, cfi_divisor())
    if not rem.is_zero():
        raise DivisibilityError(
            "input is not divisible by z(z^2-4)(z^2-1/4)(z^2-1)^2; "
            "not an eigenform odd period polynomial"
        )
    e = w - 10
    if quot.degree != e:
        raise RuntimeError(f"quotient degree {quot.degree} != expected {e}")
    if not is_self_inversive(quot):
        raise RuntimeError("quotient is not self-inversive")
    return CFIQuotient(weight=k, e=e, U_poly=quot)


def periods_json_dict(k: int) -> dict:
    """JSON payload {weight, w, e, r_minus, U} with rational-string coefficients."""
    rminus = odd_period_polynomial(k)
    q = cfi_quotient(rminus, k)
    return {
        "weight": k,
        "w": k - 2,
        "e": q.e,
        "r_minus": rminus.coeff_strings(),
        "U": q.U_poly.coeff_strings(),
    }
