"""Period-polynomial spaces from the slash-action relations, parity split,
odd period polynomials for one-dimensional weights, and the quotient by the
fixed degree-10 factor z(z^2-4)(z^2-1/4)(z^2-1)^2.

Everything here is computed in integers: the kernel of the relations by
fraction-free elimination, the fixed factor as an integer polynomial over 4.
"""

from math import comb

from . import ONE_DIM_WEIGHTS, UnsupportedWeightError
from .exactcore import RatPoly, _poly, _Record, is_self_inversive


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
    for j, c in enumerate(r.num):
        if c != 0:
            out = out + c * num_pows[j] * den_pows[w - j]
    return _poly(out.num, r.den)


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


def _integer_nullspace(rows: list, ncols: int) -> tuple:
    """(D, vectors), the vectors / D the basis of the right nullspace of the
    integer rows that reduced row echelon form gives: one vector per free
    column, D in that column and 0 in the other free ones.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968):
    each step takes row <- (p row - row[col] prow) / prev, with p the new
    pivot and prev the one before, a division that Sylvester's identity
    makes exact, on every row but the pivot row.  So at the end every pivot
    row holds the last pivot D in its pivot column and 0 in the others: it
    is D times its reduced row.  A row equal to another up to sign, or zero,
    spans nothing more and is dropped first, as are rows that become zero."""
    todo = list({max(row, tuple(-v for v in row)): None for row in map(tuple, rows) if any(row)})
    done, pivots, prev = [], [], 1
    for col in range(ncols):
        found = [row for row in todo if row[col]]
        if not found:
            continue
        prow = min(found, key=lambda row: abs(row[col]))  # the smallest pivot keeps the entries small
        p = prow[col]

        def step(row):
            f = row[col]
            if f:
                return [(p * a - f * b) // prev for a, b in zip(row, prow)]
            return [p * a // prev for a in row]

        todo = [row for row in map(step, (row for row in todo if row is not prow)) if any(row)]
        done = [*map(step, done), prow]
        pivots.append(col)
        prev = p
    D = abs(prev)
    sign = 1 if prev > 0 else -1
    vectors = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = D
        for row, pc in zip(done, pivots):
            vec[pc] = -sign * row[fc]
        vectors.append(vec)
    return D, vectors


def relations_kernel(w: int, parity: str = "all") -> PeriodSpace:
    """Exact kernel of r -> (r|_w(1+S), r|_w(1+U+U^2)) on the parity-restricted
    monomial span inside polynomials of degree <= w."""
    if w < 2 or w % 2 != 0:
        raise ValueError("w must be an even integer >= 2")
    if parity not in ("all", "even", "odd"):
        raise ValueError("parity must be all, even, or odd")
    exps = range(w + 1) if parity == "all" else range(parity == "odd", w + 1, 2)
    cols = [_relation_image(j, w) for j in exps]
    D, vectors = _integer_nullspace(zip(*cols), len(exps))
    basis = []
    for vec in vectors:
        num = [0] * (w + 1)
        for x, j in zip(vec, exps):
            num[j] = x
        basis.append(_poly(num, D))
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
    """z(z^2-4)(z^2-1/4)(z^2-1)^2, expanded exactly: the integer
    z(z^2-4)(4z^2-1)(z^2-1)^2 over 4."""
    return _poly((0, 4, 0, -25, 0, 42, 0, -25, 0, 4), 4)


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
