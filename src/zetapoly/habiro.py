"""Truncated Habiro-ring arithmetic modulo (q)_N = (1-q)(1-q^2)...(1-q^N),
evaluation at roots of unity in cyclotomic integer rings, and the toric and
Chebyshev systems of commuting Frobenius lifts.
"""

import random
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add, mul, sub

from .exactcore import RatPoly, _mul, _poly, _power, _Record


class LevelError(ValueError):
    pass


# ---------------------------------------------------------------------
# cyclotomic machinery
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> RatPoly:
    """The m-th cyclotomic polynomial, by exact division of x^m - 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return RatPoly((-1, 1))
    num = RatPoly.monomial(m) - 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = divmod(num, cyclotomic_poly(d))
            if not rem.is_zero():
                raise RuntimeError(f"Phi_{d} does not divide x^{m} - 1")
    return num


class CycloInt(_Record):
    """Element of Z[x]/Phi_m(x): the value of a Habiro element at a primitive
    m-th root of unity.  coords are ints, degree < phi(m), trailing zeros
    stripped."""

    __slots__ = ("conductor", "coords")

    @classmethod
    def from_poly(cls, m: int, poly: RatPoly) -> "CycloInt":
        red = poly % cyclotomic_poly(m)
        if red.den != 1:
            raise ValueError("non-integer coordinate")
        return cls(conductor=m, coords=red.num)

    def involution(self) -> "CycloInt":
        """Image under zeta -> zeta^(-1), i.e. x -> x^(m-1) mod Phi_m."""
        m = self.conductor
        if m == 1:
            return self
        image = _substitute_power(RatPoly(self.coords), m - 1)
        return CycloInt.from_poly(m, image)

    def to_json_dict(self) -> dict:
        return {"conductor": self.conductor, "coords": list(self.coords)}


# ---------------------------------------------------------------------
# truncated Habiro elements
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def qpochhammer(n: int) -> RatPoly:
    """(q)_n = (1-q)(1-q^2)...(1-q^n), with no recursion: each factor
    1 - q^j is one shifted subtraction c <- c - q^j c on the integer list,
    and only the last list is kept, so (q)_n takes O(n^2) memory.  The
    lru_cache is kept for its statistics, which bench/tracer.py reads."""
    if n < 0:
        raise ValueError("n must be >= 0")
    c = [1]
    for j in range(1, n + 1):
        c = list(map(sub, c + [0] * j, [0] * j + c))
    return _poly(c)


def _reduce(poly: RatPoly, n: int) -> RatPoly:
    """poly mod (q)_n by Habiro's cyclotomic expansion
    poly = a_0 + (q - 1)(a_1 + (q^2 - 1)(a_2 + ... + (q^n - 1) x_n)),
    deg a_(j-1) < j: the mixed-radix digits of poly in the chain of ideals
    (q - 1) > (q - 1)(q^2 - 1) > ... > prod_(j<=n) (q^j - 1) = (-1)^n (q)_n
    (Habiro, Publ. RIMS 40, 2004; Knuth, TAOCP vol. 2, 4.3.2).

    With the coefficients top first, division by q^j - 1 is a running sum in
    each residue class mod j: the quotient is the head and the remainder
    a_(j-1) the last j entries, exact by construction.  The residue is then
    rebuilt by Horner, r <- a_(j-1) + (q^j - 1) r for j = n..1, so the whole
    reduction is big-integer additions.  poly = num / den is reduced as num,
    and the residue is that over den; poly itself is returned when its
    degree is already below m = n(n+1)/2."""
    if len(poly.num) <= n * (n + 1) // 2:
        return poly
    x = list(poly.num[::-1])
    digits = []
    for j in range(1, n + 1):
        for c in range(j):
            x[c::j] = accumulate(x[c::j])
        digits.append(x[: -j - 1 : -1])
        del x[-j:]
    r = []
    for j in range(n, 0, -1):  # a_(j-1) + (q^j - 1) r = (a_(j-1) + q^j r) - r
        r = list(map(sub, digits[j - 1] + r, r + [0] * j))
    return _poly(r, poly.den)


class HabiroTrunc(_Record):
    """Residue class modulo (q)_N; the residue is an integer polynomial of
    degree < N(N+1)/2."""

    __slots__ = ("level", "residue")

    @classmethod
    def make(cls, level: int, poly: RatPoly) -> "HabiroTrunc":
        if level < 1:
            raise LevelError("level must be >= 1")
        red = _reduce(poly, level)
        if red.den != 1:
            raise ValueError("Habiro residues must have integer coefficients")
        return cls(level=level, residue=red)

    def _combine(self, op, other):
        """op on the residues of self and of an int, or of a HabiroTrunc at
        the same level; NotImplemented for any other operand."""
        if isinstance(other, int):
            other = RatPoly((other,))
        elif not isinstance(other, HabiroTrunc):
            return NotImplemented
        elif self.level != other.level:
            raise LevelError("levels differ; reduce first")
        else:
            other = other.residue
        return HabiroTrunc.make(self.level, op(self.residue, other))

    def __add__(self, other):
        return self._combine(add, other)

    def __sub__(self, other):
        return self._combine(sub, other)

    def __mul__(self, other):
        return self._combine(mul, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, habiro_one(self.level), mul)

    def reduce_level(self, m: int) -> "HabiroTrunc":
        if m > self.level:
            raise LevelError("cannot raise the level")
        return HabiroTrunc.make(m, self.residue)

    def to_json_dict(self) -> dict:
        n = self.level
        return {
            "level": n,
            "modulus_degree": n * (n + 1) // 2,
            "residue": list(self.residue.coeffs),
        }


def habiro_one(N: int) -> HabiroTrunc:
    return HabiroTrunc.make(N, RatPoly.one())


def habiro_q(N: int) -> HabiroTrunc:
    return HabiroTrunc.make(N, RatPoly.x())


@lru_cache(maxsize=None)
def habiro_r(N: int) -> HabiroTrunc:
    """r = 1 + q + sum_{n>=1} q^n (q)_n; terms with n >= N vanish mod (q)_N.
    (q)_n is built as in qpochhammer, one shifted subtraction per factor,
    and each q^n (q)_n is added into one list of N(N+1)/2 + 2 entries, which
    holds the last term, of degree (N - 1)(N + 2)/2."""
    acc = [1, 1] + [0] * (N * (N + 1) // 2)
    c = [1]
    for n in range(1, N):
        c = list(map(sub, c + [0] * n, [0] * n + c))
        acc[n : n + len(c)] = map(add, acc[n : n + len(c)], c)
    return HabiroTrunc.make(N, _poly(acc))


def habiro_qinv(N: int) -> HabiroTrunc:
    """q^(-1) = (1 - (q)_N) / q: the numerator of 1 - (q)_N with its constant
    term 0 dropped.  This is Habiro's series 1 + sum_{n>=1} q^n (q)_n, by
    telescoping q^(n+1) (q)_n = (q)_n - (q)_(n+1), built without r, so the
    battery's r = q + q^(-1) checks r.  q q^(-1) = 1 is verified."""
    out = HabiroTrunc.make(N, _poly([-c for c in qpochhammer(N).num[1:]], 1))
    if habiro_q(N) * out != habiro_one(N):
        raise RuntimeError("q * q^(-1) != 1 mod (q)_N")
    return out


def eval_at_root(x: HabiroTrunc, m: int) -> CycloInt:
    """Value in Z[x]/Phi_m at a primitive m-th root of unity.

    Well-defined only when Phi_m divides (q)_level, i.e. level >= m.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if x.level < m:
        raise LevelError(f"level {x.level} too small for conductor {m}")
    return CycloInt.from_poly(m, x.residue)


# ---------------------------------------------------------------------
# lambda-structures
# ---------------------------------------------------------------------


def _substitute_power(poly: RatPoly, k: int) -> RatPoly:
    out = [0] * (poly.degree * k + 1 if poly.num else 1)
    for i, c in enumerate(poly.num):
        out[i * k] += c
    return _poly(out, poly.den)


def psi_toric(x: HabiroTrunc, k: int) -> HabiroTrunc:
    """The ring endomorphism with psi^k(q) = q^k, at the same level."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return HabiroTrunc.make(x.level, _substitute_power(x.residue, k))


def psi_toric_divisibility_holds(k: int, N: int) -> bool:
    """Check that Phi_d^(floor(N/d)) divides prod_{j<=N} (1 - q^(kj)) for all
    d <= N; this is what makes psi_toric well-defined on the quotient."""
    prod = _substitute_power(qpochhammer(N), k)  # psi^k((q)_N)
    for d in range(1, N + 1):
        phi = cyclotomic_poly(d)
        body = prod
        for _ in range(N // d):
            body, rem = divmod(body, phi)
            if not rem.is_zero():
                return False
    return True


@lru_cache(maxsize=None)
def chebyshev_T(k: int) -> RatPoly:
    """The integer polynomial T_k with T_k(q + 1/q) = q^k + q^(-k), monic for
    k >= 1 and T_0 = 2: the Dickson polynomial D_k(r, 1) in closed form,
    T_k(r) = sum_(0 <= j <= k/2) (-1)^j (C(k-j, j) + C(k-j-1, j-1)) r^(k-2j),
    where C(k-j, j) + C(k-j-1, j-1) = k/(k-j) C(k-j, j) (Lidl, Mullen and
    Turnwald, Dickson Polynomials, 1993).  It solves T_(k+1) = r T_k - T_(k-1)
    from T_0 = 2 and T_1 = r, with no recursion and no products."""
    if k < 0:
        raise ValueError("k must be >= 0")
    c = [0] * (k + 1)
    c[k] = 1 if k else 2
    for j in range(1, k // 2 + 1):
        c[k - 2 * j] = (-1) ** j * (comb(k - j, j) + comb(k - j - 1, j - 1))
    return _poly(c)


def psi_chebyshev(p: RatPoly, k: int) -> RatPoly:
    """The endomorphism of Z[r] fixing Z with psi^k(r) = T_k(r): p -> p o T_k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return p.compose(chebyshev_T(k))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def frobenius_congruence_check(p: int, x: RatPoly) -> bool:
    """True iff psi^p(x) == x^p mod p in Z[r] (Chebyshev structure), for x
    with integer coefficients.  Both sides are made mod p: x o T_p by
    Horner's scheme and x^p by square-and-multiply, the coefficients of
    every product reduced mod p, so no operand has one of p or more."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x.den != 1:
        raise ValueError("polynomial must have integer coefficients")

    def mul_mod(a, b):
        return [c % p for c in _mul(a, b)]

    T = [c % p for c in chebyshev_T(p).num]
    psi = [0]
    for c in reversed(x.num):
        psi = mul_mod(psi, T)
        psi[0] = (psi[0] + c) % p
    return _poly(psi) == _poly(_power([c % p for c in x.num], p, [1], mul_mod))


def frobenius_congruence_toric(p: int, x: HabiroTrunc) -> bool:
    """True iff psi^p(x) == x^p mod p in Z[q]/((q)_N) (toric structure)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _frobenius_toric_holds(p, x, psi_toric(x, p))


def _frobenius_toric_holds(p: int, x: HabiroTrunc, psi_x: HabiroTrunc) -> bool:
    """Whether psi_x - x^p is 0 mod p, for psi_x = psi^p(x) already made."""
    defect = (psi_x - x**p).residue
    return all(c % p == 0 for c in defect.coeffs)


def substitute_r(p: RatPoly, x: HabiroTrunc) -> HabiroTrunc:
    """Evaluate an integer polynomial at a Habiro element: p composed with
    the residue of x in integers, then one reduction."""
    if p.den != 1:
        raise ValueError("polynomial must have integer coefficients")
    return HabiroTrunc.make(x.level, p.compose(x.residue))


def _chebyshev_values(r: HabiroTrunc, K: int) -> list:
    """T_0(r), ..., T_K(r) by T_(k+1) = r T_k - T_(k-1) from T_0 = 2 and
    T_1 = r: one ring product per step."""
    values = [2 * habiro_one(r.level), r]
    for _ in range(K - 1):
        values.append(r * values[-1] - values[-2])
    return values[: K + 1]


def chebyshev_compatibility_check(k: int, N: int) -> bool:
    """psi_toric(r, k) == T_k(r) mod (q)_N, i.e. q^k + q^(-k) = T_k(q + 1/q)."""
    if k < 1 or N < 1:
        raise ValueError("k and N must be >= 1")
    r = habiro_r(N)
    return psi_toric(r, k) == _chebyshev_values(r, k)[k]


def involution_invariance_check(p: RatPoly, m: int) -> bool:
    """Whether the value of p(r) at a primitive m-th root of unity is fixed by
    zeta -> zeta^(-1)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    value = eval_at_root(substitute_r(p, habiro_r(m)), m)
    return value == value.involution()


def fixed_seed_elements():
    """Twenty deterministic pseudo-random nonzero integer polynomials in r, of
    degree 1 to 5 with coefficients in -9..9, for the reproducible
    congruence batteries."""
    rng = random.Random(20260823)
    out = []
    while len(out) < 20:
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
        p = RatPoly(coeffs)
        if not p.is_zero():
            out.append(p)
    return out


def habiro_battery(level: int) -> dict:
    """Named boolean results of the full verification battery at one level."""
    if level < 1:
        raise LevelError("level must be >= 1")
    results = {}
    r = habiro_r(level)
    q = habiro_q(level)
    qinv = habiro_qinv(level)
    results["r_equals_q_plus_qinv"] = r == q + qinv
    results["q_times_qinv_is_one"] = q * qinv == habiro_one(level)
    results["eval_r_at_roots_of_unity"] = all(
        eval_at_root(habiro_r(m), m)
        == CycloInt.from_poly(m, RatPoly.x() + RatPoly.monomial(m - 1 if m > 1 else 1))
        for m in range(1, min(level, 24) + 1)
    )
    results["chebyshev_composition"] = all(
        psi_chebyshev(chebyshev_T(b), a) == chebyshev_T(a * b)
        for a in range(1, 9)
        for b in range(1, 9)
    )
    elements = fixed_seed_elements()
    results["frobenius_chebyshev"] = all(
        frobenius_congruence_check(p, x)
        for p in (2, 3, 5, 7, 11)
        for x in [RatPoly.x()] + elements
    )
    psi_r = {k: psi_toric(r, k) for k in range(1, 10)}
    results["frobenius_toric"] = all(
        _frobenius_toric_holds(p, x, psi_x)
        for p in (2, 3, 5)
        for x, psi_x in ((q, psi_toric(q, p)), (r, psi_r[p]))
    )
    results["toric_multiplicativity"] = all(
        psi_toric(psi_r[a], b) == psi_r[a * b] for a in (2, 3) for b in (2, 3)
    )
    results["toric_divisibility_lemma"] = all(
        psi_toric_divisibility_holds(k, min(level, 8)) for k in (2, 3)
    )
    chebyshev_r = _chebyshev_values(r, 8)
    results["chebyshev_compatibility"] = all(psi_r[k] == chebyshev_r[k] for k in range(1, 9))
    probe = [RatPoly.x(), RatPoly((1, -3, 1)), RatPoly((2, 0, 1, 1))]
    results["involution_invariance"] = all(
        involution_invariance_check(p, m)
        for m in range(1, min(level, 12) + 1)
        for p in probe
    )
    if level >= 4:
        results["q_witness_not_invariant"] = all(
            eval_at_root(habiro_q(m), m)
            != eval_at_root(habiro_q(m), m).involution()
            for m in (3, 4)
        )
    return results
