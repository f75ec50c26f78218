"""Output checks for every zetapoly CLI job the benchmark runs.

A job passes only if it exits 0 and its output is right, so a fast wrong
answer counts as a failed job.  The checks are independent of the package:
they parse the CLI output with the standard library and re-derive what they
can with their own exact arithmetic.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Rational points at which the functional equation of H is re-checked.
FUNCEQ_POINTS = (Fraction(1, 3), Fraction(-7, 2), Fraction(5, 11), Fraction(13), Fraction(-40, 9))

HABIRO_CHECKS = frozenset({
    "chebyshev_compatibility", "chebyshev_composition", "eval_r_at_roots_of_unity",
    "frobenius_chebyshev", "frobenius_toric", "involution_invariance",
    "q_times_qinv_is_one", "r_equals_q_plus_qinv", "toric_divisibility_lemma",
    "toric_multiplicativity",
})

ROOT_TOLERANCE = 1e-6


class Reference:
    """Committed outputs: sha256 digests of rv/certify JSON and the report's
    summary.csv bytes."""

    def __init__(self):
        self.digests = json.loads((REFERENCE_DIR / "digests.json").read_text())
        self.summary_csv = (REFERENCE_DIR / "summary.csv").read_bytes()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(job, exit_code: int, stdout: bytes, out_dir: Path, ref: Reference | None) -> str | None:
    """None if the job passed; otherwise why it failed.  With ref=None the
    byte-for-byte comparison against the committed reference is skipped."""
    if exit_code != 0:
        return f"exit {exit_code}"
    try:
        if job.command == "report":
            return check_report(out_dir, ref)
        payload = json.loads(stdout)
        if job.command in ("rv", "certify"):
            problem = check_certified(job, payload)
            if problem is None and job.command == "rv":
                problem = check_zeta_polynomial(job.weight, job.d, payload["H"])
            if problem is None and ref is not None and digest(stdout) != ref.digests.get(job.key):
                problem = "output differs from the committed reference"
            return problem
        if job.command == "lfun":
            return check_lfun(job.weight, job.bits, payload)
        if job.command == "habiro":
            return check_habiro(job.level, payload)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"no check for command {job.command!r}"


def check_certified(job, payload: dict) -> str | None:
    if payload["weight"] != job.weight or payload["d"] != job.d:
        return "weight or d does not match the request"
    line_key = "critical_line_certificate" if job.command == "rv" else "critical_line"
    for key in ("unit_circle", line_key):
        if payload[key]["passed"] is not True:
            return f"{key} certificate did not pass"
    return None


def _scaled_integer_poly(coeffs: list) -> list:
    """Integer coefficients of L*H, L the lcm of the denominators."""
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return [int(c * lcm) for c in coeffs]


def _homogeneous_value(h: list, p: int, q: int) -> int:
    """q^n * (L*H)(p/q) for n = deg H, an exact integer."""
    acc = 0
    qpow = 1
    for c in reversed(h):  # Horner from the leading coefficient
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def check_zeta_polynomial(k: int, d: int, H_strings: list) -> str | None:
    """Re-check H with its own exact arithmetic: H(-d+e-x) = (-1)^(d-1) H(x)
    at several rational x, and H(-j) = 0 for j = 1..d-e-1."""
    e = k - 12
    H = [Fraction(s) for s in H_strings]
    if len(H) != d or H[-1] == 0:
        return f"H has degree {len(H) - 1}, expected d-1 = {d - 1}"
    h = _scaled_integer_poly(H)
    sign = (-1) ** (d - 1)
    for x in FUNCEQ_POINTS:
        p, q = x.numerator, x.denominator
        if _homogeneous_value(h, (e - d) * q - p, q) != sign * _homogeneous_value(h, p, q):
            return f"functional equation fails at x = {x}"
    for j in range(1, d - e):
        if _homogeneous_value(h, -j, 1) != 0:
            return f"H(-{j}) != 0"
    return None


def check_lfun(k: int, bits: int, payload: dict) -> str | None:
    """Lambda(f, s) = (-1)^(k/2) Lambda(f, k-s) to within 2^-(bits-16)."""
    if payload["weight"] != k or payload["prec_bits"] != bits:
        return "weight or prec_bits does not match the request"
    values = {int(s): Fraction(v) for s, v in payload["lambda"].items()}
    if sorted(values) != list(range(1, k)):
        return "lambda values are not s = 1..k-1"
    sign = (-1) ** (k // 2)
    tol = Fraction(1, 2 ** (bits - 16))
    for s in range(1, k):
        if abs(values[s] - sign * values[k - s]) > tol:
            return f"Lambda({s}) != {sign:+d} Lambda({k - s})"
    return None


def check_habiro(level: int, payload: dict) -> str | None:
    checks = payload["checks"]
    if payload["level"] != level:
        return "level does not match the request"
    missing = HABIRO_CHECKS - set(checks)
    if missing:
        return f"missing checks: {sorted(missing)}"
    failed = sorted(name for name, ok in checks.items() if ok is not True)
    return f"checks false: {failed}" if failed else None


def check_report(out_dir: Path, ref: Reference | None) -> str | None:
    """summary.csv has 36 passing rows (and matches the reference byte for
    byte); every roots file has each root within 1e-6 of its critical line."""
    summary = (out_dir / "summary.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(summary.decode())))
    if rows[0] != ["weight", "e", "d", "funceq", "unit_circle", "critical_line"] or len(rows) != 37:
        return "summary.csv does not have the header and 36 rows"
    for k, e, d, *results in rows[1:]:
        if results != ["pass"] * 3:
            return f"summary row w{k} d{d} is {results}"
        if int(e) == 0:
            continue
        roots_file = out_dir / f"roots_w{k}_d{d}.json"
        if not roots_file.exists():
            return f"{roots_file.name} missing"
        payload = json.loads(roots_file.read_text())
        if payload["weight"] != int(k) or payload["d"] != int(d) or len(payload["roots"]) != int(e):
            return f"{roots_file.name} does not hold the {e} roots of w{k} d{d}"
        line = Fraction(-(int(d) - int(e)), 2)
        if Fraction(payload["critical_line"]) != line:
            return f"{roots_file.name} names the wrong critical line"
        if any(abs(root["re"] - float(line)) >= ROOT_TOLERANCE for root in payload["roots"]):
            return f"{roots_file.name} has a root off Re x = {line}"
    if ref is not None and summary != ref.summary_csv:
        return "summary.csv differs from the committed reference"
    return None
