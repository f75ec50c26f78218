"""Batch command-line interface.

Exit codes: 0 = all checks passed, 1 = computation ran but a check or an
internal contract failed, 2 = invalid or unsupported input, or an output
path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .exactcore import ONE_DIM_WEIGHTS as WEIGHTS

# Each command imports the modules it runs inside its body, so a job loads
# only those.  No command loads mpmath or cmath: `report` refines its roots in
# integers from the intervals of the critical-line certificate.


def weight_stages(k: int):
    """Per-weight part of the pipeline: odd period polynomial -> U, with the
    unit-circle certificate of U."""
    from .periods import cfi_quotient, odd_period_polynomial
    from .zerocert import unit_circle_certify

    quot = cfi_quotient(odd_period_polynomial(k), k)
    return quot, unit_circle_certify(quot.U_poly)


def zeta_record_for_d(quot, d=None):
    """Per-d part: the zeta polynomial record of U at d (default e + 2),
    with its critical-line certificate."""
    from .rvtransform import rv_polynomial
    from .zerocert import critical_line_certify

    if d is None:
        d = quot.e + 2
    record = rv_polynomial(quot.U_poly, d, weight=quot.weight)
    return record, critical_line_certify(record.Q, record.critical_line, +1)


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_periods(args) -> int:
    from .periods import periods_json_dict

    _emit(periods_json_dict(args.weight), args.out)
    return 0


def cmd_rv(args) -> int:
    """Both `rv` (the full record) and `certify` (certificates only)."""
    quot, circle = weight_stages(args.weight)
    record, line = zeta_record_for_d(quot, args.d)
    if args.command == "rv":
        payload = record.to_json_dict()
        payload["unit_circle"] = circle.to_json_dict()
        payload["critical_line_certificate"] = line.to_json_dict()
    else:
        payload = {
            "weight": args.weight,
            "d": record.d,
            "unit_circle": circle.to_json_dict(),
            "critical_line": line.to_json_dict(),
        }
    _emit(payload, args.out)
    return 0 if circle.passed and line.passed else 1


def cmd_habiro(args) -> int:
    from .habiro import habiro_battery

    results = habiro_battery(args.level)
    payload = {"level": args.level, "checks": results}
    _emit(payload, args.out)
    return 0 if all(results.values()) else 1


def cmd_lfun(args) -> int:
    from .modforms import _mpf_str, eigenform, lambda_numeric, qexp_prec_for

    k = args.weight
    if args.s is not None and not 1 <= args.s <= k - 1:
        raise ValueError(f"s = {args.s} outside the critical strip 1..{k - 1}")
    f = eigenform(k, qexp_prec_for(k, args.prec_bits))
    lam = lambda_numeric(f, args.prec_bits)
    ss = [args.s] if args.s is not None else range(1, k)
    values = {str(s): _mpf_str(lam[s - 1], args.prec_bits) for s in ss}
    _emit({"weight": k, "prec_bits": args.prec_bits, "lambda": values}, args.out)
    return 0


def cmd_report(args) -> int:
    import csv

    from .zerocert import critical_line_roots, roots_json

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    any_failed = False
    for k in WEIGHTS:
        e = k - 12
        try:
            quot, circle = weight_stages(k)
            weight_error = None
        except Exception as exc:  # every row of this weight records it
            weight_error = exc
        for d in range(e + 1, e + 7):
            try:
                if weight_error is not None:
                    raise weight_error
                record, line = zeta_record_for_d(quot, d)
                funceq = "pass"
                uc = "pass" if circle.passed else "fail"
                cl = "pass" if line.passed else "fail"
                if not (circle.passed and line.passed):
                    any_failed = True
                if record.Q.degree > 0:
                    try:
                        roots = critical_line_roots(line, record.critical_line, args.prec_bits)
                    except RuntimeError as exc:
                        raise RuntimeError(f"weight {k}, d {d}: {exc}") from exc
                    roots_payload = {
                        "weight": k,
                        "d": d,
                        "critical_line": str(record.critical_line),
                        "roots": roots_json(roots),
                    }
                    _emit(roots_payload, out_dir / f"roots_w{k}_d{d}.json")
            except Exception as exc:  # keep the sweep going, record the failure
                funceq = uc = cl = f"error:{type(exc).__name__}: {exc}"
                any_failed = True
            rows.append([k, e, d, funceq, uc, cl])
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["weight", "e", "d", "funceq", "unit_circle", "critical_line"])
        writer.writerows(rows)
    return 1 if any_failed else 0


def _prec_bits(text: str) -> int:
    bits = int(text)
    if bits < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return bits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetapoly",
        description="Exact zeta polynomials from cusp-form period polynomials, "
        "with exact zero-locus certificates and a truncated Habiro-ring engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periods", help="odd period polynomial and its quotient U")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("rv", help="zeta polynomial record with certificates")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rv)

    p = sub.add_parser("certify", help="certificates only")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rv)

    p = sub.add_parser("habiro", help="run the Habiro-ring verification battery")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_habiro)

    p = sub.add_parser("lfun", help="completed L-values of the eigenform")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--prec-bits", type=_prec_bits, default=128)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lfun)

    p = sub.add_parser("report", help="sweep all weights and d = e+1..e+6")
    p.add_argument("--out-dir", default="report")
    p.add_argument("--prec-bits", type=_prec_bits, default=128)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # invalid input or an unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed internal contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
