"""Batch command-line interface.

Exit codes: 0 = all checks passed, 1 = computation ran but a check or an
internal contract failed, 2 = invalid or unsupported input, or an output
path that cannot be written.  A malformed command line prints the usage and
an error naming the command or option to stderr and exits 2.

One table, COMMANDS, gives each command its handler, its help line and its
options (type, default or REQUIRED, help); parse_args reads argv and prints
the help from it.  An option is given as `--opt value` or `--opt=value`, by
its full name or an unambiguous prefix, and a value may start with a single
`-`.  There is no argparse, and the module imports only json, os, sys,
types and the package root, so each command loads past the interpreter's
start-up only what it runs:

    periods                 json, fractions, array; exactcore, intmul, periods
    rv, certify, report     the same, and rvtransform, zerocert (report csv)
    habiro                  json, array; exactcore, intmul, habiro
    lfun                    json, array; intmul, lvalues

`habiro` and `lfun` compute in ints only, so they load neither fractions
nor the decimal and numbers that it imports.
"""

import json
import os
import sys
from types import SimpleNamespace

from . import ONE_DIM_WEIGHTS as WEIGHTS

# Each command imports the modules it runs inside its body, so a job loads
# only those.  No command loads mpmath: `report` refines its roots in integers
# from the intervals of the critical-line certificate.


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
    return record, critical_line_certify(record.Q, record.critical_line)


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
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
    from .lvalues import _mpf_str, eigenform_coeffs, lambda_fixed, qexp_prec_for

    k = args.weight
    if args.s is not None and not 1 <= args.s <= k - 1:
        raise ValueError(f"s = {args.s} outside the critical strip 1..{k - 1}")
    coeffs = eigenform_coeffs(k, qexp_prec_for(k, args.prec_bits))
    lam, W = lambda_fixed(k, coeffs, args.prec_bits)
    ss = [args.s] if args.s is not None else range(1, k)
    values = {str(s): _mpf_str(lam[s - 1], W, args.prec_bits) for s in ss}
    _emit({"weight": k, "prec_bits": args.prec_bits, "lambda": values}, args.out)
    return 0


def cmd_report(args) -> int:
    import csv

    from .zerocert import critical_line_roots, roots_json

    os.makedirs(args.out_dir or ".", exist_ok=True)  # "" is the working directory
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
                    _emit(roots_payload, os.path.join(args.out_dir, f"roots_w{k}_d{d}.json"))
            except Exception as exc:  # keep the sweep going, record the failure
                funceq = uc = cl = f"error:{type(exc).__name__}: {exc}"
                any_failed = True
            rows.append([k, e, d, funceq, uc, cl])
    with open(os.path.join(args.out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["weight", "e", "d", "funceq", "unit_circle", "critical_line"])
        writer.writerows(rows)
    return 1 if any_failed else 0


def _prec_bits(text: str) -> int:
    bits = int(text)
    if bits < 1:
        raise ValueError(f"must be >= 1, not {bits}")
    return bits


REQUIRED = object()  # the default of an option that must be given
_WEIGHT = (int, REQUIRED, "the weight k: 12, 16, 18, 20, 22 or 26")
_D = (int, None, "the degree d > e = k - 12 (default e + 2)")
_OUT = (str, None, "write the JSON to this file, not to stdout")

# command -> (handler, help line, {option: (type, default, help)})
COMMANDS = {
    "periods": (cmd_periods, "odd period polynomial and its quotient U",
                {"--weight": _WEIGHT, "--out": _OUT}),
    "rv": (cmd_rv, "zeta polynomial record with certificates",
           {"--weight": _WEIGHT, "--d": _D, "--out": _OUT}),
    "certify": (cmd_rv, "certificates only",
                {"--weight": _WEIGHT, "--d": _D, "--out": _OUT}),
    "habiro": (cmd_habiro, "run the Habiro-ring verification battery",
               {"--level": (int, REQUIRED, "the truncation level N >= 1"), "--out": _OUT}),
    "lfun": (cmd_lfun, "completed L-values of the eigenform", {
        "--weight": _WEIGHT,
        "--s": (int, None, "one point s in 1..k-1 (default all of them)"),
        "--prec-bits": (_prec_bits, 128, "the precision of the values in bits, >= 1"),
        "--out": _OUT,
    }),
    "report": (cmd_report, "sweep all weights and d = e+1..e+6", {
        "--out-dir": (str, "report", "the directory for summary.csv and the roots files"),
        "--prec-bits": (_prec_bits, 128, "the precision of the roots in bits, >= 1"),
    }),
}

ABOUT = """\
Exact zeta polynomials from cusp-form period polynomials, with exact
zero-locus certificates and a truncated Habiro-ring engine.

commands:
{}

`zetapoly <command> --help` lists the options of a command."""


def _usage(command=None) -> str:
    if command is None:
        return "usage: zetapoly <command> [options]"
    shown = (_flag(name) if spec[1] is REQUIRED else f"[{_flag(name)}]"
             for name, spec in COMMANDS[command][2].items())
    return f"usage: zetapoly {command} " + " ".join(shown)


def _flag(name: str) -> str:
    return f"{name} {name[2:].replace('-', '_').upper()}"


def _help(command=None) -> str:
    if command is None:
        width = max(map(len, COMMANDS))
        lines = (f"  {name:{width}}  {spec[1]}" for name, spec in COMMANDS.items())
        return f"{_usage()}\n\n" + ABOUT.format("\n".join(lines))
    _, about, options = COMMANDS[command]
    width = max(len(_flag(name)) for name in options)
    lines = [_usage(command), "", about, "", "options:"]
    for name, (_, default, text) in options.items():
        if default is REQUIRED:
            text += " (required)"
        elif default is not None:
            text += f" (default {default})"
        lines.append(f"  {_flag(name):{width}}  {text}")
    return "\n".join(lines)


def _fail(command, message: str):
    """A usage error: the usage and the message to stderr, exit status 2."""
    print(_usage(command), file=sys.stderr)
    print(f"zetapoly{' ' + command if command else ''}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _option(command, arg: str, names) -> tuple:
    """The option of names that arg gives, by its full name or an
    unambiguous prefix, and its =value (None without one); -h is --help."""
    if arg == "-h":
        return "--help", None
    flag, eq, value = arg.partition("=")
    if not flag.startswith("--"):
        _fail(command, f"unrecognized argument: {arg}")
    found = [flag] if flag in names else [name for name in names if name.startswith(flag)]
    if not found:
        _fail(command, f"unrecognized argument: {flag}")
    if len(found) > 1:
        _fail(command, f"ambiguous option: {flag} could match {', '.join(found)}")
    return found[0], value if eq else None


def parse_args(argv) -> SimpleNamespace:
    """argv as a namespace: command, func (its handler) and one attribute per
    option of the command.  -h or --help prints help and exits 0; a malformed
    command line prints the usage and an error to stderr and exits 2."""
    if not argv:
        _fail(None, f"a command is required: {', '.join(COMMANDS)}")
    command, rest = argv[0], list(argv[1:])
    if command.startswith("-"):
        _option(None, command, ["--help"])
        print(_help())
        raise SystemExit(0)
    if command not in COMMANDS:
        _fail(None, f"invalid command {command!r} (choose from {', '.join(COMMANDS)})")
    func, _, options = COMMANDS[command]
    values = {}
    while rest:
        name, value = _option(command, rest.pop(0), [*options, "--help"])
        if name == "--help":
            print(_help(command))
            raise SystemExit(0)
        if value is None:
            if not rest or rest[0].startswith("--"):
                _fail(command, f"argument {name}: expected one value")
            value = rest.pop(0)
        try:
            values[name] = options[name][0](value)
        except ValueError as exc:
            _fail(command, f"argument {name}: {exc}")
    missing = [name for name, spec in options.items() if spec[1] is REQUIRED and name not in values]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    fields = {name[2:].replace("-", "_"): values.get(name, spec[1]) for name, spec in options.items()}
    return SimpleNamespace(command=command, func=func, **fields)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
