import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

import zetapoly
from zetapoly import cli, periods, zerocert
from zetapoly.cli import main
from zetapoly.periods import DivisibilityError

REFERENCE_CSV = Path(__file__).resolve().parents[1] / "bench" / "reference" / "summary.csv"
REFERENCE_ROWS = list(csv.reader(REFERENCE_CSV.read_text().splitlines()))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestPeriodsCommand:
    def test_weight_12(self, capsys):
        code, out = run(capsys, ["periods", "--weight", "12"])
        assert code == 0
        payload = json.loads(out)
        assert payload["U"] == ["4"]
        assert payload["e"] == 0
        assert payload["r_minus"] == ["0", "4", "0", "-25", "0", "42", "0", "-25", "0", "4"]

    def test_weight_10_unsupported(self, capsys):
        assert run(capsys, ["periods", "--weight", "10"])[0] == 2

    def test_weight_13_unsupported(self, capsys):
        assert run(capsys, ["periods", "--weight", "13"])[0] == 2


class TestRvCommand:
    def test_weight_16_d5(self, capsys):
        code, out = run(capsys, ["rv", "--weight", "16", "--d", "5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["critical_line"] == "-1/2"
        assert payload["unit_circle"]["passed"] is True
        assert payload["critical_line_certificate"]["passed"] is True

    def test_weight_12_d3(self, capsys):
        code, out = run(capsys, ["rv", "--weight", "12", "--d", "3"])
        assert code == 0
        assert json.loads(out)["H"] == ["4", "6", "2"]

    def test_d_zero_invalid(self, capsys):
        assert run(capsys, ["rv", "--weight", "12", "--d", "0"])[0] == 2

    def test_d1_valid_for_weight_12(self, capsys):
        assert run(capsys, ["rv", "--weight", "12", "--d", "1"])[0] == 0

    def test_unsupported_weight(self, capsys):
        assert run(capsys, ["rv", "--weight", "28", "--d", "5"])[0] == 2


class TestCertifyCommand:
    def test_weight_18(self, capsys):
        code, out = run(capsys, ["certify", "--weight", "18"])
        assert code == 0
        payload = json.loads(out)
        assert payload["unit_circle"]["passed"] is True
        assert payload["critical_line"]["passed"] is True

    def test_unsupported_weight(self, capsys):
        assert run(capsys, ["certify", "--weight", "28"])[0] == 2

    def test_d_not_above_e(self, capsys):
        assert run(capsys, ["certify", "--weight", "26", "--d", "14"])[0] == 2


class TestHabiroCommand:
    def test_level_8(self, capsys):
        code, out = run(capsys, ["habiro", "--level", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["checks"] and all(payload["checks"].values())

    def test_level_1_degenerate_passes(self, capsys):
        assert run(capsys, ["habiro", "--level", "1"])[0] == 0

    def test_level_0_invalid(self, capsys):
        assert run(capsys, ["habiro", "--level", "0"])[0] == 2


class TestLfunCommand:
    def test_single_value(self, capsys):
        code, out = run(capsys, ["lfun", "--weight", "12", "--s", "6"])
        assert code == 0
        payload = json.loads(out)
        assert float(payload["lambda"]["6"]) > 0

    def test_out_of_strip(self, capsys):
        assert run(capsys, ["lfun", "--weight", "12", "--s", "12"])[0] == 2

    @pytest.mark.parametrize("s", ["0", "26"])
    def test_strip_edges_invalid(self, capsys, s):
        assert main(["lfun", "--weight", "26", "--s", s]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: s = {s} outside the critical strip 1..25\n"

    def test_strip_checked_before_eigenform(self, capsys, monkeypatch):
        # an s outside the strip is rejected before any q-expansion is built
        def no_eigenform(*args):
            raise AssertionError("eigenform built for an invalid --s")

        monkeypatch.setattr("zetapoly.modforms.eigenform", no_eigenform)
        argv = ["lfun", "--weight", "26", "--s", "30", "--prec-bits", "4096"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: s = 30 outside the critical strip 1..25\n"

    def test_unsupported_weight(self, capsys):
        assert run(capsys, ["lfun", "--weight", "28"])[0] == 2

    def test_values_printed_at_prec_bits(self, capsys):
        argv = ["lfun", "--weight", "12", "--s", "5", "--prec-bits"]
        _, out128 = run(capsys, argv + ["128"])
        _, out256 = run(capsys, argv + ["256"])
        text = json.loads(out256)["lambda"]["5"]
        mantissa = text.split("e")[0].replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) >= 70
        with mp.workprec(256):
            v128, v256 = mpf(json.loads(out128)["lambda"]["5"]), mpf(text)
            assert abs(v256 - v128) < mpf("1e-35") * abs(v256)

    def test_512_bits(self, capsys):
        assert run(capsys, ["lfun", "--weight", "26", "--s", "3", "--prec-bits", "512"])[0] == 0

    @pytest.mark.parametrize("command", [["lfun", "--weight", "12"], ["report"]])
    @pytest.mark.parametrize("bits", ["0", "-5"])
    def test_nonpositive_prec_bits_invalid(self, capsys, tmp_path, command, bits):
        argv = command + ["--prec-bits", bits]
        if command == ["report"]:
            argv += ["--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestInternalFailure:
    def test_runtime_error_exits_1_with_message(self, capsys, monkeypatch):
        def broken(quot, d=None):
            raise RuntimeError("functional equation fails")

        monkeypatch.setattr(cli, "zeta_record_for_d", broken)
        assert main(["rv", "--weight", "12"]) == 1
        assert "error: functional equation fails" in capsys.readouterr().err


class TestUnwritableOutput:
    def test_periods_out_in_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert main(["periods", "--weight", "12", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert "Traceback" not in captured.err

    def test_report_out_dir_is_a_file(self, capsys, tmp_path):
        out_dir = tmp_path / "file"
        out_dir.write_text("")
        assert main(["report", "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out_dir) in captured.err
        assert out_dir.read_text() == ""


class TestReportFailureCause:
    def test_failed_rows_keep_their_message(self, capsys, tmp_path, monkeypatch):
        real = cli.zeta_record_for_d

        def broken_at_20(quot, d=None):
            if quot.weight == 20:
                raise RuntimeError("functional equation fails, d = %d" % d)
            return real(quot, d)

        monkeypatch.setattr(cli, "zeta_record_for_d", broken_at_20)
        rows = self.report_rows(capsys, tmp_path)
        for row, ref in zip(rows, REFERENCE_ROWS):
            if row[0] == "20":
                cause = f"error:RuntimeError: functional equation fails, d = {row[2]}"
                assert row[:3] == ref[:3] and row[3:] == [cause] * 3
            else:
                assert row == ref

    def test_failed_weight_fails_all_its_rows(self, capsys, tmp_path, monkeypatch):
        real = cli.weight_stages

        def broken_at_20(k):
            if k == 20:
                raise DivisibilityError("not divisible at weight 20")
            return real(k)

        monkeypatch.setattr(cli, "weight_stages", broken_at_20)
        rows = self.report_rows(capsys, tmp_path)
        assert not (tmp_path / "roots_w20_d9.json").exists()
        for row, ref in zip(rows, REFERENCE_ROWS):
            if row[0] == "20":
                cause = "error:DivisibilityError: not divisible at weight 20"
                assert row[:3] == ref[:3] and row[3:] == [cause] * 3
            else:
                assert row == ref

    def test_failed_sign_test_keeps_its_message(self, capsys, tmp_path, monkeypatch):
        real_record, real_scaled = cli.zeta_record_for_d, zerocert._scaled_with_slope
        weights = []

        def recording(quot, d=None):
            weights.append(quot.weight)
            return real_record(quot, d)

        def no_sign_change_at_20(a, n, s):
            value, slope = real_scaled(a, n, s)
            return (0 if weights[-1] == 20 else value), slope

        monkeypatch.setattr(cli, "zeta_record_for_d", recording)
        monkeypatch.setattr(zerocert, "_scaled_with_slope", no_sign_change_at_20)
        rows = self.report_rows(capsys, tmp_path)
        assert not (tmp_path / "roots_w20_d9.json").exists()
        for row, ref in zip(rows, REFERENCE_ROWS):
            if row[0] == "20":
                cause = f"error:RuntimeError: weight 20, d {row[2]}: sign test fails: "
                assert row[:3] == ref[:3] and row[3].startswith(cause) and row[3:] == [row[3]] * 3
            else:
                assert row == ref

    def test_weight_stages_run_once_per_weight(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = periods.relations_kernel

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(periods, "relations_kernel", counting)
        assert self.report_rows(capsys, tmp_path, want_code=0) == REFERENCE_ROWS
        assert len(calls) == len(cli.WEIGHTS)

    @staticmethod
    def report_rows(capsys, out_dir, want_code=1):
        code, _ = run(capsys, ["report", "--out-dir", str(out_dir)])
        assert code == want_code
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == len(REFERENCE_ROWS) == 37
        return rows


def loaded_modules(script, *argv, cwd=None, flags=()):
    """sys.modules, sorted, after `script` has run in a fresh interpreter
    started with the interpreter options flags."""
    script += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(zetapoly.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", script, *argv], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


PIPELINE = ("exactcore", "periods", "rvtransform", "zerocert")

# command -> (its arguments, the zetapoly modules besides cli it may load)
COMMAND_MODULES = {
    "habiro": (["--level", "8"], ("exactcore", "habiro")),
    "lfun": (["--weight", "12"], ("exactcore", "modforms")),
    "periods": (["--weight", "12"], ("exactcore", "periods")),
    "rv": (["--weight", "16", "--d", "5"], PIPELINE),
    "certify": (["--weight", "26", "--d", "15"], PIPELINE),
    "report": ([], PIPELINE),
}

# runs the command in sys.argv[1:] with its output discarded
RUN_CLI = (
    "import contextlib, io, sys\n"
    "import zetapoly.cli as cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    if cli.main(sys.argv[1:]) != 0:\n"
    "        sys.exit('command failed')\n"
)


class TestLazyImports:
    @pytest.mark.parametrize("command", COMMAND_MODULES)
    def test_command_loads_only_its_modules(self, tmp_path, command):
        args, modules = COMMAND_MODULES[command]
        loaded = loaded_modules(RUN_CLI, command, *args, cwd=tmp_path)
        assert {m for m in loaded if m.startswith("zetapoly.")} == {
            f"zetapoly.{m}" for m in ("cli",) + modules
        }
        # lfun sums its L-values in integers and prints them by an integer
        # port of mpmath's formatter; report refines its roots in integers
        assert "mpmath" not in loaded and "cmath" not in loaded
        # the value classes are plain slotted records: no command pays for
        # dataclasses and the inspect machinery it imports
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded
        # the command line is read from cli.COMMANDS, with no argparse and the
        # gettext and locale it loads
        assert not {"argparse", "gettext", "locale", "__future__"}.intersection(loaded)

    @pytest.mark.parametrize(
        "argv", (["habiro", "--level", "8"], ["lfun", "--weight", "12"], ["rv", "--weight", "26", "--d", "60"])
    )
    def test_no_typing_or_pathlib_without_site(self, tmp_path, argv):
        # under -S no site hook preloads them: annotations use builtins and
        # collections.abc, and files are written by open and os.makedirs
        loaded = loaded_modules(RUN_CLI, *argv, cwd=tmp_path, flags=("-S",))
        assert "zetapoly.cli" in loaded
        assert not {"typing", "pathlib", "fnmatch", "urllib"}.intersection(loaded)

    def test_roots_past_double_range_load_no_float_solver(self):
        # A = (v + 10^400)(v + 1) overflows doubles; its roots are still refined in integers
        script = (
            "from zetapoly.exactcore import RatPoly\n"
            "from zetapoly.zerocert import critical_line_certify, critical_line_roots\n"
            "cert = critical_line_certify(RatPoly((10**400, 0, 10**400 + 1, 0, 1)), 0, 1)\n"
            "assert len(critical_line_roots(cert, 0, 128)) == 4\n"
        )
        loaded = loaded_modules(script)
        assert "mpmath" not in loaded and "cmath" not in loaded

    def test_import_package_loads_no_submodule(self):
        loaded = loaded_modules("import zetapoly")
        assert [m for m in loaded if m.startswith("zetapoly")] == ["zetapoly"]
        loaded = loaded_modules("import zetapoly\nzetapoly.periods.relations_kernel")
        assert [m for m in loaded if m.startswith("zetapoly")] == [
            "zetapoly", "zetapoly.exactcore", "zetapoly.periods"
        ]

    def test_exports_are_the_submodules_objects(self):
        assert len(zetapoly.__all__) == len(set(zetapoly.__all__))
        for name in zetapoly.__all__:
            obj = getattr(zetapoly, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            zetapoly.no_such_name


class TestParser:
    @pytest.mark.parametrize(
        "argv, named",
        (
            (["bogus", "--weight", "12"], "'bogus'"),
            (["rv", "--weight", "16", "--bogus", "1"], "--bogus"),
            (["rv", "--weight", "16", "5"], "5"),
            (["rv", "--weight"], "--weight"),
            (["lfun", "--weight", "12", "--s", "--prec-bits", "64"], "--s"),
            (["rv", "--d", "5"], "--weight"),
            (["habiro", "--level", "eight"], "--level"),
            (["habiro", "--level=8.0"], "--level"),
            (["lfun", "--weight", "12", "--prec-bits", "-5"], "--prec-bits"),
            (["rv", "--weight", "16", "--"], "--d, --out"),
            ([], "periods, rv, certify, habiro, lfun, report"),
        ),
        ids=(
            "unknown-command", "unknown-option", "stray-value", "missing-value",
            "option-as-value", "missing-required", "non-integer", "non-integer-eq",
            "nonpositive-bits", "ambiguous-prefix", "no-arguments",
        ),
    )
    def test_usage_error_exits_2_naming_the_culprit(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: zetapoly ")
        assert error.startswith("zetapoly") and ": error: " in error and named in error

    def test_ambiguous_prefix_and_exact_name(self, capsys, monkeypatch):
        handler, text, options = cli.COMMANDS["report"]
        options = dict(options, **{"--out": (str, None, "a second option sharing --out")})
        monkeypatch.setitem(cli.COMMANDS, "report", (handler, text, options))
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["report", "--ou", "x"])
        assert exc.value.code == 2
        assert "ambiguous option: --ou could match --out-dir, --out" in capsys.readouterr().err
        args = cli.parse_args(["report", "--out", "x", "--out-d", "y"])
        assert (args.out, args.out_dir) == ("x", "y")

    @pytest.mark.parametrize(
        "full, short",
        (
            (["lfun", "--weight", "12", "--s", "5", "--prec-bits", "256"],
             ["lfun", "--weight=12", "--s=5", "--prec-bits=256"]),
            (["lfun", "--weight", "12", "--s", "5", "--prec-bits", "256"],
             ["lfun", "--w", "12", "--s", "5", "--prec", "256"]),
            (["report", "--out-dir", "x", "--prec-bits", "53"], ["report", "--o=x", "--p=53"]),
            (["rv", "--weight", "16", "--d", "5", "--out", "-"], ["rv", "--we", "16", "--d=5", "--o", "-"]),
            (["certify", "--weight", "26"], ["certify", "--weight=26"]),
            (["habiro", "--level", "8"], ["habiro", "--lev=8"]),
            (["periods", "--weight", "12"], ["periods", "--weig", "12"]),
        ),
    )
    def test_equals_and_prefix_parse_as_the_full_form(self, full, short):
        assert cli.parse_args(short) == cli.parse_args(full)

    def test_namespace_has_every_option_with_its_default(self):
        args = cli.parse_args(["lfun", "--weight", "12", "--s", "-3"])
        assert vars(args) == {
            "command": "lfun", "func": cli.cmd_lfun,
            "weight": 12, "s": -3, "prec_bits": 128, "out": None,
        }
        args = cli.parse_args(["report"])
        assert (args.command, args.func, args.out_dir, args.prec_bits) == ("report", cli.cmd_report, "report", 128)
        assert cli.parse_args(["certify", "--weight", "18"]).func is cli.cmd_rv

    @pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
    def test_top_level_help_lists_the_commands(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: zetapoly <command>")
        listed = [line.split()[0] for line in out.split("commands:\n")[1].split("\n\n")[0].splitlines()]
        assert listed == ["periods", "rv", "certify", "habiro", "lfun", "report"]

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_command_help_lists_its_options(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: zetapoly {command} ")
        listed = [line.split()[0] for line in out.split("options:\n")[1].splitlines()]
        assert listed == list(cli.COMMANDS[command][2])


class TestDeterminism:
    def test_identical_config_identical_output(self, capsys):
        _, out1 = run(capsys, ["rv", "--weight", "16", "--d", "6"])
        _, out2 = run(capsys, ["rv", "--weight", "16", "--d", "6"])
        assert out1 == out2


@pytest.mark.slow
class TestReportCommand:
    def test_full_sweep(self, tmp_path, capsys):
        code, _ = run(capsys, ["report", "--out-dir", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["weight", "e", "d", "funceq", "unit_circle", "critical_line"]
        assert len(rows) == 37
        assert all(row[3:] == ["pass", "pass", "pass"] for row in rows[1:])
        roots = json.loads((tmp_path / "roots_w16_d5.json").read_text())
        assert len(roots["roots"]) == 4
        assert all(abs(r["re"] + 0.5) < 1e-8 for r in roots["roots"])
