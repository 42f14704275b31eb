import contextlib
import functools
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import build_parser
from test_convolution import count_float_means
from test_tooling import benchmark_argvs, every_subcommand

import freeconv
from freeconv import cli
from freeconv.cli import main
from freeconv.errors import ParseError
from freeconv.measures import Atomic, DensityGrid

SRC = os.path.dirname(os.path.dirname(os.path.abspath(freeconv.__file__)))

BERNOULLI = '{"kind": "atomic", "atoms": [["0", "1/2"], ["1", "1/2"]]}'
DELTA2 = '{"kind": "atomic", "atoms": [["2", "1"]]}'
DELTA3 = '{"kind": "atomic", "atoms": [["3", "1"]]}'
DELTA0 = '{"kind": "atomic", "atoms": [["0", "1"]]}'
RADEMACHER = '{"kind": "atomic", "atoms": [["-1", "1/2"], ["1", "1/2"]]}'
SEMICIRCLE = '{"kind": "semicircle", "center": 0.0, "radius": 2.0}'
SEMICIRCLE_POSITIVE = '{"kind": "semicircle", "center": "3", "radius": "2"}'


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("bernoulli", BERNOULLI),
        ("delta2", DELTA2),
        ("delta3", DELTA3),
        ("delta0", DELTA0),
        ("rademacher", RADEMACHER),
        ("semicircle", SEMICIRCLE),
        ("semicircle_positive", SEMICIRCLE_POSITIVE),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        paths[name] = str(p)
    paths["out"] = str(tmp_path / "out.txt")
    return paths


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ENTRY = [sys.executable, "-m", "freeconv.cli"]


def entry_env() -> dict:
    """The environment of a child Python, with stdout block-buffered
    (PYTHONUNBUFFERED removed), so the flushes before it exits are what
    deliver its output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    return env


def run_entry(args, **kwargs):
    """The CLI run as users run it, ``python -m freeconv.cli``, in a child."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(ENTRY + args, env=entry_env(), timeout=120, **kwargs)


class TestExitCodes:
    def test_success_is_zero(self, files, capsys):
        code, out, _ = run(["moments", files["bernoulli"], "--order", "3"], capsys)
        assert code == 0

    def test_parse_error_is_two(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(["moments", str(bad), "--order", "3"], capsys)
        assert code == 2
        assert "parse" in err

    def test_missing_file_is_two(self, capsys):
        code, _, _ = run(["moments", "/nonexistent.json", "--order", "2"], capsys)
        assert code == 2

    def test_unknown_flag_is_two(self, files, capsys):
        code, _, _ = run(["moments", files["bernoulli"], "--bogus"], capsys)
        assert code == 2

    def test_domain_error_is_three(self, files, capsys):
        # boxtimes with a first moment of zero
        code, _, err = run(
            ["boxtimes", files["delta0"], files["bernoulli"], "--order", "2"], capsys
        )
        assert code == 3
        assert "domain" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["subordinate", "{sc}", "{bern}", "--z", "-0.5"],
            ["boxtimes", "{sc}", "{bern}", "--order", "4", "--method", "subordination"],
            ["boxtimes", "{bern}", "{sc}", "--order", "4", "--method", "all"],
        ],
    )
    def test_semicircle_in_subordination_is_three(self, files, capsys, argv):
        # a semicircle in M+ has moments but no K evaluation: the solver
        # must reject it up front, not report non-convergence
        argv = [a.format(sc=files["semicircle_positive"], bern=files["bernoulli"]) for a in argv]
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert err == "freeconv: domain error: subordination needs K evaluation; semicircles are moments-only\n"

    @pytest.mark.parametrize(
        "measure", ["semicircle_positive", "rademacher", "delta0", "grid_delta0", "delta_underflow"]
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["subordinate", "{mu}", "{bern}"],
            ["subordinate", "{bern}", "{mu}"],
            ["diagnose", "{mu}", "--alpha", "0.5"],
            ["boxtimes", "{bern}", "{mu}", "--order", "3", "--method", "subordination"],
            ["boxtimes", "{mu}", "{bern}", "--order", "3", "--method", "all"],
        ],
    )
    def test_float_layer_refuses_what_is_not_in_m_plus(self, files, tmp_path, capsys, argv, measure):
        # the grid [0, 1] with density 2, 0 has nodal measure delta_0, which
        # the float layer reads, and the atom 10^-400 is 0 in binary64: both
        # are refused as the atomic delta_0 is
        paths = dict(files)
        for name, text in [
            ("grid_delta0", '{"kind": "grid", "x": [0, 1], "f": [2, 0]}'),
            ("delta_underflow", '{"kind": "atomic", "atoms": [["1e-400", "1"]]}'),
        ]:
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(text)
        argv = [a.format(mu=paths[measure], bern=files["bernoulli"]) for a in argv]
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("freeconv: domain error: ") and err.count("\n") == 1

    def test_nonconvergence_is_four(self, files, capsys):
        code, _, err = run(
            [
                "subordinate",
                files["bernoulli"],
                files["bernoulli"],
                "--z",
                "-0.9",
                "--tol",
                "1e-13",
                "--max-iter",
                "2",
            ],
            capsys,
        )
        assert code == 4
        assert "numerical" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "semicircle", "center": 0, "radius": 1e999}',
            '{"kind": "grid", "x": [0, 1, 2], "f": [NaN, 1, 0]}',
            '{"kind": "grid", "x": [0, 1, Infinity], "f": [0, 1, 0]}',
            pytest.param('{"kind": "grid", "x": [0, 1, 1%s], "f": [0, 1, 0]}' % ("0" * 400),
                         id="grid-int-past-binary64"),
            # strings: "p/q" is read as a rational field is, the rest by float()
            *(
                pytest.param('{"kind": "grid", "x": ["0", "%s", "2"], "f": [0, 1, 0]}' % entry, id=name)
                for name, entry in [
                    ("grid-string-inf", "-Infinity"),
                    ("grid-string-nan", "nan"),
                    ("grid-string-huge-exponent", "1e100000000"),
                    ("grid-string-past-binary64", "1%s/3" % ("0" * 400)),
                ]
            ),
        ],
    )
    def test_non_finite_measure_is_two(self, tmp_path, capsys, text):
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        code, _, err = run(["moments", str(path), "--order", "2"], capsys)
        assert code == 2
        assert err.startswith("freeconv: parse error:")
        assert err.count("\n") == 1
        if "grid" in text:  # the message of every grid entry past binary64
            assert err.endswith("grid abscissae and density values must be finite\n")

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[" * 100000, id="nested-arrays"),
            pytest.param('{"kind": ' * 100000, id="nested-objects"),
            pytest.param('{"kind": "atomic", "atoms": [[true, true]]}', id="boolean-atom"),
            pytest.param('{"kind": "atomic", "atoms": [["1", true]]}', id="boolean-weight"),
            pytest.param('{"kind": "semicircle", "center": true, "radius": "2"}', id="boolean-center"),
            pytest.param('{"kind": "grid", "x": [0, true, 2], "f": [0, 1, false]}', id="boolean-grid"),
        ],
    )
    def test_malformed_measure_is_two(self, tmp_path, capsys, text):
        # deep nesting used to escape as a RecursionError traceback, and
        # JSON true used to read as the rational 1
        path = tmp_path / "malformed.json"
        path.write_text(text)
        code, out, err = run(["moments", str(path), "--order", "3"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("freeconv: parse error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param('"x": "01", "f": [0, 1]', id="string"),
            pytest.param('"x": 5, "f": [0, 1]', id="number"),
            pytest.param('"x": [0, 1], "f": {"f": [0, 1]}', id="object"),
            pytest.param('"x": [[0, 1], [2]], "f": [0, 1, 0]', id="ragged"),
            pytest.param('"x": [[0], [1], [2]], "f": [0, 1, 0]', id="nested"),
            pytest.param('"x": [0, 1, 2], "f": [0, 1]', id="unequal"),
        ],
    )
    def test_grid_of_wrong_shape_is_three(self, tmp_path, capsys, fields):
        # a ragged list used to exit 2 with numpy's message about
        # inhomogeneous shapes
        path = tmp_path / "shape.json"
        path.write_text('{"kind": "grid", %s}' % fields)
        code, out, err = run(["moments", str(path), "--order", "2"], capsys)
        assert (code, out) == (3, "")
        assert err == "freeconv: domain error: grid abscissae and density must be 1-d and equal length\n"


class TestHugeAtoms:
    # 10^400 written out in full: exact, but beyond binary64
    HUGE = '{"kind": "atomic", "atoms": [["1%s", "1/2"], ["1", "1/2"]]}' % ("0" * 400)

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", "{huge}", "--alpha", "0.5"],
            ["subordinate", "{huge}", "{bernoulli}", "--z", "-0.5"],
            ["boxtimes", "{huge}", "{bernoulli}", "--order", "3", "--method", "subordination"],
            ["matrixlab", "--word", "T1^2", "--N", "8", "--trials", "2",
             "--ensemble", "diagonal", "--measure", "{huge}"],
        ],
        ids=["diagnose", "subordinate", "boxtimes", "matrixlab"],
    )
    def test_float_overflow_is_three_with_short_message(self, files, tmp_path, capsys, argv):
        huge = tmp_path / "huge.json"
        huge.write_text(self.HUGE)
        paths = {"huge": str(huge), "bernoulli": files["bernoulli"]}
        code, out, err = run([a.format(**paths) for a in argv], capsys)
        assert code == 3
        assert out == ""
        # the atom itself, or the mean (10^400 + 1)/2
        assert re.fullmatch(
            r"freeconv: domain error: (1e\+400|5e\+399) is outside the binary64 range\n", err
        )

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"kind": "atomic", "atoms": [["1e100000000", "1"]]}', id="atomic"),
            pytest.param('{"kind": "semicircle", "center": "0", "radius": "1e-100000000"}',
                         id="semicircle"),
            pytest.param('{"A": [["1E100000000", "0"], ["0", "1"]], "b": ["1", "1"]}',
                         id="form-spec"),
        ],
    )
    def test_huge_decimal_exponent_is_two_at_once(self, files, tmp_path, text):
        # Fraction would build 10^(10^8) first, which takes minutes
        path = tmp_path / "input.json"
        path.write_text(text)
        if '"A"' in text:
            argv = ["characterize", str(path), files["rademacher"], "--max-len", "4"]
        else:
            argv = ["moments", str(path), "--order", "3"]
        result = subprocess.run(ENTRY + argv, env=entry_env(), capture_output=True, text=True,
                                timeout=2)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("freeconv: parse error: ")
        assert result.stderr.endswith(" as a rational: its exponent exceeds 4300 in magnitude\n")
        assert result.stderr.count("\n") == 1

    def test_exact_output_prints_every_digit(self, tmp_path, capsys):
        # {10^400, 1} shifted by 10^-400: m_6 has 4,801 numerator digits,
        # past the 4,300 of Python's int-string conversion limit
        big, tiny = tmp_path / "big.json", tmp_path / "tiny.json"
        big.write_text(self.HUGE)
        tiny.write_text('{"kind": "atomic", "atoms": [["1/1%s", "1"]]}' % ("0" * 400))
        code, out, err = run(["boxplus", str(big), str(tiny), "--order", "6"], capsys)
        assert code == 0 and err == ""
        values = [value for _, value in json.loads(out)["rows"]]
        assert max(map(len, values)) > 4300
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            got = [Fraction(v) for v in values]
        finally:
            sys.set_int_max_str_digits(limit)
        shift = Fraction(1, 10 ** 400)
        assert got == [
            ((10 ** 400 + shift) ** k + (1 + shift) ** k) / 2 for k in range(1, 7)
        ]

    @pytest.mark.parametrize(
        "atom", ['"1%s"' % ("0" * 5000), "1%s" % ("0" * 5000)], ids=["string", "number"]
    )
    def test_overlong_input_number_is_two_with_short_message(self, tmp_path, capsys, atom):
        # 5,001 digits: past the int-string conversion limit, which parsing keeps
        path = tmp_path / "long.json"
        path.write_text('{"kind": "atomic", "atoms": [[%s, "1"]]}' % atom)
        code, out, err = run(["moments", str(path), "--order", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("freeconv: parse error:")
        assert err.count("\n") == 1 and len(err) < 300

    def test_overflowing_trace_is_three_without_warnings(self, tmp_path, capsys):
        # 10^200 fits binary64 but its square does not
        path = tmp_path / "b200.json"
        path.write_text('{"kind": "atomic", "atoms": [["1%s", "1/2"], ["1", "1/2"]]}' % ("0" * 200))
        argv = ["matrixlab", "--word", "T1^2", "--N", "8", "--trials", "2",
                "--ensemble", "diagonal", "--measure", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv, capsys)
        assert code == 3 and out == ""
        assert err == (
            "freeconv: domain error: the trace of 'T1^2' in trial 0 is outside the binary64 range\n"
        )

    def test_grid_moment_past_binary64_is_three_without_warnings(self, tmp_path, capsys):
        # 40^193 overflows: this used to warn from numpy and exit 2, unable
        # to read inf as a rational
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"kind": "grid", "x": list(range(41)), "f": [1 / 40] * 41}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["moments", str(path), "--order", "1000"], capsys)
        assert (code, out) == (3, "")
        assert err == "freeconv: domain error: the grid moment m_193 is outside the binary64 range\n"

    def test_tiny_contour_fit_matches_taylor(self, tmp_path, capsys):
        # support bounds 10^7 put the fit's contour at radius 5e-15
        path = tmp_path / "e7.json"
        path.write_text('{"kind": "atomic", "atoms": [["10000000", "1/2"], ["1", "1/2"]]}')
        argv = ["boxtimes", str(path), str(path), "--order", "2", "--method", "all"]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        for _, taylor, _, fitted in json.loads(out)["rows"]:
            want = float(Fraction(taylor))
            assert abs(float(fitted) - want) <= 1e-6 * want

    def test_tiny_contour_reports_the_residuals_of_its_own_solves(self, tmp_path, capsys):
        # radius 2.5e-201: a solve at a fixed x >= 1e-3 on the negative axis
        # would start at Z_2 = -5e196, and its first step to the proposal
        # -0.752 would round to Z_2 = 0, on [0, inf).  The route solves only
        # on its contour, and reports those solves.
        path = tmp_path / "b200.json"
        path.write_text('{"kind": "atomic", "atoms": [["1%s", "1/2"], ["1", "1/2"]]}' % ("0" * 200))
        two_point = tmp_path / "two_point.json"
        two_point.write_text('{"kind": "atomic", "atoms": [["1", "1/2"], ["2", "1/2"]]}')
        argv = ["boxtimes", str(path), str(two_point), "--order", "1", "--method", "subordination"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        ((_, fitted),) = doc["rows"]
        want = float(Fraction(3 * 10 ** 200 + 3, 4))
        assert abs(float(fitted) - want) <= 1e-6 * want
        assert max(doc["residuals"]) <= 1e-13 and doc["iterations"] >= 1

    def test_fit_bounds_whose_product_underflows_are_three(self, tmp_path, capsys):
        # each bound 1e-200 is a float, their product is not
        path = tmp_path / "small.json"
        path.write_text('{"kind": "atomic", "atoms": [["1e-200", "1"]]}')
        argv = ["boxtimes", str(path), str(path), "--order", "2", "--method", "subordination"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, "")
        assert err == (
            "freeconv: domain error: the fit's support bounds 1e-200 and 1e-200 multiply to 0 in binary64\n"
        )

    def test_fit_radius_overflow_is_three_without_warnings(self, tmp_path, capsys):
        # radius 2.5e-201, so radius^-3 overflows binary64
        path = tmp_path / "b200.json"
        path.write_text('{"kind": "atomic", "atoms": [["1%s", "1/2"], ["1", "1/2"]]}' % ("0" * 200))
        two_point = tmp_path / "two_point.json"
        two_point.write_text('{"kind": "atomic", "atoms": [["1", "1/2"], ["2", "1/2"]]}')
        argv = ["boxtimes", str(path), str(two_point), "--order", "3", "--method", "all"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv, capsys)
        assert code == 3 and out == ""
        assert err == (
            "freeconv: domain error: contour radius 2.5e-201 is too small for 3 coefficients: "
            "radius^-3 is outside the binary64 range\n"
        )


def parse_both(argv: list[str]):
    """The fields the argparse oracle and the command table read off
    ``argv``: a dict of them, 0 for help, 2 for a parse error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            want = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            want = exc.code
        try:
            got = cli.parse(argv)
        except ParseError:
            return want, 2
    return want, 0 if got is None else vars(got)


class TestParser:
    """The command table parses every argv that argparse parsed to the
    same fields, and each malformed argv is one parse-error line."""

    VARIANTS = [
        ["moments", "m.json", "--order=4", "--format=csv", "--output=o.txt"],
        ["cumulants", "m.json", "--ord", "4", "--k", "free", "--f", "csv", "--out", "o.txt"],
        ["subordinate", "a", "b", "--max", "3", "--to", "1e-9", "--g", "5", "--z", "-0.5"],
        ["matrixlab", "--w", "T1 T2", "--tr", "3", "--s", "2", "--e", "diagonal", "--me", "m.json"],
        ["boxtimes", "--order", "8", "a", "--method", "all", "b"],
        ["diagnose", "--alpha", "0.5", "m.json"],
        ["characterize", "spec.json", "m.json", "--max-len", "6"],
        ["characterize", "m.json", "--n", "3", "--preset", "mean-variance"],
        ["characterize", "--preset", "mean-variance", "--", "m.json"],
        ["--threads", "2", "moments", "m.json", "--order", "3"],
        ["--th=2", "--threads", "3", "boxplus", "a", "b", "--order", "2", "--order", "5"],
        ["moments", "--order", "3", "--", "-m.json"],
        ["moments", "-x y.json", "--order", "3"],
        ["--help"],
        ["--threads", "2", "-h", "moments"],
        ["moments", "--he"],
        ["moments", "m.json", "extra", "-h"],
    ]

    @pytest.mark.parametrize("argv", [*benchmark_argvs(), *every_subcommand(), *VARIANTS])
    def test_fields_match_the_argparse_oracle(self, argv):
        want, got = parse_both(argv)
        assert isinstance(want, dict) or want == 0
        assert got == want

    @given(st.lists(st.sampled_from([
        "moments", "cumulants", "boxtimes", "subordinate", "characterize", "matrixlab", "bogus",
        "a.json", "3", "-3", "-.5", "-1e-3", "x y", "-x y", "", "-", "--", "-h", "--he", "-q",
        "--threads", "--th=2", "--order", "--or=4", "--o", "--output", "--f", "csv", "--kind",
        "--method", "all", "--z", "--max", "--preset", "mean-variance", "--n", "--max-len",
        "--word", "--N", "--e", "diagonal", "--measure", "--bogus",
    ]), max_size=8))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_drawn_argv_parses_as_argparse_parsed_it(self, argv):
        want, got = parse_both(argv)
        # argparse sets a list for a positional it fills with "--" only,
        # as in "characterize -- --": no run could read that
        if want == 0 or isinstance(want, dict) and not any(isinstance(v, list) for v in want.values()):
            assert got == want

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param([], id="no-command"),
            pytest.param(["bogus"], id="unknown-command"),
            pytest.param(["moments", "{bernoulli}", "--order", "3", "--bogus"], id="unknown-option"),
            pytest.param(["moments", "{bernoulli}"], id="missing-required-option"),
            pytest.param(["boxplus", "{bernoulli}", "--order", "3"], id="missing-positional"),
            pytest.param(["moments", "{bernoulli}", "--order"], id="missing-value"),
            pytest.param(["moments", "{bernoulli}", "--order", "x"], id="bad-int"),
            pytest.param(["diagnose", "{bernoulli}", "--alpha", "half"], id="bad-float"),
            pytest.param(["--threads", "two", "moments", "{bernoulli}", "--order", "3"], id="bad-threads"),
            pytest.param(["cumulants", "{bernoulli}", "--order", "3", "--kind", "classical"], id="bad-choice"),
            pytest.param(["moments", "{bernoulli}", "--o", "3"], id="ambiguous-prefix"),
            pytest.param(["moments", "{bernoulli}", "{bernoulli}", "--order", "3"], id="extra-positional"),
            pytest.param(["moments", "{bernoulli}", "--order", "3", "--output", "a\nb", "c\nd"],
                         id="newline-in-argument"),
        ],
    )
    def test_malformed_argv_is_one_parse_error_line(self, files, capsys, argv):
        code, out, err = run([a.format(**files) for a in argv], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("freeconv: parse error:") and err.count("\n") == 1

    def test_help_comes_from_the_command_table(self, capsys):
        code, out, err = run(["--help"], capsys)
        assert (code, err) == (0, "")
        assert all(name in out for name in [*cli.COMMANDS, *cli.GLOBAL_OPTIONS])
        for name, (about, _, options) in cli.COMMANDS.items():
            code, out, err = run([name, "-h"], capsys)
            assert (code, err) == (0, "")
            assert about in out and all(flag in out for flag in options)
            # a choice list stands apart from the note after it
            choices = ["{%s}" % ",".join(kind) for kind, _, _ in options.values() if isinstance(kind, tuple)]
            assert set(choices) <= set(out.split())


class TestMomentsAndCumulants:
    def test_boolean_cumulants_table(self, files, capsys):
        code, out, _ = run(
            ["cumulants", files["bernoulli"], "--order", "4", "--kind", "boolean",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert "1,1/2" in out and "4,1/16" in out

    def test_free_cumulants_of_semicircle(self, files, capsys):
        code, out, _ = run(
            ["cumulants", files["semicircle"], "--order", "4", "--kind", "free",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows[1:] == ["1,0", "2,1", "3,0", "4,0"]

    @pytest.mark.parametrize("command", ["moments", "cumulants"])
    def test_far_apart_atoms_at_order_60(self, tmp_path, capsys, command):
        # binary64 overflows on these moments; the check must stay exact
        path = tmp_path / "far.json"
        path.write_text('{"kind": "atomic", "atoms": [[1000000, "1/2"], [1, "1/2"]]}')
        code, out, _ = run([command, str(path), "--order", "60"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][-1][0] == 60

    def test_point_mass_moments(self, files, capsys):
        code, out, _ = run(
            ["moments", files["delta2"], "--order", "3", "--format", "csv"], capsys
        )
        assert "3,8" in out


class TestBoxtimes:
    def test_point_masses(self, files, capsys):
        code, out, _ = run(
            ["boxtimes", files["delta2"], files["delta3"], "--order", "3",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert "1,6" in out and "2,36" in out and "3,216" in out

    def test_method_all_agreement(self, files, capsys):
        code, out, _ = run(
            ["boxtimes", files["bernoulli"], files["bernoulli"], "--order", "3",
             "--method", "all"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["taylor_equals_oracle"] is True
        assert float(doc["max_subordination_discrepancy"]) < 1e-6
        assert doc["iterations"] >= 1

    def test_json_schema_keys(self, files, capsys):
        code, out, _ = run(
            ["boxtimes", files["bernoulli"], files["bernoulli"], "--order", "2",
             "--method", "subordination"],
            capsys,
        )
        doc = json.loads(out)
        assert set(doc).issuperset({"moments", "residuals", "iterations", "meta"})


class TestSubordinate:
    def test_single_point(self, files, capsys):
        code, out, _ = run(
            ["subordinate", files["delta2"], files["delta3"], "--z", "-0.1",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("-0.1")][0]
        fields = row.split(",")
        assert abs(float(fields[1].split("+")[0]) - (-0.3)) < 1e-9

    def test_grid_rows(self, files, capsys):
        code, out, _ = run(
            ["subordinate", files["bernoulli"], files["bernoulli"], "--grid", "5",
             "--format", "csv"],
            capsys,
        )
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(rows) == 6  # header + 5 grid points

    def test_means_taken_once_per_grid(self, files, capsys, monkeypatch):
        # every grid point used to recompute both exact means: 62 moment
        # calls on the default 31-point grid; each measure takes its own once
        argv = ["subordinate", files["bernoulli"], files["delta2"]]
        taken = count_float_means(monkeypatch)
        code, out, _ = run(argv, capsys)
        monkeypatch.undo()
        assert code == 0 and taken == [Atomic([(0, "1/2"), (1, "1/2")]), Atomic([(2, 1)])]
        assert len(json.loads(out)["rows"]) == 31

        # byte-identical to taking both means afresh at every point
        for cls in (Atomic, DensityGrid):
            monkeypatch.setattr(cls, "float_mean", property(vars(cls)["float_mean"].func))
        assert run(argv, capsys) == (0, out, "")

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--z=-1,0,7"], 2),
            (["--z=-inf"], 3),
            (["--z=inf,1"], 3),
            (["--tol", "inf"], 3),
            (["--tol", "nan"], 3),
            (["--max-iter", "0"], 3),
            (["--grid", "0"], 3),
            (["--grid", "-4"], 3),
            (["--grid", "3077"], 3),  # its last point -10^(-307.7) is subnormal
        ],
    )
    def test_unusable_values_are_rejected(self, files, capsys, flags, code):
        got, out, err = run(
            ["subordinate", files["bernoulli"], files["bernoulli"], *flags], capsys
        )
        assert (got, out) == (code, "")
        assert err.startswith("freeconv: ") and err.count("\n") == 1

    @pytest.mark.parametrize("z", ["-1e-3", "-0.5,0.1"])
    def test_negative_point_in_any_form_follows_its_flag(self, files, capsys, z):
        # argparse took a value led by "-" for a flag unless it read as a
        # plain negative decimal, so only the "--z=" spelling worked
        argv = ["subordinate", files["bernoulli"], files["bernoulli"]]
        code, out, err = run([*argv, "--z", z], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["rows"] == json.loads(run([*argv, f"--z={z}"], capsys)[1])["rows"]

    def test_huge_atoms_reach_no_pole(self, tmp_path, capsys):
        # at Z_1 = -5.5e-100 every z u is -5.5e100 or below, so 1 + psi
        # cancelled to 0, a pole of psi/(1 + psi) that K does not have; here
        # K(z) is z / E[1/u] of the product, E[1/u] = (5.5e-201)^2.  The
        # first iterate is accepted: |K_1 - K_2| = 7.8e84 is 2 ulp of |K|.
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "atomic", "atoms": [["1%s", "1/2"], ["1%s", "1/2"]]}'
                        % ("0" * 200, "0" * 201))
        code, out, err = run(["subordinate", str(path), str(path), "--z=-1e-300"], capsys)
        assert (code, err) == (0, "")
        ((z, _, _, k_value, _, _, iterations),) = json.loads(out)["rows"]
        assert (z, k_value, iterations) == ("-1e-300+0j", "-3.30578512397e+100+0j", 1)

    @pytest.mark.parametrize("z", ["-5", "-10", "-20"])
    def test_residuals_at_rounding_of_large_terms_are_accepted(self, tmp_path, capsys, z):
        # |K| is about 1.8e6 at z = -10: its 1 ulp, 2.3e-10, is far above
        # tol = 1e-12, and was the last residual_2 of 500 iterations at
        # z = -10 and z = -20
        point = tmp_path / "d1e4.json"
        point.write_text('{"kind": "atomic", "atoms": [["10000", "1"]]}')
        pair = tmp_path / "d10_100.json"
        pair.write_text('{"kind": "atomic", "atoms": [["10", "1/2"], ["100", "1/2"]]}')
        code, out, err = run(["subordinate", str(point), str(pair), f"--z={z}"], capsys)
        assert (code, err) == (0, "")
        ((_, _, _, k_value, res1, res2, _),) = json.loads(out)["rows"]
        k = abs(complex(k_value))
        assert 9e5 < k < 4e6
        assert max(float(res1), float(res2)) <= 4 * math.ulp(k)

    def test_huge_grid_is_rejected_before_any_point_is_built(self, files):
        # under a 1 GiB address-space cap, a grid built before the check
        # fails fast as a MemoryError line that does not name --grid
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        result = run_entry(
            ["subordinate", files["bernoulli"], files["bernoulli"], "--grid", str(10**12)],
            preexec_fn=cap_memory,
        )
        assert (result.returncode, result.stdout) == (3, b"")
        assert result.stderr.decode().count("\n") == 1 and "--grid" in result.stderr.decode()


class TestThreads:
    def test_threads_below_one_is_two(self, files, capsys):
        code, out, err = run(
            ["--threads", "-3", "cumulants", files["bernoulli"], "--order", "2"], capsys
        )
        assert (code, out) == (2, "")
        assert err == "freeconv: parse error: --threads must be a positive integer, got -3\n"

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_environment_value_is_two(self, files, capsys, monkeypatch, value):
        monkeypatch.setenv("FREECONV_THREADS", value)
        code, out, err = run(["cumulants", files["bernoulli"], "--order", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"freeconv: parse error: FREECONV_THREADS must be a positive integer, got {value!r}\n"
        )

    def test_environment_value_reaches_the_header(self, files, capsys, monkeypatch):
        monkeypatch.setenv("FREECONV_THREADS", "2")
        code, out, _ = run(["cumulants", files["bernoulli"], "--order", "2"], capsys)
        assert code == 0 and json.loads(out)["meta"]["threads"] == 2


class TestDiagnose:
    def test_delta_sandwich_line(self, files, tmp_path, capsys):
        delta1 = tmp_path / "delta1.json"
        delta1.write_text('{"kind": "atomic", "atoms": [["1", "1"]]}')
        code, out, _ = run(
            ["diagnose", str(delta1), "--alpha", "0.5"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "finite"
        assert doc["sandwich"].startswith("0.5 <= 1 <= 4")

    @pytest.mark.parametrize("atom, alpha", [("1000000000", "0.9"), ("100000000", "0.99")])
    def test_large_mean_meets_its_scaled_bound(self, tmp_path, capsys, atom, alpha):
        # the quadrature error, 1.29e-8 and 1.02e-8, is rounding of a remainder
        # of size m_1/(1 - alpha): an absolute bound of 1e-8 refused it
        path = tmp_path / "delta.json"
        path.write_text('{"kind": "atomic", "atoms": [["%s", "1"]]}' % atom)
        code, out, err = run(["diagnose", str(path), "--alpha", alpha], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["sandwich"].split(" <= ")[1] == atom  # I = c for delta_c

    def test_grid_with_mass_below_zero_is_three(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"kind": "grid", "x": [-1, 0, 1], "f": [0, 1, 0]}')
        code, out, _ = run(["diagnose", str(grid), "--alpha", "0.5"], capsys)
        assert code == 3
        assert out == ""

    def test_grid_with_zero_node_at_minus_one(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"kind": "grid", "x": [-1, 0, 1, 2], "f": [0, 0, 1, 0]}')
        code, out, _ = run(["diagnose", str(grid), "--alpha", "0.5"], capsys)
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        assert json.loads(out, parse_constant=reject)["c_mu"] == 2.0

    def test_semicircle_is_three(self, files, capsys):
        # semicircles have moments but no K evaluation and no m_alpha
        code, out, err = run(["diagnose", files["semicircle_positive"], "--alpha", "0.5"], capsys)
        assert (code, out) == (3, "")
        assert err == "freeconv: domain error: diagnostics need K evaluation; semicircles are moments-only\n"

    def test_slowly_settling_probes_print_nothing_to_stderr(self, tmp_path, capsys):
        # a benchmark measure on which the probe quadrature used to warn
        path = tmp_path / "pos2.json"
        path.write_text('{"kind": "atomic", "atoms": [["3/2", "2/3"], ["5/2", "1/3"]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["diagnose", str(path), "--alpha", "0.75"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["verdict"] == "finite"


class TestCharacterize:
    def test_semicircle_preset_consistent(self, files, capsys):
        code, out, _ = run(
            ["characterize", "--preset", "mean-variance", "--n", "2",
             files["semicircle"], "--max-len", "6", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert "verdict=consistent-with-free" in out

    def test_rademacher_preset_detected(self, files, capsys):
        code, out, _ = run(
            ["characterize", "--preset", "mean-variance", "--n", "2",
             files["rademacher"], "--max-len", "6", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert "verdict=not-free-at-order-4" in out
        assert "L Q L,4,-1/8" in out

    def test_invalid_spec_exits_three_naming_condition(self, files, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"n": 2, "A": [["1","0"],["0","1"]], "b": ["1","1"]}')
        code, _, err = run(
            ["characterize", str(spec), files["semicircle"], "--max-len", "4"], capsys
        )
        assert code == 3
        assert "mean-annihilation" in err

    def test_power_sum_vanishing_past_n_exits_three(self, files, tmp_path, capsys):
        # admissible but for s_4 = sum_j b_j^4 a_jj = 0
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"A": [["-17","-10","7/2"],["-10","1","11/2"],["7/2","11/2","1"]],'
            ' "b": ["1","-1","2"]}'
        )
        code, _, err = run(
            ["characterize", str(spec), files["rademacher"], "--max-len", "4"], capsys
        )
        assert code == 3
        assert "power-sum condition sum b_j^m a_jj != 0 fails at m = 4" in err
        assert err.count("\n") == 1

    def test_form_without_diagonal_coupling_exits_three_at_the_first_power_sum(
        self, files, tmp_path, capsys
    ):
        # A b = 0 and every b_j a_jj = 0: s_1 = 0 says it, and no separate
        # coupling clause follows
        spec = tmp_path / "spec.json"
        spec.write_text('{"A": [[0, 0, 1], [0, 0, 1], [1, 1, 5]], "b": [1, -1, 0]}')
        code, out, err = run(
            ["characterize", str(spec), files["rademacher"], "--max-len", "6"], capsys
        )
        assert (code, out) == (3, "")
        assert err == (
            "freeconv: domain error: refusing to run the dichotomy on an inadmissible "
            "form: diagonal power-sum condition sum b_j^m a_jj != 0 fails at m = 1\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            '{"A": 5, "b": [1, 2]}',
            "[1, 2]",
            '{"A": [[0, 0], [0, 0]], "b": 3}',
            pytest.param("[" * 100000, id="nested-arrays"),
            pytest.param('{"A": [[true, 0], [0, 1]], "b": [1, -1]}', id="boolean-entry"),
            pytest.param('{"A": [[1, 0], [0, 1]], "b": [true, -1]}', id="boolean-coefficient"),
        ],
    )
    def test_malformed_spec_is_two(self, files, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        code, _, err = run(["characterize", str(spec), files["rademacher"]], capsys)
        assert code == 2
        assert err.startswith("freeconv: parse error:")
        assert err.count("\n") == 1

    def test_spec_with_preset_is_two(self, files, capsys):
        # the preset used to win without a word, even over a missing file
        argv = ["characterize", "/nonexistent/spec.json", files["rademacher"],
                "--preset", "mean-variance", "--max-len", "4"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "freeconv: parse error: give a form spec file or --preset mean-variance, not both\n"

    def test_explicit_spec_file(self, files, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"n": 2, "A": [["1/4","-1/4"],["-1/4","1/4"]], "b": ["1/2","1/2"]}'
        )
        code, out, _ = run(
            ["characterize", str(spec), files["rademacher"], "--max-len", "4",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert "not-free-at-order-4" in out


class TestMatrixlab:
    def test_deterministic_output(self, files, capsys):
        args = [
            "matrixlab", "--word", "T1 T2 T1 T2", "--N", "48", "--trials", "10",
            "--seed", "9", "--ensemble", "diagonal", "--measure", files["bernoulli"],
            "--format", "csv",
        ]
        code1, out1, _ = run(args, capsys)
        code2, out2, _ = run(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "T1 T2 T1 T2" in out1

    def test_measure_without_diagonal_is_two(self, files, capsys):
        # --measure used to be read and ignored: the GOE default was sampled
        for ensemble in ([], ["--ensemble", "goe"]):
            argv = ["matrixlab", "--word", "T1^2", "--N", "8", "--trials", "4",
                    "--measure", files["bernoulli"], *ensemble]
            code, out, err = run(argv, capsys)
            assert (code, out) == (2, "")
            assert err == "freeconv: parse error: --measure applies only to --ensemble diagonal\n"

    def test_goe_word(self, files, capsys):
        code, out, _ = run(
            ["matrixlab", "--word", "T1^4", "--N", "64", "--trials", "12",
             "--seed", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row[5] == "2"  # exact semicircle fourth moment

    def test_family_follows_first_use_of_variables(self, capsys):
        # T3^2 samples the one member T1^2 samples; only the printed word
        # differs
        rows = {}
        for text in ("T1^2", "T3^2", "T1 T2 T1 T2", "T4 T2 T4 T2"):
            code, out, _ = run(
                ["matrixlab", "--word", text, "--N", "16", "--trials", "4", "--seed", "5"],
                capsys,
            )
            assert code == 0
            rows[text] = json.loads(out)["rows"][0]
        for given, first_use in (("T3^2", "T1^2"), ("T4 T2 T4 T2", "T1 T2 T1 T2")):
            assert rows[given][0] == given
            assert rows[given][1:] == rows[first_use][1:]

    def test_goe_square_carries_the_finite_n_term(self, capsys):
        # E tau(T1^2) = 1 + 1/N for GOE; the z column is against the
        # N = infinity moment 1, so it is labelled asymptotic
        n = 8
        code, out, _ = run(
            ["matrixlab", "--word", "T1^2", "--N", str(n), "--trials", "400",
             "--seed", "3", "--format", "csv"],
            capsys,
        )
        assert code == 0
        header, row = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert header == ["word", "N", "trials", "mean", "se", "exact", "z-asymptotic"]
        mean, se = float(row[3]), float(row[4])
        assert abs(mean - (1 + 1 / n)) <= 4 * se

    def test_header_echoes_seed_and_version(self, files, capsys):
        code, out, _ = run(
            ["matrixlab", "--word", "T1 T2", "--N", "32", "--trials", "8",
             "--seed", "77", "--format", "csv"],
            capsys,
        )
        assert "# seed=77" in out
        assert "# version=" in out
        assert "# command=" in out


    def test_word_too_large_for_memory_exits_three(self, capsys):
        # 10^15 letters cannot be allocated on any host
        code, out, err = run(
            ["matrixlab", "--word", "T1^1000000000000000", "--N", "4", "--trials", "2"], capsys
        )
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "memory" in err

    def test_trial_table_over_budget_exits_three_before_any_trial(self):
        # 10^9 trials of one word fill an 8 GB table; under a 1 GiB
        # address-space cap the budget check must fire before any trial runs
        # (without it, memory grew with every trial until the cap)
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        result = run_entry(
            ["matrixlab", "--word", "T1 T2", "--N", "4", "--trials", str(10**9)],
            preexec_fn=cap_memory,
        )
        assert (result.returncode, result.stdout) == (3, b"")
        assert result.stderr == (
            b"freeconv: domain error: family and trace table need 8000000256 bytes, "
            b"over the 1073741824 budget\n"
        )


class TestOutputFile:
    def test_writes_file(self, files, capsys):
        code, out, _ = run(
            ["moments", files["bernoulli"], "--order", "2", "--output", files["out"]],
            capsys,
        )
        assert code == 0
        assert out == ""
        with open(files["out"]) as handle:
            doc = json.load(handle)
        assert doc["rows"][0][1] == "1/2"

    def test_missing_output_directory_is_two(self, files, tmp_path, capsys):
        target = str(tmp_path / "no-such-dir" / "out.json")
        code, out, err = run(
            ["moments", files["bernoulli"], "--order", "2", "--output", target],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "cannot write" in err


class TestEntryPoint:
    """``python -m freeconv.cli`` ends with ``os._exit`` after flushing;
    what it prints and its exit code are those of an in-process ``main``."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["moments", "{bernoulli}", "--order", "3"], 0),
            (["--help"], 0),
            (["moments", "/nonexistent.json", "--order", "2"], 2),
            (["moments", "{bernoulli}", "--bogus"], 2),
            (["boxtimes", "{delta0}", "{bernoulli}", "--order", "2"], 3),
            (["subordinate", "{bernoulli}", "{bernoulli}", "--z", "-0.5", "--max-iter", "1"], 4),
        ],
    )
    def test_same_result_as_main(self, files, capsys, argv, code):
        argv = [a.format(**files) for a in argv]
        want = run(argv, capsys)
        result = run_entry(argv)
        assert want[0] == code
        assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == want

    def test_long_output_arrives_whole_through_a_pipe_and_a_file(self, files, capsys, tmp_path):
        argv = ["subordinate", files["bernoulli"], files["delta2"], "--grid", "600"]
        _, want, _ = run(argv, capsys)
        assert len(want) > 1 << 16
        assert run_entry(argv).stdout.decode() == want
        with open(tmp_path / "out.json", "wb") as handle:
            assert run_entry(argv, stdout=handle).returncode == 0
        assert (tmp_path / "out.json").read_text() == want

    def test_threads_give_the_same_rows(self, files):
        rows = []
        for threads in ("1", "2"):
            result = run_entry(
                ["--threads", threads, "matrixlab", "--word", "T1 T2 T1 T2", "--N", "16",
                 "--trials", "8", "--ensemble", "diagonal", "--measure", files["bernoulli"]]
            )
            assert result.returncode == 0
            rows.append(json.loads(result.stdout)["rows"])
        assert rows[0] == rows[1]

    def test_exception_escaping_main_is_a_traceback_and_one(self):
        probe = (
            "from freeconv import cli\n"
            "def main():\n    raise RuntimeError('escaped')\n"
            "cli.main = main\n"
            "cli.run()\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=entry_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("Traceback")
        assert result.stderr.endswith("RuntimeError: escaped\n")


class TestFailedStderr:
    """An error line that stderr cannot take is lost; the exit code is the
    error's own, and nothing reaches stdout."""

    CASES = [
        (["moments", "/nonexistent.json", "--order", "2"], 2),
        (["boxtimes", "{delta0}", "{bernoulli}", "--order", "2"], 3),
    ]

    @pytest.mark.parametrize("argv, code", CASES)
    def test_full_device(self, files, argv, code):
        with open("/dev/full", "wb") as full:
            result = run_entry([a.format(**files) for a in argv], stderr=full)
        assert (result.returncode, result.stdout) == (code, b"")

    @pytest.mark.parametrize("argv, code", CASES)
    def test_stderr_closed(self, files, argv, code):
        result = run_entry(
            [a.format(**files) for a in argv],
            stderr=None,
            preexec_fn=functools.partial(os.close, 2),
        )
        assert (result.returncode, result.stdout) == (code, b"")


class TestFailedStdout:
    """A write to stdout that fails is one parse-error line and exit 2,
    as a failed write to ``--output`` is."""

    @staticmethod
    def check(code, err):
        assert code == 2
        assert err.startswith(b"freeconv: parse error: cannot write stdout: ")
        assert err.count(b"\n") == 1

    def test_reader_gone_mid_output(self, files):
        # over 64 KiB, so the write blocks on the full pipe until the reader leaves
        with subprocess.Popen(
            ENTRY + ["subordinate", files["bernoulli"], files["delta2"], "--grid", "600"],
            env=entry_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
        self.check(proc.returncode, err)

    def test_reader_gone_before_a_short_output(self, files):
        read, write = os.pipe()
        os.close(read)
        try:
            result = run_entry(["moments", files["bernoulli"], "--order", "3"], stdout=write)
        finally:
            os.close(write)
        self.check(result.returncode, result.stderr)

    def test_stdout_closed(self, files):
        result = run_entry(
            ["moments", files["bernoulli"], "--order", "3"],
            stdout=None,
            preexec_fn=functools.partial(os.close, 1),
        )
        self.check(result.returncode, result.stderr)

    def test_full_device(self, files):
        with open("/dev/full", "wb") as full:
            result = run_entry(["moments", files["bernoulli"], "--order", "3"], stdout=full)
        self.check(result.returncode, result.stderr)
