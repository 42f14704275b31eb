"""Fuzzed input files and argument lists never crash the command line.

Every run must end in one of the documented exit codes, 0 ok, 2 parse,
3 domain or 4 non-convergence, with no exception escaping ``main``.
Inputs are drawn mostly well formed, so that runs reach the numerical
code, with malformed JSON, schemas and flags mixed in.  Rationals reach
magnitudes 10^+-400, beyond binary64, whose exact results at order 6
run past Python's 4,300-digit int-string conversion limit.  Orders,
dimensions and trial counts stay small so each example is cheap.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from freeconv.cli import main

EXIT_CODES = {0, 2, 3, 4}

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-50, 50),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0", "1/2", "-3/4", "2", "1e3", "1/0", "x", ""]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "atoms", "A", "b", "x"]), inner, max_size=3),
    max_leaves=12,
)
HUGE = Fraction(10 ** 400)
extremes = st.sampled_from([HUGE, -HUGE, 1 / HUGE, -3 / HUGE])
rationals = st.one_of(
    st.integers(-5, 5),
    st.fractions(-5, 5, max_denominator=7).map(str),
    st.floats(-5, 5),
    extremes.map(str),
)

valid_measures = st.one_of(
    st.builds(
        lambda locs: {"kind": "atomic", "atoms": [[str(x), f"1/{len(locs)}"] for x in locs]},
        st.lists(
            st.fractions(-5, 5, max_denominator=7) | extremes, min_size=1, max_size=4, unique=True
        ),
    ),
    st.builds(
        lambda c, r: {"kind": "semicircle", "center": c, "radius": r},
        rationals,
        st.integers(1, 4),
    ),
    st.builds(
        lambda a: {"kind": "grid", "x": [a, a + 1, a + 2], "f": [0, 1, 0]},
        st.integers(-2, 3),
    ),
)
malformed_measures = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {
            "kind": st.just("atomic"),
            "atoms": st.lists(st.tuples(rationals, rationals).map(list), max_size=4)
            | json_values,
        }
    ),
    st.fixed_dictionaries(
        {"kind": st.just("semicircle"), "center": scalars, "radius": rationals | scalars}
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("grid"),
            "x": st.lists(st.floats(-3, 3), max_size=5) | json_values,
            "f": st.lists(st.floats(0, 3), max_size=5) | json_values,
        }
    ),
)
measure_docs = st.one_of(valid_measures, valid_measures, malformed_measures)

spec_docs = st.one_of(
    st.builds(
        lambda c: {"A": [[c, -c], [-c, c]], "b": [1, 1]},
        st.integers(1, 3),
    ),
    st.fixed_dictionaries(
        {
            "A": st.lists(st.lists(rationals, min_size=2, max_size=3), min_size=2, max_size=3),
            "b": st.lists(rationals, min_size=2, max_size=3),
        }
    ),
    json_values,
)


def mostly(valid, *malformed):
    """Draw from ``valid`` two times in three, else one of ``malformed``."""
    return st.one_of(valid, valid, st.sampled_from(malformed))


orders = mostly(st.integers(0, 6).map(str), "-1", "x", "1.5")
words = st.lists(
    mostly(st.sampled_from(["T1", "T2", "T1^2", "T2^3", "T3"]), "T0", "T1^0", "X"),
    max_size=4,
).map(" ".join)


@st.composite
def argvs(draw):
    """An argument list for one subcommand; MU1, MU2 and SPEC name the
    measure and form-spec files, OUT an output file."""
    command = draw(
        mostly(
            st.sampled_from(
                ["moments", "cumulants", "boxplus", "boxtimes", "subordinate",
                 "diagnose", "characterize", "matrixlab"]
            ),
            "bogus",
        )
    )
    if command in ("moments", "cumulants", "diagnose"):
        args = ["MU1"]
    elif command == "characterize":
        args = draw(mostly(st.just(["SPEC", "MU1"]), ["MU1"], []))
    elif command in ("matrixlab", "bogus"):
        args = []
    else:
        args = ["MU1", "MU2"]
    if command in ("moments", "cumulants", "boxplus", "boxtimes"):
        args += ["--order", draw(orders)]
    if command == "cumulants":
        args += ["--kind", draw(mostly(st.sampled_from(["boolean", "free"]), "other"))]
    if command == "boxtimes":
        args += ["--method", draw(st.sampled_from(["taylor", "oracle", "subordination", "all"]))]
    if command == "subordinate":
        z = draw(mostly(st.sampled_from(["-0.5", "-1e-3", "0.1,0.5"]), "0.5", "1,", "a"))
        args += draw(st.sampled_from([["--z", z], ["--grid", "3"]]))
        args += ["--max-iter", draw(st.sampled_from(["1", "50"]))]
    if command == "diagnose":
        args += ["--alpha", draw(mostly(st.sampled_from(["0.25", "0.5"]), "0", "1", "nan"))]
    if command == "characterize":
        if draw(st.booleans()):
            args += ["--preset", "mean-variance", "--n", draw(st.integers(1, 3).map(str))]
        args += ["--max-len", draw(orders)]
    if command == "matrixlab":
        args += ["--word", draw(words), "--N", draw(st.integers(0, 4).map(str)),
                 "--trials", draw(st.integers(1, 3).map(str))]
        args += draw(st.sampled_from([[], ["--ensemble", "diagonal", "--measure", "MU1"]]))
    args += draw(
        mostly(st.sampled_from([[], ["--format", "csv"], ["--output", "OUT"]]),
               ["--output", "missing/OUT"])
    )
    return [command, *args]


def run_in(directory: Path, argv: list[str]) -> int:
    paths = {name: str(directory / name) for name in ("MU1", "MU2", "SPEC", "OUT")}
    paths["missing/OUT"] = str(directory / "missing" / "OUT")
    argv = [paths.get(a, a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


RADEMACHER = {"kind": "atomic", "atoms": [[-1, "1/2"], [1, "1/2"]]}
FAR_APART = {"kind": "atomic", "atoms": [[1000000, "1/2"], [1, "1/2"]]}
DELTA0 = {"kind": "atomic", "atoms": [[0, 1]]}
BIG = {"kind": "atomic", "atoms": [[str(HUGE), "1/2"], [1, "1/2"]]}
TINY = {"kind": "atomic", "atoms": [[str(1 / HUGE), 1]]}


@given(
    argv=argvs(),
    mu1=measure_docs,
    mu2=measure_docs,
    spec=spec_docs,
    raw=st.sampled_from([False, False, False, True]),
)
@example(["characterize", "SPEC", "MU1"], RADEMACHER, None, {"A": 5, "b": [1, 2]}, False)
@example(["characterize", "SPEC", "MU1"], RADEMACHER, None, [1, 2], False)
@example(["characterize", "SPEC", "MU1"], RADEMACHER, None, {"A": [[0, 0], [0, 0]], "b": 3}, False)
@example(["moments", "MU1", "--order", "60"], FAR_APART, None, None, False)
@example(["cumulants", "MU1", "--order", "60"], FAR_APART, None, None, False)
@example(["boxtimes", "MU1", "MU2", "--order", "1", "--method", "subordination"],
         DELTA0, DELTA0, None, False)
@example(["boxplus", "MU1", "MU2", "--order", "6"], BIG, TINY, None, False)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exits_with_a_documented_code(argv, mu1, mu2, spec, raw):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, doc in (("MU1", mu1), ("MU2", mu2), ("SPEC", spec)):
            # raw writes the document's repr, which is rarely valid JSON
            (directory / name).write_text(repr(doc) if raw else json.dumps(doc))
        assert run_in(directory, argv) in EXIT_CODES
