"""Command-line front end for batch runs with JSON/CSV output.

Exit codes: 0 ok, 2 parse error, 3 domain/precondition error (an input
too large to hold in memory included), 4 numerical non-convergence.  Every output carries a header echoing the
package version, the command line, and the seed, and every run is fully
determined by its flags.  Exact rationals print as "p/q"; floats print
with 12 significant digits so zero-vs-nonzero verdicts stay lossless in
logs.  Exact values print every digit, also past Python's int-string
conversion limit, which still guards the parsing of input.

Each subcommand imports its engine when it runs.  Every run loads
``measures``, ``argparse``, ``json`` and ``shlex``; ``moments`` loads
nothing more.  ``cumulants`` adds ``transforms``; ``boxplus``,
``boxtimes``, ``subordinate`` and ``diagnose`` add ``convolution`` with
``transforms``, and ``boxtimes --method oracle|all`` also
``word_engine`` and ``noncrossing``; ``characterize`` adds
``characterize``, ``noncrossing`` and ``transforms``; ``matrixlab`` adds
``matrix_lab``, ``word_engine``, ``noncrossing``, ``transforms`` and
numpy, and ``concurrent.futures`` with more than one thread.  The float
subcommands run in plain Python on atomic and grid measures alike, so
numpy loads only for ``matrixlab``.  ``csv`` loads only for ``--format
csv``.  No subcommand loads ``dataclasses`` (which brings ``inspect``
and ``ast``).

The ``freeconv`` command and ``python -m freeconv.cli`` run ``run()``:
``main()``, then a flush of stdout (argparse's help; ``_emit`` flushes
the output it writes) and of stderr, then ``os._exit`` with main's exit
code.  That skips the interpreter's teardown of its modules and its last
garbage collections, which take 9.5-15 ms after an exact job and
29-36 ms after a numpy ``matrixlab`` job, against 1.3-3.4 ms for
``os._exit`` (medians of 9 runs on a 2-vCPU VM, from main's return
until the parent sees the exit).  Nothing is lost by skipping it: every
file a run writes is closed by a ``with`` block before main returns,
``matrixlab`` joins its thread pool in one, and no other thread is left
running.  A write to stdout or to ``--output`` that fails, at the write
or at the flush, is a parse error.  An error line that stderr cannot
take, closed or failing, is lost, and the exit code stands.  ``main()``
itself returns its exit code normally, so library callers and tests
keep the interpreter's usual exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

from . import __version__
from .errors import ConvergenceError, DomainError, ParseError
from .measures import Measure, measure_from_json, moments

if TYPE_CHECKING:
    from .characterize import QuadraticFormSpec

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4


def _exact(value) -> str:
    """str of an int or Fraction, with every digit even past the
    int-string conversion limit (Decimal converts without it)."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        q = Fraction(value)
        text = str(Decimal(q.numerator))
        return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return _exact(value)


def _emit(args, payload: dict, columns: Sequence[str], rows: list) -> None:
    """Write the run's header, ``payload`` and ``rows`` as JSON or CSV.  The
    header echoes the version, the command line, the resolved thread cap
    and any seed, all read off the parsed ``args``."""
    meta = {
        "version": __version__,
        "command": shlex.join(["freeconv", *args.argv]),
        "threads": args.threads,
    }
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    if args.format == "json":
        text = json.dumps({"meta": meta, **payload, "rows": rows}, indent=2, default=_fmt)
    else:
        import csv
        import io

        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key}={value}\n")
        for key, value in payload.items():
            buf.write(f"# {key}={_fmt(value)}\n")
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) if not isinstance(v, str) else v for v in row])
        text = buf.getvalue()
    text = text if text.endswith("\n") else text + "\n"
    if not args.output and sys.stdout is None:  # started with stdout closed
        raise ParseError("cannot write stdout: it is closed")
    # a broken pipe or a full disk fails the write or the flush, on either target
    try:
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise ParseError(f"cannot write {args.output or 'stdout'}: {exc}") from exc


def _load_measure(path: str) -> Measure:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return measure_from_json(text)


def _load_form_spec(path: str) -> QuadraticFormSpec:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # ValueError also for a number past the int-string limit, RecursionError
    # for arrays or objects nested too deeply
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid form JSON: {exc}") from exc
    from .characterize import QuadraticFormSpec

    try:
        return QuadraticFormSpec(data["A"], data["b"])
    except KeyError as exc:
        raise ParseError(f"form JSON missing field {exc}") from exc
    except TypeError as exc:
        raise ParseError(f"malformed form JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_moments(args) -> None:
    mu = _load_measure(args.measure)
    seq = moments(mu, args.order)
    rows = [(k, _exact(seq.m(k))) for k in range(1, args.order + 1)]
    _emit(args, {"measure": args.measure, "order": args.order}, ("k", "m_k"), rows)


def cmd_cumulants(args) -> None:
    from .transforms import boolean_from_moments, free_from_moments

    mu = _load_measure(args.measure)
    seq = moments(mu, args.order)
    if args.kind == "boolean":
        values = boolean_from_moments(seq)
        label = "r_k"
    else:
        values = free_from_moments(seq)
        label = "kappa_k"
    rows = [(k + 1, _exact(v)) for k, v in enumerate(values)]
    _emit(
        args,
        {"measure": args.measure, "order": args.order, "kind": args.kind},
        ("k", label),
        rows,
    )


def cmd_boxplus(args) -> None:
    from .convolution import boxplus_moments

    m1 = moments(_load_measure(args.mu1), args.order)
    m2 = moments(_load_measure(args.mu2), args.order)
    out = boxplus_moments(m1, m2)
    rows = [(k, _exact(out.m(k))) for k in range(1, args.order + 1)]
    _emit(args, {"order": args.order}, ("k", "m_k"), rows)


def cmd_boxtimes(args) -> None:
    from .convolution import boxtimes_moments, boxtimes_via_subordination, boxtimes_word_oracle

    mu1 = _load_measure(args.mu1)
    mu2 = _load_measure(args.mu2)
    p = args.order
    m1 = moments(mu1, p)
    m2 = moments(mu2, p)
    payload: dict = {"order": p, "method": args.method}

    if args.method in ("taylor", "oracle"):
        engine = boxtimes_moments if args.method == "taylor" else boxtimes_word_oracle
        out = engine(m1, m2, p)
        payload["moments"] = [_exact(v) for v in out.moments]
        rows = [(k, _exact(out.m(k))) for k in range(1, p + 1)]
        _emit(args, payload, ("k", "m_k"), rows)
    elif args.method == "subordination":
        ms, residuals, iterations = boxtimes_via_subordination(mu1, mu2, p)
        payload["moments"] = [_fmt(v) for v in ms]
        payload["residuals"] = [residuals[0], residuals[1]]
        payload["iterations"] = iterations
        rows = [(k, _fmt(ms[k - 1])) for k in range(1, p + 1)]
        _emit(args, payload, ("k", "m_k"), rows)
    else:  # all
        taylor = boxtimes_moments(m1, m2, p)
        oracle = boxtimes_word_oracle(m1, m2, p)
        ms, residuals, iterations = boxtimes_via_subordination(mu1, mu2, p)
        payload["taylor_equals_oracle"] = taylor.moments == oracle.moments
        payload["max_subordination_discrepancy"] = max(
            abs(float(taylor.m(k)) - ms[k - 1]) for k in range(1, p + 1)
        )
        payload["residuals"] = [residuals[0], residuals[1]]
        payload["iterations"] = iterations
        rows = [
            (
                k,
                _exact(taylor.m(k)),
                _exact(oracle.m(k)),
                _fmt(ms[k - 1]),
            )
            for k in range(1, p + 1)
        ]
        _emit(args, payload, ("k", "taylor", "oracle", "subordination"), rows)


def cmd_subordinate(args) -> None:
    from .convolution import _mean, solve_subordination

    mu1 = _load_measure(args.mu1)
    mu2 = _load_measure(args.mu2)
    if args.z is not None:
        try:  # complex() takes at most two parts
            z = complex(*map(float, args.z.split(",")))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad evaluation point {args.z!r}") from exc
        points = [z]
    else:
        # past k = 3076 the last point -10^(-k/10) is no normal float
        if not 1 <= args.grid <= 3076:
            raise DomainError(f"--grid must be in 1..3076, got {args.grid}")
        points = [complex(-(10.0 ** (-k / 10.0)), 0.0) for k in range(1, args.grid + 1)]
    means = (_mean(mu1), _mean(mu2))  # once for every point
    rows = []
    for z in points:
        sol = solve_subordination(mu1, mu2, z, tol=args.tol, max_iter=args.max_iter, means=means)
        rows.append(
            (
                _fmt(z),
                _fmt(sol.z1),
                _fmt(sol.z2),
                _fmt(sol.k_value),
                _fmt(sol.residuals[0]),
                _fmt(sol.residuals[1]),
                sol.iterations,
            )
        )
    _emit(
        args,
        {"tol": args.tol},
        ("z", "Z1", "Z2", "K", "residual_1", "residual_2", "iterations"),
        rows,
    )


def cmd_diagnose(args) -> None:
    from .convolution import fractional_diagnostics

    mu = _load_measure(args.measure)
    report = fractional_diagnostics(mu, args.alpha)
    payload = {
        "alpha": report.alpha,
        "sandwich": f"{_fmt(report.lower_bound)} <= {_fmt(report.integral_value)}"
        f" <= {_fmt(report.upper_bound)}",
        "c_mu": report.c_mu,
        "m_alpha": report.m_alpha,
        "verdict": report.verdict,
    }
    rows = [
        (
            report.alpha,
            _fmt(report.lower_bound),
            _fmt(report.integral_value),
            _fmt(report.upper_bound),
            report.verdict,
        )
    ]
    _emit(
        args,
        payload,
        ("alpha", "lower", "integral", "upper", "verdict"),
        rows,
    )


def cmd_characterize(args) -> None:
    from .characterize import (
        freeness_dichotomy,
        pattern_degree,
        preset_sample_mean_variance,
    )

    if args.preset:
        if args.preset != "mean-variance":
            raise ParseError(f"unknown preset {args.preset!r}")
        spec = preset_sample_mean_variance(args.n)
    elif args.spec:
        spec = _load_form_spec(args.spec)
    else:
        raise ParseError("provide a form spec file or --preset mean-variance")
    marginal = moments(_load_measure(args.marginal), args.max_len)
    result = freeness_dichotomy(spec, marginal, args.max_len)
    rows = [
        (
            " ".join(name for name, _ in pattern),
            pattern_degree(pattern),
            _exact(dev),
        )
        for pattern, dev in result.deviations
    ]
    payload = {
        "verdict": result.verdict,
        "max_abs_deviation": _exact(result.max_abs_deviation),
        "max_word_length": result.max_word_length,
        "note": result.note,
    }
    _emit(args, payload, ("pattern", "degree", "deviation"), rows)


def cmd_matrixlab(args) -> None:
    from .matrix_lab import MatrixEnsembleSpec, estimate_word_traces, exact_word_moment
    from .word_engine import Word

    word = Word.from_text(args.word)
    # Variables relabeled in order of first use: the family is only as
    # large as the word needs, and its first variable is member 1.
    first_use = {v: i for i, v in enumerate(dict.fromkeys(word.letters), 1)}
    sampled = Word(first_use[v] for v in word.letters)
    measure = _load_measure(args.measure) if args.measure else None
    spec = MatrixEnsembleSpec(
        dimension=args.N,
        count=len(first_use),
        kind=args.ensemble,
        seed=args.seed,
        measure=measure,
    )
    estimate = estimate_word_traces(spec, [sampled], args.trials, max_workers=args.threads)[0]
    exact = exact_word_moment(spec, sampled)
    # against the N = infinity moment, so it keeps the finite-N bias: GOE
    # has E tau(T1^2) = 1 + 1/N
    z_asymptotic = (
        (estimate.mean - exact) / estimate.standard_error
        if estimate.standard_error > 0
        else None
    )
    rows = [
        (
            word.as_text(),
            args.N,
            args.trials,
            _fmt(estimate.mean),
            _fmt(estimate.standard_error),
            _fmt(exact),
            _fmt(z_asymptotic) if z_asymptotic is not None else "",
        )
    ]
    _emit(
        args,
        {"ensemble": args.ensemble},
        ("word", "N", "trials", "mean", "se", "exact", "z-asymptotic"),
        rows,
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeconv",
        description="moment-level free convolution toolkit",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker cap (falls back to FREECONV_THREADS, then 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("moments", help="moments of a measure")
    p.add_argument("measure")
    p.add_argument("--order", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("cumulants", help="boolean or free cumulants of a measure")
    p.add_argument("measure")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--kind", choices=("boolean", "free"), default="boolean")
    add_output_flags(p)
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("boxplus", help="additive free convolution")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--order", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=cmd_boxplus)

    p = sub.add_parser("boxtimes", help="multiplicative free convolution")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("taylor", "subordination", "oracle", "all"),
        default="taylor",
    )
    add_output_flags(p)
    p.set_defaults(func=cmd_boxtimes)

    p = sub.add_parser("subordinate", help="solve the subordination equations")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--z", help="evaluation point 're' or 're,im'")
    p.add_argument("--grid", type=int, default=31, help="points z=-10^(-k/10)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=500)
    add_output_flags(p)
    p.set_defaults(func=cmd_subordinate)

    p = sub.add_parser("diagnose", help="fractional moment sandwich")
    p.add_argument("measure")
    p.add_argument("--alpha", type=float, required=True)
    add_output_flags(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("characterize", help="freeness dichotomy for (L, Q)")
    p.add_argument("spec", nargs="?", help="form spec JSON file")
    p.add_argument("marginal", help="marginal measure JSON file")
    p.add_argument("--preset", choices=("mean-variance",))
    p.add_argument("--n", type=int, default=2, help="variable count for the preset")
    p.add_argument("--max-len", type=int, default=8)
    add_output_flags(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("matrixlab", help="Monte Carlo word trace")
    p.add_argument("--word", required=True, help='word text, e.g. "T1 T2 T1 T2"')
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ensemble", choices=("goe", "diagonal"), default="goe")
    p.add_argument("--measure", help="atomic measure JSON for diagonal ensembles")
    add_output_flags(p)
    p.set_defaults(func=cmd_matrixlab)

    return parser


def _resolve_threads(args) -> int:
    source, value = "--threads", args.threads
    if value is None:
        source, value = "FREECONV_THREADS", os.environ.get("FREECONV_THREADS") or "1"
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ParseError(f"{source} must be a positive integer, got {value!r}")
    return threads


def _report(line: str) -> None:
    """Print ``freeconv: <line>`` to stderr.  A stderr that is closed or
    cannot be written loses the line, and the exit code alone tells the
    error."""
    if sys.stderr is None:  # started with stderr closed
        return
    try:
        print(f"freeconv: {line}", file=sys.stderr)
    except OSError:
        pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE

    try:
        args.argv, args.threads = argv, _resolve_threads(args)
        args.func(args)
    except ParseError as exc:
        _report(f"parse error: {exc}")
        return EXIT_PARSE
    except DomainError as exc:
        _report(f"domain error: {exc}")
        return EXIT_DOMAIN
    except MemoryError:
        _report("domain error: the input is too large to hold in memory")
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        _report(f"numerical error: {exc}")
        return EXIT_NUMERIC
    return EXIT_OK


def run() -> NoReturn:
    """The ``freeconv`` command: ``main``, then flush stdout and stderr and
    end the process at once with ``os._exit``, skipping the interpreter's
    teardown (see the module docstring).  An exception that escapes
    ``main`` still ends with Python's traceback and exit 1."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()  # what argparse printed; _emit flushes its own
    except OSError as exc:
        if code == EXIT_OK:  # otherwise main has reported the failed write
            _report(f"parse error: cannot write stdout: {exc}")
            code = EXIT_PARSE
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    run()
