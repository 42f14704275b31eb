"""Command-line front end for batch runs with JSON/CSV output.

Exit codes: 0 ok, 2 parse error, 3 domain/precondition error (an input
too large to hold in memory included), 4 numerical non-convergence.  Every output carries a header echoing the
package version, the command line, and the seed, and every run is fully
determined by its flags.  Exact rationals print as "p/q"; floats print
with 12 significant digits so zero-vs-nonzero verdicts stay lossless in
logs.  Exact values print every digit, also past Python's int-string
conversion limit, which still guards the parsing of input.

The command line is read against one table, ``COMMANDS`` (handler,
help, positionals and typed options of each subcommand), by argparse's
rules, independent of the environment; ``-h``/``--help`` prints help
from the table.  An option's value may also be a token led by "-" and a
number, as in ``--z -1e-3``.  A malformed command line exits 2 with the
one stderr line ``freeconv: parse error: <what>``.

Each subcommand imports its engine when it runs.  Every run loads
``measures``, ``json``, ``re`` and ``shlex``, not ``argparse`` or
``locale``; ``moments`` loads nothing more.  ``cumulants`` adds
``transforms``; ``boxplus``, ``boxtimes``, ``subordinate`` and
``diagnose`` add ``convolution`` with ``transforms``, and ``boxtimes --method oracle|all`` also
``word_engine`` and ``noncrossing``; ``characterize`` adds
``characterize``, ``noncrossing`` and ``transforms``; ``matrixlab`` adds
``matrix_lab``, ``word_engine``, ``noncrossing``, ``transforms`` and
numpy, and ``concurrent.futures`` with more than one thread.  The float
subcommands run in plain Python on atomic and grid measures alike, so
numpy loads only for ``matrixlab``.  ``csv`` loads only for ``--format
csv``.  No subcommand loads ``dataclasses`` (which brings ``inspect``
and ``ast``).

The ``freeconv`` command and ``python -m freeconv.cli`` run ``run()``:
``main()``, then a flush of stdout (the help; ``_emit`` flushes
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

import json
import os
import re
import shlex
import sys
from fractions import Fraction
from types import SimpleNamespace
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

    if args.preset:  # "mean-variance", the one choice the table admits
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
# command table and parser
# ---------------------------------------------------------------------------

# An option is flag -> (type, default, help), where a tuple type lists the
# choices and a default of ... marks a required option.  A command is
# name -> (handler, help, positionals, options); "[spec]" may be left out.
OUTPUT = {"--output": (str, None, "write to this path instead of stdout"),
          "--format": (("json", "csv"), "json", None)}
ORDER = {"--order": (int, ..., None)}
GLOBAL_OPTIONS = {"--threads": (int, None, "worker cap (falls back to FREECONV_THREADS, then 1)")}
COMMANDS = {
    "moments": (cmd_moments, "moments of a measure", ("measure",), {**ORDER, **OUTPUT}),
    "cumulants": (cmd_cumulants, "boolean or free cumulants of a measure", ("measure",),
                  {**ORDER, "--kind": (("boolean", "free"), "boolean", None), **OUTPUT}),
    "boxplus": (cmd_boxplus, "additive free convolution", ("mu1", "mu2"), {**ORDER, **OUTPUT}),
    "boxtimes": (cmd_boxtimes, "multiplicative free convolution", ("mu1", "mu2"), {
        **ORDER, "--method": (("taylor", "subordination", "oracle", "all"), "taylor", None),
        **OUTPUT}),
    "subordinate": (cmd_subordinate, "solve the subordination equations", ("mu1", "mu2"), {
        "--z": (str, None, "evaluation point 're' or 're,im'"),
        "--grid": (int, 31, "points z=-10^(-k/10)"),
        "--tol": (float, 1e-12, None), "--max-iter": (int, 500, None), **OUTPUT}),
    "diagnose": (cmd_diagnose, "fractional moment sandwich", ("measure",),
                 {"--alpha": (float, ..., None), **OUTPUT}),
    "characterize": (cmd_characterize, "freeness dichotomy for (L, Q)", ("[spec]", "marginal"), {
        "--preset": (("mean-variance",), None, None),
        "--n": (int, 2, "variable count for the preset"), "--max-len": (int, 8, None), **OUTPUT}),
    "matrixlab": (cmd_matrixlab, "Monte Carlo word trace", (), {
        "--word": (str, ..., 'word text, e.g. "T1 T2 T1 T2"'),
        "--N": (int, 256, None), "--trials": (int, 200, None), "--seed": (int, 0, None),
        "--ensemble": (("goe", "diagonal"), "goe", None),
        "--measure": (str, None, "atomic measure JSON for diagonal ensembles"), **OUTPUT}),
}
HELP = ("-h", "--help")
NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's: "-3" and "-.5" are positionals
NUMBER = re.compile(r"-\.?\d")  # leads any number an option's value may be


def _print_help(command: Optional[str]) -> None:
    """Help for ``command``, or for the program without one, from the table."""
    top = (None, "moment-level free convolution toolkit", ("COMMAND", "..."), GLOBAL_OPTIONS)
    _, about, positionals, options = COMMANDS[command] if command else top
    usage = " ".join(filter(None, ("usage: freeconv", command, "[options]", *positionals)))
    lines = [usage, "", about]
    if not command:
        lines += ["", "commands:", *(f"  {name:<14}{entry[1]}" for name, entry in COMMANDS.items())]
    lines += ["", "options:", "  -h, --help"]
    for flag, (kind, default, text) in options.items():
        metavar = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else flag.lstrip("-").upper()
        note = "required" if default is ... else None if default is None else f"default {default}"
        notes = "; ".join(filter(None, (text, note)))
        lines.append(f"{f'  {flag} {metavar}':<23} {notes}".rstrip())
    print(*lines, sep="\n")


def _option(token: str, flags) -> tuple[Optional[str], Optional[str]]:
    """The flag a token names, exactly or by a unique prefix, with its "="
    value if any.  (None, None) for a positional: also "" and "-", and as
    in argparse "-3", "-.5" or text with a space.  ("", None) for an
    unknown option."""
    name, eq, value = token.partition("=")
    prefix = name[:2] == "--" and len(name) > 2  # "--" alone is no option's prefix
    found = [name] if name in flags else [f for f in flags if prefix and f.startswith(name)]
    if len(found) > 1:
        raise ParseError(f"ambiguous option: {name} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    positional = len(token) < 2 or token[0] != "-" or NEGATIVE.match(token) or " " in token
    return (None, None) if positional else ("", None)


def _convert(flag: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            choices = ", ".join(kind)
            raise ParseError(f"argument {flag}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None


def parse(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The run ``argv`` asks for, read in order against ``COMMANDS``:
    ``command``, its handler ``func``, ``threads``, and a field per
    positional and option, named as the flag without dashes.  The first
    positional is the command, and the options after it are its own; after
    "--" every token is a positional.  None once help is printed; a
    malformed ``argv`` raises ParseError."""
    command, names, options = None, (), GLOBAL_OPTIONS
    tokens, values, positional, unknown = list(argv), {}, [], []
    while tokens:
        token, flags = tokens.pop(0), (*options, *HELP)
        if token == "--":
            positional += tokens
            break
        flag, text = _option(token, flags)
        if flag is None and command is None:
            if token not in COMMANDS:
                raise ParseError(f"unknown command {token!r}; choose from {', '.join(COMMANDS)}")
            command, (func, _, names, options) = token, COMMANDS[token]
        elif not flag:
            (positional if flag is None else unknown).append(token)
        elif flag in HELP:
            _print_help(command)
            return None
        else:
            if text is None:
                if not tokens or (
                    _option(tokens[0], flags)[0] is not None and not NUMBER.match(tokens[0])
                ):
                    raise ParseError(f"argument {flag}: expected one argument")
                text = tokens.pop(0)
            values[flag] = _convert(flag, options[flag][0], text)  # the last repeat wins
    if command is None:
        raise ParseError(f"no command given; choose from {', '.join(COMMANDS)}")
    if len(positional) < len(names) and names[0].startswith("["):  # an optional one left out
        positional.insert(0, None)
    fields = dict(zip((name.strip("[]") for name in names), positional))
    missing = [*names[len(positional):]]
    missing += [f for f, (_, default, _) in options.items() if default is ... and f not in values]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    unknown += positional[len(names):]
    if unknown:
        raise ParseError(f"unrecognized argument {unknown[0]!r}")
    fields.update((f.lstrip("-").replace("-", "_"), values.get(f, options[f][1])) for f in options)
    return SimpleNamespace(command=command, func=func, threads=values.get("--threads"), **fields)


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
    try:
        args = parse(argv)
        if args is None:  # help was asked for and printed
            return EXIT_OK
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
            sys.stdout.flush()  # the help; _emit flushes its own
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
