"""Command-line front end for batch runs with JSON/CSV output.

Exit codes: 0 ok, 2 parse error, 3 domain/precondition error (an input
too large to hold in memory included), 4 numerical non-convergence.  Every output carries a header echoing the
package version, the command line, and the seed, and every run is fully
determined by its flags.  Exact rationals print as "p/q"; floats print
with 12 significant digits so zero-vs-nonzero verdicts stay lossless in
logs.  Exact values print every digit, also past Python's int-string
conversion limit, which still guards the parsing of input.

The command line is read against one table, ``COMMANDS`` (help,
positionals and typed options of each subcommand), by argparse's rules,
independent of the environment; ``-h``/``--help`` prints help from the
table.  An option's value may also be a token led by "-" and a
number, as in ``--z -1e-3``.  A malformed command line exits 2 with the
one stderr line ``freeconv: parse error: <what>``.

Each subcommand's handler is ``run`` of its own module,
``freeconv.commands.<name>``, which ``parse`` imports by name once the
command line is read, so a run compiles no other subcommand's code.
Every run loads ``re`` for the parser, and ``commands`` with
``measures``, ``json`` and ``shlex``, not ``argparse`` or ``locale``;
``moments`` loads nothing more.  ``cumulants`` and ``boxplus`` add
``transforms``; ``boxtimes`` adds ``transforms``, with ``word_engine``
and ``noncrossing`` for ``--method oracle|all`` and ``convolution`` for
``--method subordination|all``; ``subordinate`` and ``diagnose`` add
``convolution`` with ``transforms``; ``characterize`` adds
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

import os
import re
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import NoReturn, Optional, Sequence

from .errors import ConvergenceError, DomainError, ParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# command table and parser
# ---------------------------------------------------------------------------

# An option is flag -> (type, default, help), where a tuple type lists the
# choices and a default of ... marks a required option.  A command is
# name -> (help, positionals, options), and ``run`` of the module
# ``freeconv.commands.<name>`` is its handler; "[spec]" may be left out.
OUTPUT = {"--output": (str, None, "write to this path instead of stdout"),
          "--format": (("json", "csv"), "json", None)}
ORDER = {"--order": (int, ..., None)}
GLOBAL_OPTIONS = {"--threads": (int, None, "worker cap (falls back to FREECONV_THREADS, then 1)")}
COMMANDS = {
    "moments": ("moments of a measure", ("measure",), {**ORDER, **OUTPUT}),
    "cumulants": ("boolean or free cumulants of a measure", ("measure",),
                  {**ORDER, "--kind": (("boolean", "free"), "boolean", None), **OUTPUT}),
    "boxplus": ("additive free convolution", ("mu1", "mu2"), {**ORDER, **OUTPUT}),
    "boxtimes": ("multiplicative free convolution", ("mu1", "mu2"), {
        **ORDER, "--method": (("taylor", "subordination", "oracle", "all"), "taylor", None),
        **OUTPUT}),
    "subordinate": ("solve the subordination equations", ("mu1", "mu2"), {
        "--z": (str, None, "evaluation point 're' or 're,im'"),
        "--grid": (int, 31, "points z=-10^(-k/10)"),
        "--tol": (float, 1e-12, None), "--max-iter": (int, 500, None), **OUTPUT}),
    "diagnose": ("fractional moment sandwich", ("measure",),
                 {"--alpha": (float, ..., None), **OUTPUT}),
    "characterize": ("freeness dichotomy for (L, Q)", ("[spec]", "marginal"), {
        "--preset": (("mean-variance",), None, "a built-in form; give it or a spec file, not both"),
        "--n": (int, 2, "variable count for the preset"), "--max-len": (int, 8, None), **OUTPUT}),
    "matrixlab": ("Monte Carlo word trace", (), {
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
    top = ("moment-level free convolution toolkit", ("COMMAND", "..."), GLOBAL_OPTIONS)
    about, positionals, options = COMMANDS[command] if command else top
    usage = " ".join(filter(None, ("usage: freeconv", command, "[options]", *positionals)))
    lines = [usage, "", about]
    if not command:
        lines += ["", "commands:", *(f"  {name:<14}{entry[0]}" for name, entry in COMMANDS.items())]
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
    malformed ``argv`` raises ParseError.  Only a well-formed ``argv``
    imports its handler's module, and no other."""
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
            command, (_, names, options) = token, COMMANDS[token]
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
    func = import_module(f"freeconv.commands.{command}").run
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
