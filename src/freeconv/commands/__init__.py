"""The CLI's subcommands, one module each, and the output they share.

Each module ``freeconv.commands.<name>`` holds the handler ``run(args)``
of the subcommand ``<name>``, and ``cli.parse`` imports only the one a
run names, so a run compiles no other subcommand's code.  No module here
imports ``freeconv.cli``: under ``python -m freeconv.cli`` that file runs
as ``__main__``, and importing it by name would compile it a second time.
"""

from __future__ import annotations

import json
import shlex
import sys
from fractions import Fraction
from typing import Sequence

from .. import __version__
from ..errors import ParseError
from ..measures import Measure, measure_from_json


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
