"""``freeconv matrixlab``: a Monte Carlo word trace against its exact
N = infinity value."""

from __future__ import annotations

from ..errors import ParseError
from ..matrix_lab import MatrixEnsembleSpec, estimate_word_traces, exact_word_moment
from ..word_engine import Word
from . import _emit, _fmt, _load_measure


def run(args) -> None:
    if args.measure is not None and args.ensemble != "diagonal":
        raise ParseError("--measure applies only to --ensemble diagonal")
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
