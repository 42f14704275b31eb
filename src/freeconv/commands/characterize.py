"""``freeconv characterize``: the freeness dichotomy for (L, Q), with the
quadratic form read from a spec file or built by ``--preset``."""

from __future__ import annotations

import json

from ..characterize import (
    QuadraticFormSpec,
    freeness_dichotomy,
    pattern_degree,
    preset_sample_mean_variance,
)
from ..errors import ParseError
from ..measures import moments
from . import _emit, _exact, _load_measure


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
    try:
        return QuadraticFormSpec(data["A"], data["b"])
    except KeyError as exc:
        raise ParseError(f"form JSON missing field {exc}") from exc
    except TypeError as exc:
        raise ParseError(f"malformed form JSON: {exc}") from exc


def run(args) -> None:
    if args.preset and args.spec:
        raise ParseError("give a form spec file or --preset mean-variance, not both")
    if args.preset:  # "mean-variance", the one choice the table admits
        spec = preset_sample_mean_variance(args.n)
    elif args.spec:
        spec = _load_form_spec(args.spec)
    else:
        raise ParseError("provide a form spec file or --preset mean-variance")
    marginal = moments(_load_measure(args.marginal), args.max_len)
    result = freeness_dichotomy(spec, marginal, args.max_len)
    rows = [
        (" ".join(pattern), pattern_degree(pattern), _exact(dev))
        for pattern, dev in result.deviations
    ]
    payload = {
        "verdict": result.verdict,
        "max_abs_deviation": _exact(result.max_abs_deviation),
        "max_word_length": result.max_word_length,
        "note": result.note,
    }
    _emit(args, payload, ("pattern", "degree", "deviation"), rows)
