"""``freeconv cumulants``: boolean or free cumulants of a measure."""

from __future__ import annotations

from ..measures import moments
from ..transforms import boolean_from_moments, free_from_moments
from . import _emit, _exact, _load_measure


def run(args) -> None:
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
