"""``freeconv moments``: exact moments of a measure."""

from __future__ import annotations

from ..measures import moments
from . import _emit, _exact, _load_measure


def run(args) -> None:
    mu = _load_measure(args.measure)
    seq = moments(mu, args.order)
    rows = [(k, _exact(seq.m(k))) for k in range(1, args.order + 1)]
    _emit(args, {"measure": args.measure, "order": args.order}, ("k", "m_k"), rows)
