"""``freeconv boxplus``: exact moments of the additive free convolution."""

from __future__ import annotations

from ..measures import moments
from ..transforms import boxplus_moments
from . import _emit, _exact, _load_measure


def run(args) -> None:
    m1 = moments(_load_measure(args.mu1), args.order)
    m2 = moments(_load_measure(args.mu2), args.order)
    out = boxplus_moments(m1, m2)
    rows = [(k, _exact(out.m(k))) for k in range(1, args.order + 1)]
    _emit(args, {"order": args.order}, ("k", "m_k"), rows)
