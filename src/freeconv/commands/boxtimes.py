"""``freeconv boxtimes``: moments of the multiplicative free convolution,
exact (Taylor route, word oracle) or from the numerical subordination
solve, which alone loads ``convolution``."""

from __future__ import annotations

from ..measures import moments
from ..transforms import boxtimes_moments, boxtimes_word_oracle
from . import _emit, _exact, _fmt, _load_measure


def run(args) -> None:
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
        return
    from ..convolution import boxtimes_via_subordination

    if args.method == "subordination":
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
