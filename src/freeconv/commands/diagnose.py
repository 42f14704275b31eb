"""``freeconv diagnose``: the fractional moment sandwich of a measure."""

from __future__ import annotations

from ..convolution import fractional_diagnostics
from . import _emit, _fmt, _load_measure


def run(args) -> None:
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
