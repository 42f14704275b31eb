"""``freeconv subordinate``: the subordination pair at one point or on a
grid of the negative axis."""

from __future__ import annotations

from .. import convolution
from ..errors import DomainError, ParseError
from . import _emit, _fmt, _load_measure


def run(args) -> None:
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
    rows = []
    for z in points:
        sol = convolution.solve_subordination(mu1, mu2, z, tol=args.tol, max_iter=args.max_iter)
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
