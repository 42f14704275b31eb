"""Exact moment/cumulant conversions over truncated power series.

A truncated series is the sequence of its coefficients c_1..c_D, the
constant term fixed at zero: the moment series M(z) = sum m_k z^k, the
boolean cumulant series K(z) = sum r_k z^k, and the subordination
expansions in the convolution module.  The only division such sequences
need is by 1 + (a series).

Every recursion on powers of such a series u runs on one power table
pw[j][d] = [z^d] u(z)^j, filled a degree at a time in O(D^3) integer
operations (:func:`fill_power_degree`): both free-cumulant conversions
and the subordination recursion of the convolution module.

Boolean cumulants are the Taylor coefficients of the Krein transform at
0: K = M/(1+M), inverted by M = K/(1-K).  Free cumulants satisfy
m_n = sum_s kappa_s [z^n] u(z)^s with u(z) = z(1 + M(z)), the
non-crossing partition moment formula summed by outer block; one
recursion solves it for kappa_n or for m_n, so the conversions
round-trip to the identity.

The series are Python ints.  The dilation D_c mu (x scaled by c) has
moments c^k m_k, boolean cumulants c^k r_k and free cumulants
c^k kappa_k, so each conversion dilates its input to integers
(``measures.dilate``), runs in ints, and divides coefficient k by c^k
once on the way out (``measures.undilate``).

Cumulants are plain tuples of Fractions: :func:`boolean_from_moments`
returns (r_1, ..., r_D) and :func:`free_from_moments` returns
(kappa_1, ..., kappa_D).  The inverse conversions take any sequence of
rationals (floats convert exactly) and return a MomentSequence.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .measures import MomentSequence, RationalLike, as_fraction, dilate, undilate

__all__ = [
    "boolean_from_moments",
    "moments_from_boolean",
    "free_from_moments",
    "moments_from_free",
]


def power_table(order: int) -> list[list[int]]:
    """Zeroed table pw[j][d] for j, d = 0..order, except pw[0][0] = 1 (u^0)."""
    pw = [[0] * (order + 1) for _ in range(order + 1)]
    pw[0][0] = 1
    return pw


def fill_power_degree(pw: list[list[int]], d: int) -> None:
    """Fill degree d of u^2..u^d in a power table, where u = pw[1].

    u must have zero constant term and be known through degree d, and
    every power must be filled below degree d.  Then u^j starts at degree
    j, so [z^d] u^j = sum over a = 1..d-j+1 of u[a] [z^(d-a)] u^(j-1).
    """
    u = pw[1]
    for j in range(2, d + 1):
        pw[j][d] = sum(map(mul, u[1 : d - j + 2], reversed(pw[j - 1][j - 1 : d])))


def _divide_by_one_plus(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """num / (1 + den) for coefficient sequences of equal length; the only
    division the carriers ever need, exact over the integers."""
    out: list[int] = []
    for k in range(1, len(num) + 1):
        out.append(num[k - 1] - sum(map(mul, out, reversed(den[: k - 1]))))
    return out


def boolean_from_moments(m: MomentSequence) -> tuple[Fraction, ...]:
    """Boolean cumulants r_1..r_D via K = M/(1+M): r_k = m_k - sum m_i r_{k-i}."""
    c, ms = dilate(m.moments)
    return tuple(undilate(_divide_by_one_plus(ms, ms), c))


def moments_from_boolean(r: Sequence[RationalLike]) -> MomentSequence:
    """Inverse conversion via M = K/(1-K): m_k = r_k + sum r_i m_{k-i}."""
    c, rs = dilate([as_fraction(v) for v in r])
    return MomentSequence(undilate(_divide_by_one_plus(rs, [-v for v in rs]), c))


def _split_blocks(pw: list[list[int]], n: int, m_prev: int, kappa: list[int]) -> int:
    """sum_{s<n} kappa_s [z^n] u^s, once u = z(1 + M) gains u[n] = m_(n-1).

    These are the partitions of NC(n) whose block of 1 has s < n elements;
    the one-block term is kappa_n itself, since [z^n] u^n = 1.
    """
    pw[1][n] = m_prev
    fill_power_degree(pw, n)
    return sum(kappa[s - 1] * pw[s][n] for s in range(1, n))


def free_from_moments(m: MomentSequence) -> tuple[Fraction, ...]:
    """Free cumulants kappa_1..kappa_D: kappa_n = m_n - sum_{s<n} kappa_s [z^n] u(z)^s."""
    c, ms = dilate(m.moments)
    ms.insert(0, 1)
    pw = power_table(m.order)
    kappa: list[int] = []
    for n in range(1, m.order + 1):
        kappa.append(ms[n] - _split_blocks(pw, n, ms[n - 1], kappa))
    return tuple(undilate(kappa, c))


def moments_from_free(kappa: Sequence[RationalLike]) -> MomentSequence:
    """Moments by the same recursion run forward: m_n = kappa_n + split blocks."""
    c, ks = dilate([as_fraction(v) for v in kappa])
    pw = power_table(len(ks))
    ms = [1]
    for n in range(1, len(ks) + 1):
        ms.append(ks[n - 1] + _split_blocks(pw, n, ms[n - 1], ks))
    return MomentSequence(undilate(ms[1:], c))
