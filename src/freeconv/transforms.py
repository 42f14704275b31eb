"""Exact moment/cumulant conversions and free convolutions over truncated
power series.

A truncated series is the sequence of its coefficients c_1..c_D, the
constant term fixed at zero: the moment series M(z) = sum m_k z^k, the
boolean cumulant series K(z) = sum r_k z^k, and the subordination
expansions of multiplicative convolution.  The only division such
sequences need is by 1 + (a series).

Every recursion on powers of such a series u runs on one power table
pw[j][d] = [z^d] u(z)^j, filled a degree at a time in O(D^3) integer
operations (:func:`fill_power_degree`): both free-cumulant conversions
and the subordination recursion below.

Boolean cumulants are the Taylor coefficients of the Krein transform at
0: K = M/(1+M), inverted by M = K/(1-K).  Free cumulants satisfy
m_n = sum_s kappa_s [z^n] u(z)^s with u(z) = z(1 + M(z)), the
non-crossing partition moment formula summed by outer block; one
recursion solves it for kappa_n or for m_n, so the conversions
round-trip to the identity.

Additive free convolution (boxplus) is free-cumulant addition.
Multiplicative free convolution (boxtimes) of measures on [0, inf) is
computed two independent ways:

* an exact Taylor recursion on the subordination functions.  Writing
  Z_j(-x) = t_1 x + t_2 x^2 + ... for the subordination pair and r_k for
  boolean cumulants, the coupled system Z_1 Z_2 = z K_1(Z_1),
  K_1(Z_1) = K_2(Z_2) turns into the series equations

      Z_j = -x * ( r_1(mu_k) + r_2(mu_k) Z_k + ... + r_p(mu_k) Z_k^(p-1) )

  The coefficient of x^d in Z_j needs only the powers of Z_k at degree
  d-1, so the power tables of Z_1 and Z_2 are filled one degree at a
  time, O(p^3) operations to order p; K of the product is then K_1
  composed with Z_1.

* a word bridge: the k-th moment of the product measure is the trace
  of the alternating word (T S)^k, evaluated by the non-crossing
  partition engine, which shares no code with the Taylor recursion.
  Every (T S)^k is a prefix of (T S)^p, so the p moments read off the
  prefixes of one table build.

The two routes must agree as exact rationals.  The numerical
subordination solve of the convolution module is the third, float route.

The series are Python ints.  The dilation D_c mu (x scaled by c) has
moments c^k m_k, boolean cumulants c^k r_k and free cumulants
c^k kappa_k, and D_a mu_1 boxtimes D_b mu_2 = D_ab (mu_1 boxtimes mu_2),
so each conversion and the Taylor route dilate their input to integers
(``measures.dilate``), run in ints, and divide coefficient k by c^k
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

from .errors import DomainError
from .measures import MomentSequence, RationalLike, as_fraction, dilate, undilate

__all__ = [
    "boolean_from_moments",
    "moments_from_boolean",
    "free_from_moments",
    "moments_from_free",
    "boxplus_moments",
    "boxtimes_moments",
    "boxtimes_word_oracle",
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


# ---------------------------------------------------------------------------
# additive and multiplicative free convolution
# ---------------------------------------------------------------------------


def boxplus_moments(m1: MomentSequence, m2: MomentSequence) -> MomentSequence:
    """Moments of the additive free convolution: free cumulants add."""
    if m1.order != m2.order:
        raise DomainError(f"order mismatch: {m1.order} vs {m2.order}")
    k1 = free_from_moments(m1)
    k2 = free_from_moments(m2)
    return moments_from_free([a + b for a, b in zip(k1, k2)])


def _check_boxtimes_inputs(m1: MomentSequence, m2: MomentSequence, p: int) -> None:
    if p < 1:
        raise DomainError("output order must be >= 1")
    if m1.order < p or m2.order < p:
        raise DomainError(f"need input moments to order {p}")
    if m1.m(1) == 0 or m2.m(1) == 0:
        raise DomainError("multiplicative convolution requires m_1 != 0")


def boxtimes_moments(m1: MomentSequence, m2: MomentSequence, p: int) -> MomentSequence:
    """Moments of the multiplicative free convolution to order p, exactly.

    Runs the subordination Taylor recursion on the factors dilated to
    integer moments, D_c1 mu_1 and D_c2 mu_2, whose product is
    D_(c1 c2)(mu_1 boxtimes mu_2); the product's boolean cumulants are
    read off K_1(Z_1(-x)) and coefficient k is divided by (c1 c2)^k once.
    """
    _check_boxtimes_inputs(m1, m2, p)
    c1, s1 = dilate(m1.moments[:p])
    c2, s2 = dilate(m2.moments[:p])
    r1, r2 = _divide_by_one_plus(s1, s1), _divide_by_one_plus(s2, s2)  # K = M / (1 + M)

    # pow1[j][d] = [x^d] Z_1(-x)^j, and pow2 likewise for Z_2.  Degree d
    # of Z_1 needs Z_2's powers at degree d-1 only, so both tables fill
    # one degree at a time.
    pow1 = power_table(p)
    pow2 = power_table(p)
    for d in range(1, p + 1):
        pow1[1][d] = -sum(r2[i] * pow2[i][d - 1] for i in range(d))
        pow2[1][d] = -sum(r1[i] * pow1[i][d - 1] for i in range(d))
        fill_power_degree(pow1, d)
        fill_power_degree(pow2, d)

    # K of the product as a series in x, K_1 composed with Z_1(-x), and
    # its moments by M = K / (1 - K)
    r = [(-1) ** k * sum(r1[i - 1] * pow1[i][k] for i in range(1, k + 1)) for k in range(1, p + 1)]
    return MomentSequence(undilate(_divide_by_one_plus(r, [-v for v in r]), c1 * c2))


def boxtimes_word_oracle(m1: MomentSequence, m2: MomentSequence, p: int) -> MomentSequence:
    """Product moments as word traces: m_k = trace of the word (T S)^k.

    (T S)^k is the prefix of length 2k of (T S)^p, so one build of the
    word engine's tables gives every m_k.  Independent of the Taylor
    route; the two must agree exactly.
    """
    # no other route of this module needs the word engine, which imports it
    from .word_engine import Word, prefix_moments

    _check_boxtimes_inputs(m1, m2, p)
    return MomentSequence(prefix_moments((m1, m2), Word((1, 2) * p))[1::2])
