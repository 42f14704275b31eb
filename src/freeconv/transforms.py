"""Exact truncated power-series algebra and moment/cumulant conversions.

Series carry rational coefficients c_1..c_D with the constant term fixed
at zero; every arithmetic operation is exact and closed at the common
truncation order.  That convention fits all carriers used here: moment
generating series M(z) = sum m_k z^k, boolean cumulant series
K(z) = sum r_k z^k, and the subordination expansions in the convolution
module.

Boolean cumulants are the Taylor coefficients of the Krein transform at
0: K = M/(1+M), inverted by M = K/(1-K).  Free cumulants satisfy the
non-crossing partition moment formula m_n = sum over NC(n) of products
kappa_|V|; both conversions are exact rational recursions and round-trip
to the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConvergenceError, DomainError
from .measures import (
    Atomic,
    DensityGrid,
    Measure,
    MomentSequence,
    RationalLike,
    as_fraction,
    in_m_plus,
    krein_k,
    krein_k_exact,
)

__all__ = [
    "PowerSeries",
    "BooleanCumulants",
    "FreeCumulants",
    "boolean_from_moments",
    "moments_from_boolean",
    "free_from_moments",
    "moments_from_free",
    "krein_expansion_check",
    "KreinExpansionReport",
]


def _convolve_trunc(a: Sequence[Fraction], b: Sequence[Fraction], length: int) -> list[Fraction]:
    """Cauchy product of raw coefficient lists (index = degree), truncated."""
    out = [Fraction(0)] * length
    for i, ai in enumerate(a):
        if ai == 0 or i >= length:
            continue
        top = min(len(b), length - i)
        for j in range(top):
            if b[j] != 0:
                out[i + j] += ai * b[j]
    return out


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series with exact rational coefficients c_1..c_D.

    The constant term is identically zero; ``coeffs[k-1]`` is the
    coefficient of z^k.  Binary operations require equal orders.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RationalLike]):
        vals = tuple(as_fraction(c) for c in coeffs)
        if not vals:
            raise DomainError("a power series needs order >= 1")
        object.__setattr__(self, "coeffs", vals)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([Fraction(0)] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(0)
        if not 1 <= k <= self.order:
            raise DomainError(f"coefficient c_{k} outside order {self.order}")
        return self.coeffs[k - 1]

    def _check_order(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise DomainError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_order(other)
        return PowerSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_order(other)
        return PowerSeries(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(-c for c in self.coeffs)

    def scale(self, factor: RationalLike) -> "PowerSeries":
        f = as_fraction(factor)
        return PowerSeries(f * c for c in self.coeffs)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        # (z * a)(z * b) has valuation 2; degree-D output keeps c_2..c_D.
        self._check_order(other)
        d = self.order
        raw = _convolve_trunc(
            [Fraction(0), *self.coeffs], [Fraction(0), *other.coeffs], d + 1
        )
        return PowerSeries(raw[1:])

    def divide_by_one_plus(self, denom: "PowerSeries") -> "PowerSeries":
        """self / (1 + denom); the only division the carriers ever need."""
        self._check_order(denom)
        d = self.order
        out: list[Fraction] = []
        for k in range(1, d + 1):
            acc = self.coeffs[k - 1]
            for i in range(1, k):
                acc -= out[i - 1] * denom.coeffs[k - i - 1]
            out.append(acc)
        return PowerSeries(out)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(z)); valid because inner has zero constant term."""
        self._check_order(inner)
        d = self.order
        inner_raw = [Fraction(0), *inner.coeffs]
        power = list(inner_raw)
        acc = [Fraction(0)] * (d + 1)
        for j in range(1, d + 1):
            cj = self.coeffs[j - 1]
            if cj != 0:
                for deg in range(j, d + 1):
                    acc[deg] += cj * power[deg]
            if j < d:
                power = _convolve_trunc(power, inner_raw, d + 1)
        return PowerSeries(acc[1:])

    def __call__(self, point: RationalLike) -> Fraction:
        """Evaluate the truncated polynomial at a rational point."""
        x = as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = (acc + c) * x
        return acc


@dataclass(frozen=True)
class BooleanCumulants:
    """Boolean cumulants r_1..r_D: Taylor coefficients of K at 0."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[RationalLike]):
        vals = tuple(as_fraction(v) for v in values)
        if not vals:
            raise DomainError("cumulant order must be >= 1")
        object.__setattr__(self, "values", vals)

    @property
    def order(self) -> int:
        return len(self.values)

    def r(self, k: int) -> Fraction:
        if not 1 <= k <= self.order:
            raise DomainError(f"r_{k} outside order {self.order}")
        return self.values[k - 1]


@dataclass(frozen=True)
class FreeCumulants:
    """Free cumulants kappa_1..kappa_D of the non-crossing moment formula."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[RationalLike]):
        vals = tuple(as_fraction(v) for v in values)
        if not vals:
            raise DomainError("cumulant order must be >= 1")
        object.__setattr__(self, "values", vals)

    @property
    def order(self) -> int:
        return len(self.values)

    def kappa(self, k: int) -> Fraction:
        if not 1 <= k <= self.order:
            raise DomainError(f"kappa_{k} outside order {self.order}")
        return self.values[k - 1]


def boolean_from_moments(m: MomentSequence) -> BooleanCumulants:
    """Boolean cumulants via K = M/(1+M): r_k = m_k - sum m_i r_{k-i}."""
    mser = PowerSeries(m.moments)
    return BooleanCumulants(mser.divide_by_one_plus(mser).coeffs)


def moments_from_boolean(r: BooleanCumulants) -> MomentSequence:
    """Inverse conversion via M = K/(1-K): m_k = r_k + sum r_i m_{k-i}."""
    kser = PowerSeries(r.values)
    return MomentSequence(kser.divide_by_one_plus(-kser).coeffs)


def free_from_moments(m: MomentSequence) -> FreeCumulants:
    """Free cumulants by inverting m_n = sum_s kappa_s [z^(n-s)] M(z)^s."""
    d = m.order
    mfull = [Fraction(1), *m.moments]
    powers = [None, list(mfull)]  # powers[s] = M^s truncated
    for s in range(2, d + 1):
        powers.append(_convolve_trunc(powers[-1], mfull, d + 1))
    kappa: list[Fraction] = []
    for n in range(1, d + 1):
        acc = m.m(n)
        for s in range(1, n):
            acc -= kappa[s - 1] * powers[s][n - s]
        kappa.append(acc)
    return FreeCumulants(kappa)


def moments_from_free(kappa: FreeCumulants) -> MomentSequence:
    """Moments from free cumulants by the same recursion run forward."""
    d = kappa.order
    out: list[Fraction] = []
    for n in range(1, d + 1):
        mfull = [Fraction(1), *out]
        power = list(mfull)
        acc = Fraction(0)
        for s in range(1, n + 1):
            acc += kappa.kappa(s) * power[n - s]
            if s < n:
                power = _convolve_trunc(power, mfull, n)
        out.append(acc)
    return MomentSequence(out)


# ---------------------------------------------------------------------------
# Taylor expansion check for the Krein transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KreinExpansionReport:
    """Ratio table for |K(-x) - poly_p(x)| / x^p on a dyadic grid."""

    p: int
    xs: tuple[float, ...]
    ratios: tuple[float, ...]
    burn_in: int
    passed: bool


def krein_expansion_check(
    mu: Measure,
    m: MomentSequence,
    p: int,
    grid_size: int = 24,
    burn_in: int = 4,
) -> KreinExpansionReport:
    """Check that K(-x) matches its boolean-cumulant polynomial to order p.

    Evaluates E(x) = K(-x) - sum_{k<=p} (-1)^k r_k x^k on the grid
    x = 2^-i and requires |E(x)|/x^p to decay monotonically once the
    first ``burn_in`` points are discarded (the expansion is asymptotic,
    so early grid points are uninformative).  Atomic measures are
    evaluated in exact rational arithmetic, so the monotonicity verdict
    is certified rather than estimated.
    """
    if p < 1:
        raise DomainError("expansion order must be >= 1")
    if m.order < p:
        raise DomainError(f"need moments to order {p}, got {m.order}")
    if not in_m_plus(mu):
        raise DomainError("expansion check requires a measure in M+")
    if grid_size <= burn_in + 2:
        raise DomainError("grid too short for the burn-in")
    r = boolean_from_moments(m.truncate(p))
    signed = [(-1) ** k * r.r(k) for k in range(1, p + 1)]

    xs: list[float] = []
    ratios: list[Fraction | float] = []
    exact = isinstance(mu, Atomic)
    for i in range(grid_size):
        if exact:
            x = Fraction(1, 2 ** i)
            kval = krein_k_exact(mu, -x)
            poly = sum(signed[k - 1] * x ** k for k in range(1, p + 1))
            ratios.append(abs(kval - poly) / x ** p)
            xs.append(float(x))
        else:
            x = 2.0 ** -i
            if x ** p == 0.0:
                raise ConvergenceError("grid underflow before the ratio decayed")
            kval = krein_k(mu, complex(-x)).real
            poly = sum(float(signed[k - 1]) * x ** k for k in range(1, p + 1))
            ratios.append(abs(kval - poly) / x ** p)
            xs.append(x)

    tail = ratios[burn_in:]
    monotone = all(b <= a for a, b in zip(tail, tail[1:]))
    decayed = tail[-1] == 0 or tail[-1] < tail[0]
    passed = monotone and (decayed or all(t == 0 for t in tail))
    return KreinExpansionReport(
        p=p,
        xs=tuple(xs),
        ratios=tuple(float(t) for t in ratios),
        burn_in=burn_in,
        passed=passed,
    )
