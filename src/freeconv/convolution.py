"""Free additive and multiplicative convolution at moment level.

Additive convolution is free-cumulant addition.  Multiplicative
convolution of measures on [0, inf) is computed two independent ways:

* an exact Taylor recursion on the subordination functions.  Writing
  Z_j(-x) = t_1 x + t_2 x^2 + ... for the subordination pair and r_k for
  boolean cumulants, the coupled system Z_1 Z_2 = z K_1(Z_1),
  K_1(Z_1) = K_2(Z_2) turns into the series equations

      Z_j = -x * ( r_1(mu_k) + r_2(mu_k) Z_k + ... + r_p(mu_k) Z_k^(p-1) )

  The coefficient of x^d in Z_j needs only the powers of Z_k at degree
  d-1, so the power tables of Z_1 and Z_2 are filled one degree at a
  time by the transforms module's power-table kernel, O(p^3) operations
  to order p; K of the product is then K_1 composed with Z_1.  It runs
  in ints: D_a mu_1 boxtimes D_b mu_2 = D_ab (mu_1 boxtimes mu_2) for the
  dilations to integer moments, and coefficient k is divided by (ab)^k
  once, at the end.

* a word bridge: the k-th moment of the product measure is the trace
  of the alternating word (T S)^k, evaluated by the non-crossing
  partition engine, which shares no code with the Taylor recursion.
  Every (T S)^k is a prefix of (T S)^p, so the p moments read off the
  prefixes of one table build.

The two routes must agree as exact rationals, which is the module's main
internal consistency check.  A damped fixed-point solver provides the
same subordination data numerically at arbitrary points; its fitted
boolean cumulants become moments through the same exact recursion as
the Taylor route.  Fractional moment diagnostics bound m_alpha through
the integral of K on (0, 1].

Every integral here uses the tanh-sinh rule ``quad`` of the measures
module (Takahasi and Mori, 1974), whose integrand maps one node to one
float; K(-x) is a loop over the float atoms of an atomic or grid
measure.  Each call site checks the rule's error estimate, the
difference of its last two levels, against the absolute bound 1e-8 and
raises ConvergenceError above it: the diagnostic's remainder integral
and its three refinement probes.

The exact routes (``boxplus_moments``, ``boxtimes_moments`` and the word
oracle) need no floats, and the float routes run in plain Python: the
subordination solve, the contour fit (``cmath`` and ``math.fsum``) and
the diagnostics.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Optional

from .errors import ConvergenceError, DomainError
from .measures import (
    AXIS_TOLERANCE,
    Atomic,
    Measure,
    MomentSequence,
    Semicircle,
    as_float,
    dilate,
    fractional_moment,
    in_m_plus,
    krein_k,
    moments,
    quad,
    undilate,
)
from .transforms import (
    _divide_by_one_plus,
    fill_power_degree,
    free_from_moments,
    moments_from_boolean,
    moments_from_free,
    power_table,
)

__all__ = [
    "boxplus_moments",
    "boxtimes_moments",
    "boxtimes_word_oracle",
    "SubordinationSolution",
    "solve_subordination",
    "fit_boolean_cumulants_from_subordination",
    "boxtimes_via_subordination",
    "DiagnosticsReport",
    "fractional_diagnostics",
]


def boxplus_moments(m1: MomentSequence, m2: MomentSequence) -> MomentSequence:
    """Moments of the additive free convolution: free cumulants add."""
    if m1.order != m2.order:
        raise DomainError(f"order mismatch: {m1.order} vs {m2.order}")
    k1 = free_from_moments(m1)
    k2 = free_from_moments(m2)
    return moments_from_free([a + b for a, b in zip(k1, k2)])


# ---------------------------------------------------------------------------
# multiplicative convolution, Taylor route
# ---------------------------------------------------------------------------


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
    # no other route of this module needs the word engine
    from .word_engine import Word, prefix_moments

    _check_boxtimes_inputs(m1, m2, p)
    return MomentSequence(prefix_moments((m1, m2), Word((1, 2) * p))[1::2])


# ---------------------------------------------------------------------------
# numerical subordination
# ---------------------------------------------------------------------------


class SubordinationSolution(namedtuple("SubordinationSolution",
                                        "z z1 z2 k_value residuals iterations")):
    """Solved subordination pair at one evaluation point.

    ``k_value`` is K of the product measure at z; ``residuals`` are the
    absolute defects of the two subordination equations.
    """

    __slots__ = ()


def _mean(mu: Measure) -> float:
    return as_float(moments(mu, 1).m(1))


def _k_over_w(mu: Measure, w: complex, mean: float) -> complex:
    if abs(w) < 1e-280:
        return complex(mean)
    return krein_k(mu, w) / w


def solve_subordination(
    mu1: Measure,
    mu2: Measure,
    z: complex,
    tol: float = 1e-12,
    max_iter: int = 500,
    means: Optional[tuple[float, float]] = None,
) -> SubordinationSolution:
    """Solve Z_1 Z_2 = z K_1(Z_1), K_1(Z_1) = K_2(Z_2) at one point.

    Damped fixed-point iteration on the two rearrangements
    Z_1 <- z K_2(Z_2)/Z_2 and Z_2 <- z K_1(Z_1)/Z_1, started from
    Z_j = m_1(mu_k) z.  A half step replaces the full update whenever
    the direction of successive updates flips.  Accepts z in the open
    upper half plane or on the negative real axis, which includes any z
    with |Im z| <= AXIS_TOLERANCE |z| and Re z < 0, and needs a finite z,
    0 < tol < inf, max_iter >= 1 and two measures in M+ whose K can be
    evaluated, so no semicircle.  ``means`` are m_1(mu_1) and m_1(mu_2)
    as floats, computed here when not given: a caller solving at many
    points computes them once.
    """
    if not in_m_plus(mu1) or not in_m_plus(mu2):
        raise DomainError("subordination needs measures on [0, inf) with mass at 0 below 1")
    if isinstance(mu1, Semicircle) or isinstance(mu2, Semicircle):
        raise DomainError("subordination needs K evaluation; semicircles are moments-only")
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    z = complex(z)
    on_negative_axis = abs(z.imag) <= AXIS_TOLERANCE * abs(z) and z.real < 0
    if not cmath.isfinite(z) or not (z.imag > 0 or on_negative_axis):
        raise DomainError(f"evaluation point {z} must be finite, in C+ or on (-inf, 0)")
    if on_negative_axis:
        z = complex(z.real, 0.0)

    mean1, mean2 = means or (_mean(mu1), _mean(mu2))
    z1 = mean2 * z
    z2 = mean1 * z
    prev_step1: Optional[complex] = None
    prev_step2: Optional[complex] = None

    def damped(current: complex, proposal: complex, prev_step: Optional[complex]):
        step = proposal - current
        if prev_step is not None and (step * prev_step.conjugate()).real < 0:
            step = 0.5 * step
        return current + step, step

    last = (math.inf, math.inf)
    try:
        for iteration in range(1, max_iter + 1):
            z1, prev_step1 = damped(z1, z * _k_over_w(mu2, z2, mean2), prev_step1)
            z2, prev_step2 = damped(z2, z * _k_over_w(mu1, z1, mean1), prev_step2)
            k1 = krein_k(mu1, z1)
            k2 = krein_k(mu2, z2)
            last = (abs(z1 * z2 - z * k1), abs(k1 - k2))
            if last[0] <= tol and last[1] <= tol:
                return SubordinationSolution(
                    z=z, z1=z1, z2=z2, k_value=k1, residuals=last, iterations=iteration
                )
    except DomainError as exc:
        raise ConvergenceError(f"iterate left the domain of K: {exc}") from exc
    raise ConvergenceError(
        f"subordination did not reach tol={tol} in {max_iter} iterations "
        f"(last residuals {last[0]:.3e}, {last[1]:.3e})"
    )


def _support_bound(mu: Measure) -> float:
    if isinstance(mu, Semicircle):
        return as_float(mu.center + mu.radius)
    return mu.float_atoms[-1][0]  # in ascending order


# trapezoidal nodes on the fit's contour (even, so the upper half mirrors
# the lower) and the solver tolerance at each node
FIT_POINTS = 64
FIT_TOL = 1e-13


def _fit_radius(mu1: Measure, mu2: Measure) -> float:
    """Default contour radius: half the reciprocal of the product of the
    support bounds, capped at 0.25."""
    scale = _support_bound(mu1) * _support_bound(mu2)
    if not scale > 0:
        raise DomainError("the fit needs both measures to have mass on (0, inf)")
    return min(0.25, 1.0 / (2.0 * scale))


def fit_boolean_cumulants_from_subordination(
    mu1: Measure,
    mu2: Measure,
    n_coeffs: int,
    means: Optional[tuple[float, float]] = None,
) -> list[float]:
    """Boolean cumulants of the product, fitted from solver values of K.

    Extracts the Taylor coefficients of K at 0 by trapezoidal contour
    quadrature on a circle inside the analyticity disc (whose radius is
    at least the reciprocal of the product of support bounds).  Only the
    open upper half of the circle is solved; the lower half follows from
    the reflection K(conj z) = conj K(z).  Purely numerical, used to
    cross-check the exact Taylor route; accuracy is solver tolerance
    divided by radius^k.  The radius comes from the supports
    (:func:`_fit_radius`); one whose power radius^-n_coeffs is outside the
    binary64 range raises DomainError before any solve.  Each node pairs
    with its conjugate, so coefficient k is the mean of Re(K(z) z^-k) over
    the upper half, summed by ``math.fsum``.  The means of the two
    measures (``means``, else computed here) are taken once for all solves.
    """
    if n_coeffs < 1:
        raise DomainError("need at least one coefficient")
    radius = _fit_radius(mu1, mu2)
    if not radius > 0 or -n_coeffs * math.log(radius) >= math.log(sys.float_info.max):
        raise DomainError(
            f"contour radius {radius:.3g} is too small for {n_coeffs} coefficients: "
            f"radius^-{n_coeffs} is outside the binary64 range"
        )
    means = means or (_mean(mu1), _mean(mu2))
    upper = []
    for m in range(FIT_POINTS // 2):
        angle = 2.0 * math.pi * (m + 0.5) / FIT_POINTS
        z = radius * complex(math.cos(angle), math.sin(angle))
        sol = solve_subordination(mu1, mu2, z, tol=FIT_TOL, max_iter=2000, means=means)
        upper.append((z, sol.k_value))
    return [
        math.fsum((k_value * z ** -k).real for z, k_value in upper) / len(upper)
        for k in range(1, n_coeffs + 1)
    ]


def boxtimes_via_subordination(
    mu1: Measure,
    mu2: Measure,
    p: int,
) -> tuple[list[float], tuple[float, float], int]:
    """Product moments from the numerical subordination route.

    Returns (moments, worst residuals over the fit grid, worst iteration
    count).  Only the fit adds error: its boolean cumulants become moments
    exactly.  Accuracy degrades with p; the exact Taylor route is the
    reference.
    """
    if p < 1:
        raise DomainError("output order must be >= 1")
    # the residual probes shrink with the fit's contour radius, below 0.01
    shrink = min(1.0, _fit_radius(mu1, mu2) / 0.01)
    means = (_mean(mu1), _mean(mu2))
    r_fit = fit_boolean_cumulants_from_subordination(mu1, mu2, p, means)
    worst = (0.0, 0.0)
    iterations = 0
    for x in (1e-3, 3e-3, 1e-2):
        sol = solve_subordination(mu1, mu2, complex(-x * shrink), means=means)
        worst = (max(worst[0], sol.residuals[0]), max(worst[1], sol.residuals[1]))
        iterations = max(iterations, sol.iterations)
    if not all(math.isfinite(r) for r in r_fit):
        raise ConvergenceError("subordination fit produced a non-finite boolean cumulant")
    ms = moments_from_boolean(r_fit).moments
    return [float(v) for v in ms], worst, iterations


# ---------------------------------------------------------------------------
# fractional moment diagnostics
# ---------------------------------------------------------------------------


class DiagnosticsReport(namedtuple("DiagnosticsReport", "alpha integral_value lower_bound "
                                   "upper_bound c_mu m_alpha verdict")):
    """Integral criterion for fractional moments of a measure in M+.

    ``integral_value`` is I = -(1-alpha) * integral over (0,1] of
    K(-x)/x^(1+alpha) dx, sandwiched by

        (m_alpha - integral over (0,1) of u^alpha) / 2 <= I
        I <= c * m_alpha / alpha,     c = 1 / integral of 1/(1+u) d mu.
    """

    __slots__ = ()


def _krein_on_negative_axis(mu: Measure) -> Callable[[float], float]:
    """x -> K(-x) for x > 0, one loop over the float atoms:
    K(-x) = -x sum w u/(1+xu) / sum w/(1+xu), whose denominator (= 1 + psi)
    is a sum of positive terms.
    """
    atoms = mu.float_atoms

    def evaluate(x: float) -> float:
        num = den = 0.0
        for u, w in atoms:
            spread = 1.0 + x * u
            num += w * u / spread
            den += w / spread
        return -x * num / den
    return evaluate


def _integral(func: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """``quad`` whose error estimate must stay below 1e-8, otherwise
    ConvergenceError.  The bound is absolute: the diagnostic adds its
    remainder integral to the mean, and the two may nearly cancel."""
    value, error = quad(func, a, b, tol)
    if not error <= 1e-8:
        raise ConvergenceError(
            f"quadrature error {error:.2e} on [{a:.3g}, {b:.3g}] exceeds its 1e-8 bound"
        )
    return value


def _c_mu(mu: Measure) -> float:
    """1 / integral of 1/(1+u) d mu: exact over an atomic measure's atoms,
    else over the float atoms."""
    if isinstance(mu, Atomic):
        denom = sum((w / (1 + u) for u, w in mu.atoms), start=Fraction(0))
        return as_float(1 / denom)
    return 1.0 / math.fsum(w / (1.0 + u) for u, w in mu.float_atoms)


def _moment_below_one(mu: Measure, alpha: float) -> float:
    """The integral of u^alpha d mu over (0, 1), over the float atoms."""
    return sum(w * u ** alpha for u, w in mu.float_atoms if 0 < u < 1)


def fractional_diagnostics(mu: Measure, alpha: float) -> DiagnosticsReport:
    """Evaluate the fractional-moment sandwich for a measure in M+.

    The integrable endpoint is handled by splitting off the known linear
    behavior K(-x) = -m_1 x + O(x^2): the linear part integrates in
    closed form and the remainder vanishes at 0.  The remainder over
    (0, 1] and the raw integrand over [eps, 1] for the three probe
    cutoffs eps are integrated by the tanh-sinh rule to 1e-10; any of
    the four whose error estimate exceeds 1e-8 raises ConvergenceError.
    The tanh-sinh nodes stay at least 2.7e-23 away from 0, so
    x^(-1-alpha) is finite at every node.
    """
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")
    if not in_m_plus(mu):
        raise DomainError("diagnostics require a measure in M+")
    if isinstance(mu, Semicircle):
        raise DomainError("diagnostics need K evaluation; semicircles are moments-only")

    k_neg = _krein_on_negative_axis(mu)
    mean = _mean(mu)

    def remainder(x: float) -> float:
        return (-k_neg(x) - mean * x) * x ** (-1.0 - alpha)

    integral_value = mean + (1.0 - alpha) * _integral(remainder, 0.0, 1.0, 1e-10)

    m_alpha = fractional_moment(mu, alpha)
    lower = 0.5 * (m_alpha - _moment_below_one(mu, alpha))
    c_mu = _c_mu(mu)
    upper = c_mu * m_alpha / alpha

    # Refinement probe: the partial integrals must have stabilized.
    def raw(x: float) -> float:
        return -k_neg(x) * x ** (-1.0 - alpha)

    probes = [_integral(raw, eps, 1.0, 1e-10) for eps in (1e-6, 5e-7, 2.5e-7)]
    tail_scale = mean * (1e-6) ** (1.0 - alpha) / (1.0 - alpha)
    stable = abs(probes[2] - probes[1]) <= max(1e-6, 2 * tail_scale)
    verdict = "finite" if stable and math.isfinite(integral_value) else "infinite-indicated"

    return DiagnosticsReport(
        alpha=float(alpha),
        integral_value=integral_value,
        lower_bound=lower,
        upper_bound=upper,
        c_mu=c_mu,
        m_alpha=m_alpha,
        verdict=verdict,
    )
