"""Free convolution in binary64: the subordination solver and the
fractional moment diagnostics.

The exact routes, ``boxplus_moments``, ``boxtimes_moments`` and the word
oracle, live in the transforms module.  This module gives the
multiplicative convolution of measures on [0, inf) as float data: a
damped fixed-point solver for the subordination pair

    Z_1 Z_2 = z K_1(Z_1),    K_1(Z_1) = K_2(Z_2)

at arbitrary points, evaluating K_1(Z_1) and K_2(Z_2) once per iterate
for both its residuals and the next update; and one route,
``boxtimes_via_subordination``, that fits the product's boolean
cumulants on a contour from solver values and makes them moments by the
exact recursion of the transforms module.  Fractional moment diagnostics
bound m_alpha through the integral of K on (0, 1].

Every integral here uses the module's tanh-sinh rule ``quad`` (Takahasi
and Mori, 1974), whose integrand maps one node to one float; K(-x) is
the sum over the float atoms that ``krein_k`` evaluates too.  Its one
call site, the diagnostic's remainder integral, checks the rule's error
estimate, the difference of its last two levels, against the bound
1e-8 max(1, m_1) and raises ConvergenceError above it.

Every entry point passes its measures through ``measures.float_measures``,
the one gate, and reads m_1 from each measure's cached ``float_mean``.

Everything runs in plain Python: the subordination solve, the contour
fit (``cmath`` and ``math.fsum``), the rule and the diagnostics.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Optional

from .errors import ConvergenceError, DomainError
from .measures import AXIS_TOLERANCE, Atomic, Measure, _krein, as_float, float_measures, krein_k
from .transforms import moments_from_boolean

__all__ = [
    "SubordinationSolution",
    "solve_subordination",
    "boxtimes_via_subordination",
    "DiagnosticsReport",
    "fractional_diagnostics",
    "quad",
]


def __getattr__(name):
    # Only for the benchmark's traced run, whose list of boundaries still
    # names the exact routes of the transforms module as convolution.*:
    # the old names resolve there (PEP 562), and nothing else reads them.
    if name in ("boxplus_moments", "boxtimes_moments", "boxtimes_word_oracle"):
        from . import transforms

        return getattr(transforms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def solve_subordination(
    mu1: Measure,
    mu2: Measure,
    z: complex,
    tol: float = 1e-12,
    max_iter: int = 500,
) -> SubordinationSolution:
    """Solve Z_1 Z_2 = z K_1(Z_1), K_1(Z_1) = K_2(Z_2) at one point.

    Damped fixed-point iteration on the two rearrangements
    Z_1 <- z K_2(Z_2)/Z_2 and Z_2 <- z K_1(Z_1)/Z_1, started from
    Z_j = m_1(mu_k) z.  A half step replaces the full update whenever
    the direction of successive updates flips.  K_1(Z_1) and K_2(Z_2) are
    evaluated once per iterate, for its residuals and the next update;
    where |Z_j| < 1e-280, K(Z_j)/Z_j is taken as its limit m_1, so the
    start evaluates no K there.  Accepts z in the open upper half plane or
    on the negative real axis, which includes any z with
    |Im z| <= AXIS_TOLERANCE |z| and Re z < 0, and needs a finite z,
    0 < tol < inf, max_iter >= 1 and two measures in M+ whose K can be
    evaluated, so no semicircle.  m_1(mu_1) and m_1(mu_2) come from the
    measures (``float_mean``), which take them once for every point.

    An iterate is accepted when each residual, |Z_1 Z_2 - z K_1(Z_1)| and
    |K_1(Z_1) - K_2(Z_2)|, is at most max(tol, 4 ulp) of the larger term
    it subtracts: past about 10^3 a difference of binary64 values cannot
    resolve an absolute 1e-12, and a few ulp is rounding, not distance
    from the solution.  ``residuals`` are those of the accepted iterate.
    """
    _require_m_plus(mu1, mu2)
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

    mean1, mean2 = mu1.float_mean, mu2.float_mean
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
        k2 = krein_k(mu2, z2) if abs(z2) >= 1e-280 else None
        for iteration in range(1, max_iter + 1):
            ratio2 = complex(mean2) if abs(z2) < 1e-280 else k2 / z2
            z1, prev_step1 = damped(z1, z * ratio2, prev_step1)
            k1 = krein_k(mu1, z1)
            ratio1 = complex(mean1) if abs(z1) < 1e-280 else k1 / z1
            z2, prev_step2 = damped(z2, z * ratio1, prev_step2)
            k2 = krein_k(mu2, z2)
            zz, zk = z1 * z2, z * k1
            last = (abs(zz - zk), abs(k1 - k2))
            if _settled(last[0], tol, zz, zk) and _settled(last[1], tol, k1, k2):
                return SubordinationSolution(
                    z=z, z1=z1, z2=z2, k_value=k1, residuals=last, iterations=iteration
                )
    except DomainError as exc:
        raise ConvergenceError(f"iterate left the domain of K: {exc}") from exc
    raise ConvergenceError(
        f"subordination did not reach tol={tol} in {max_iter} iterations "
        f"(last residuals {last[0]:.3e}, {last[1]:.3e})"
    )


def _settled(residual: float, tol: float, a: complex, b: complex) -> bool:
    """Whether the residual |a - b| is within tol, or within 4 ulp of the
    larger of |a| and |b|, the rounding of the subtraction's terms."""
    return residual <= tol or residual <= 4 * math.ulp(max(abs(a), abs(b)))


# trapezoidal nodes on the fit's contour (even, so the upper half mirrors
# the lower) and the solver tolerance at each node
FIT_POINTS = 64
FIT_TOL = 1e-13


def _require_m_plus(mu1: Measure, mu2: Measure) -> None:
    float_measures(mu1, mu2, m_plus=True,
                   support="subordination needs measures on [0, inf) with mass at 0 below 1",
                   semicircle="subordination needs K evaluation; semicircles are moments-only")


def boxtimes_via_subordination(
    mu1: Measure,
    mu2: Measure,
    p: int,
) -> tuple[list[float], tuple[float, float], int]:
    """Product moments m_1..m_p fitted from solver values of K on a contour.

    The product's boolean cumulants, the Taylor coefficients of K at 0,
    come from trapezoidal quadrature on a circle inside the analyticity
    disc, whose radius is at least the reciprocal of the product of the
    support bounds: the contour's radius is half that, over the top float
    atoms, capped at 0.25.  Bounds whose product underflows binary64, or a
    radius with radius^-p outside the binary64 range, raise DomainError
    before any solve.  Only the open upper half of the circle is solved,
    as K(conj z) = conj K(z): coefficient k is the mean of Re(K(z) z^-k)
    over it, summed by ``math.fsum``.  The fit is the only error, about
    solver tolerance / radius^k, as the cumulants become moments exactly;
    the exact Taylor route is the reference.

    Returns (moments, worst residuals, worst iteration count), the last two
    over the contour solves the moments come from.  Each solve is accepted
    at ``FIT_TOL`` or within 4 ulp of its terms, whichever is larger (see
    ``solve_subordination``).  Inside the disc K of the product stays
    below 2 in modulus, and so does Z_1 Z_2 = z K, where 4 ulp is under
    1e-15: the residuals are at most ``FIT_TOL``.
    """
    if p < 1:
        raise DomainError("output order must be >= 1")
    _require_m_plus(mu1, mu2)
    bounds = mu1.float_atoms[-1][0], mu2.float_atoms[-1][0]  # in ascending order
    scale = bounds[0] * bounds[1]
    if not scale > 0:
        raise DomainError("the fit's support bounds %.3g and %.3g multiply to 0 in binary64"
                          % bounds)
    radius = min(0.25, 1.0 / (2.0 * scale))
    if not radius > 0 or -p * math.log(radius) >= math.log(sys.float_info.max):
        raise DomainError(
            f"contour radius {radius:.3g} is too small for {p} coefficients: "
            f"radius^-{p} is outside the binary64 range"
        )
    upper = []
    for m in range(FIT_POINTS // 2):
        angle = 2.0 * math.pi * (m + 0.5) / FIT_POINTS
        z = radius * complex(math.cos(angle), math.sin(angle))
        upper.append(solve_subordination(mu1, mu2, z, tol=FIT_TOL, max_iter=2000))
    r_fit = [
        math.fsum((sol.k_value * sol.z ** -k).real for sol in upper) / len(upper)
        for k in range(1, p + 1)
    ]
    worst = tuple(max(sol.residuals[i] for sol in upper) for i in (0, 1))
    iterations = max(sol.iterations for sol in upper)
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

    ``verdict`` is always "finite": every kind in M+ has a mean m_1, and
    0 <= I <= m_1 (proof in :func:`fractional_diagnostics`).
    """

    __slots__ = ()


#: Cutoff |t| of the tanh-sinh nodes: there the weight has fallen to
#: 2.8e-21 of the half-length of the interval, and the nearest node sits
#: 5.4e-23 of it from the end.
TANH_SINH_T = 3.5

#: Step halvings after the first level; the last has step 1/512 and
#: 3,585 nodes.
TANH_SINH_LEVELS = 8


def quad(
    func: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Integral of ``func`` over [a, b] by the tanh-sinh rule, with its error.

    The double-exponential substitution of Takahasi and Mori (1974),
    x = c + r tanh(pi/2 sinh t), sends the ends of [a, b] to t = -inf and
    inf, where the weights decay doubly exponentially, so square-root or
    power behavior at an end needs no splitting.  Node positions are
    formed from their distance to the nearer end, which stays exact in
    relative terms close to the ends.  The trapezoid rule in t starts at
    step 1/2 and halves it, reusing every earlier node, until two levels
    agree to within ``tol``; the difference of the last two levels is
    returned as the error estimate.  ``func`` maps one node to one float,
    and each level's weighted values are summed by ``math.fsum``.  A
    non-finite sum returns at once with an infinite error.
    """
    c, r = 0.5 * (a + b), 0.5 * (b - a)

    def weighted_sum(ts: range, h: float) -> float:
        terms = []
        for k in ts:
            # e = exp(-2|u|) with u = pi/2 sinh t: 1 - tanh|u| = 2e/(1+e) and
            # sech(u)^2 = 4e/(1+e)^2
            t = k * h
            e = math.exp(-math.pi * math.sinh(t))
            dist = 2.0 * r * e / (1.0 + e)
            weight = 2.0 * math.pi * r * math.cosh(t) * e / (1.0 + e) ** 2
            terms += (weight * func(a + dist), weight * func(b - dist))
        try:
            return math.fsum(terms)
        except (OverflowError, ValueError):  # inf - inf, or a finite overflow
            return sum(terms)

    h = 0.5
    total = 0.5 * math.pi * r * func(c) + weighted_sum(range(1, int(TANH_SINH_T / h) + 1), h)
    value = h * total
    for _ in range(TANH_SINH_LEVELS):
        h *= 0.5
        total += weighted_sum(range(1, int(TANH_SINH_T / h) + 1, 2), h)
        previous, value = value, h * total
        error = abs(value - previous)
        if not math.isfinite(value):
            return value, math.inf
        if error <= tol:
            break
    return value, error


def _c_mu(mu: Measure) -> float:
    """1 / integral of 1/(1+u) d mu: exact over an atomic measure's atoms,
    else over the float atoms."""
    if isinstance(mu, Atomic):
        denom = sum((w / (1 + u) for u, w in mu.atoms), start=Fraction(0))
        return as_float(1 / denom)
    return 1.0 / math.fsum(w / (1.0 + u) for u, w in mu.float_atoms)


def _fractional_sums(mu: Measure, alpha: float) -> tuple[float, float]:
    """m_alpha = integral of u^alpha d mu (0^0 = 1), and its part over
    (0, 1), from one loop over the float atoms."""
    total = below = 0.0
    for u, w in mu.float_atoms:
        term = w * u ** alpha
        total += term
        if 0 < u < 1:
            below += term
    return total, below


def fractional_diagnostics(mu: Measure, alpha: float) -> DiagnosticsReport:
    """Evaluate the fractional-moment sandwich for a measure in M+.

    The integrable endpoint is handled by splitting off the known linear
    behavior K(-x) = -m_1 x + O(x^2): the linear part integrates in
    closed form and the remainder vanishes at 0.  The remainder over
    (0, 1] is integrated by the tanh-sinh rule to 1e-10, and an error
    estimate above 1e-8 max(1, m_1) raises ConvergenceError: I lies in
    [0, m_1] (below), and for a large m_1 rounding alone exceeds 1e-8.
    The tanh-sinh nodes stay at least 2.7e-23 away from 0, so
    x^(-1-alpha) is finite at every node.

    The verdict is "finite" on every measure this accepts, with no test
    run for it.  Write E for integration against mu and take x > 0: then
    -K(-x) = x E[u/(1+xu)] / E[1/(1+xu)], and as u increases while
    1/(1+xu) decreases, Chebyshev's sum inequality gives
    0 <= -K(-x) <= m_1 x.  So the remainder integral lies in
    [-m_1/(1-alpha), 0] and I in [0, m_1].  By the same bound, the partial
    integrals over [eps, 1] at eps = 5e-7 and 2.5e-7 differ by less than
    t = m_1 (1e-6)^(1-alpha)/(1-alpha), so the probe rule this replaced,
    which allowed max(1e-6, 2 t) beside 1e-8 of quadrature error for
    each, could never fail.
    """
    if not 0 < alpha < 1:
        raise DomainError("alpha must lie in (0, 1)")
    float_measures(mu, m_plus=True, support="diagnostics require a measure in M+",
                   semicircle="diagnostics need K evaluation; semicircles are moments-only")

    atoms = mu.float_atoms
    mean = mu.float_mean

    def remainder(x: float) -> float:
        return (-_krein(atoms, -x) - mean * x) * x ** (-1.0 - alpha)

    value, error = quad(remainder, 0.0, 1.0, 1e-10)
    scale = max(1.0, mean)
    if not error <= 1e-8 * scale:
        raise ConvergenceError(f"quadrature error {error:.2e} on [0, 1] exceeds its 1e-8 bound "
                               f"scaled by max(1, m_1) = {scale:.3g}")
    integral_value = mean + (1.0 - alpha) * value

    m_alpha, below_one = _fractional_sums(mu, alpha)
    c_mu = _c_mu(mu)
    return DiagnosticsReport(
        alpha=float(alpha),
        integral_value=integral_value,
        lower_bound=0.5 * (m_alpha - below_one),
        upper_bound=c_mu * m_alpha / alpha,
        c_mu=c_mu,
        m_alpha=m_alpha,
        verdict="finite",
    )
