import functools
import math
from fractions import Fraction
from itertools import accumulate, product

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freeconv.errors import ConvergenceError, DomainError
from freeconv.measures import (
    Atomic,
    DensityGrid,
    MomentSequence,
    _krein,
    as_fraction,
    in_m_plus,
    moments,
)
from freeconv.transforms import (
    boolean_from_moments,
    boxplus_moments,
    boxtimes_moments,
    boxtimes_word_oracle,
    moments_from_boolean,
)
from freeconv import convolution, noncrossing, word_engine
from freeconv.word_engine import Word, mixed_moment
from freeconv.convolution import (
    boxtimes_via_subordination,
    fractional_diagnostics,
    solve_subordination,
)
from oracles import (
    PROBE_CUTOFFS,
    boolean_from_moments_by_intervals,
    boxtimes_moments_by_passes,
    fit_boolean_cumulants_numpy,
    fractional_probes,
    krein_k_exact,
    krein_on_negative_axis_vectorized,
    moments_from_boolean_by_intervals,
    moments_from_boolean_float,
    probe_verdict,
    quad_numpy,
    scipy_quad,
)


def atomic(*pairs):
    return Atomic([(Fraction(l), Fraction(w)) for l, w in pairs])


ATOM_POOL = [
    atomic(("1", "1")),
    atomic(("2", "1")),
    atomic(("0", "1/2"), ("1", "1/2")),
    atomic(("1", "1/2"), ("2", "1/2")),
    atomic(("1/2", "1/3"), ("3/2", "1/3"), ("3", "1/3")),
    atomic(("0", "1/4"), ("1", "1/2"), ("4", "1/4")),
    atomic(("2/3", "2/5"), ("5/2", "3/5")),
]

# small rationals, and binary64-derived ones from 1e-300 to 1e3
COEFFICIENTS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=20),
    st.builds(
        lambda mantissa, exponent: as_fraction(mantissa * 10.0 ** exponent),
        st.floats(min_value=-9.99, max_value=9.99),
        st.integers(-300, 2),
    ),
)


# atom locations and grid gaps from 1e-6 to 4.5e7
SPREAD = st.floats(min_value=-6.0, max_value=math.log10(4.5e7)).map(lambda e: 10.0 ** e)


@st.composite
def measures_in_m_plus(draw):
    """An atomic measure of 1 to 5 atoms in [1e-6, 4.5e7], perhaps with one
    at 0, or a grid of up to 30 nodes from 0 or a drawn start, in M+."""
    if draw(st.booleans()):
        positive = draw(st.lists(SPREAD, min_size=1, max_size=5, unique=True))
        us = [0.0] * draw(st.booleans()) + positive
        ws = draw(st.lists(st.integers(1, 100), min_size=len(us), max_size=len(us)))
        return Atomic([(as_fraction(u), Fraction(w, sum(ws))) for u, w in zip(us, ws)])
    start = draw(st.one_of(st.just(0.0), SPREAD))
    x = list(accumulate([start, *draw(st.lists(SPREAD, min_size=1, max_size=29))]))
    density = st.one_of(st.just(0.0), st.floats(0.1, 10.0))
    f = draw(st.lists(density, min_size=len(x), max_size=len(x)))
    assume(any(f))
    grid = DensityGrid.normalized(x, f)
    assume(in_m_plus(grid))
    return grid


def moment_lists(p):
    """Lists m_1..m_p of COEFFICIENTS with m_1 != 0."""
    return st.tuples(
        COEFFICIENTS.filter(bool), st.lists(COEFFICIENTS, min_size=p - 1, max_size=p - 1)
    ).map(lambda first_rest: [first_rest[0], *first_rest[1]])


class TestBoxplus:
    def test_semicircle_stability(self):
        # two variance-1/2 semicircles add to the standard one
        k = Fraction(1, 2)
        m_half = MomentSequence([0, k, 0, 2 * k ** 2, 0, 5 * k ** 3])
        out = boxplus_moments(m_half, m_half)
        assert list(out) == [0, 1, 0, 2, 0, 5]

    def test_point_masses_translate(self):
        a, b = Fraction(3, 2), Fraction(-1, 3)
        m_a = MomentSequence([a ** k for k in range(1, 5)])
        m_b = MomentSequence([b ** k for k in range(1, 5)])
        s = a + b
        assert list(boxplus_moments(m_a, m_b)) == [s ** k for k in range(1, 5)]

    def test_bernoulli_pair_frozen_values(self, bernoulli):
        # frozen from the word oracle tau((T+S)^k)
        m = moments(bernoulli, 4)
        out = boxplus_moments(m, m)
        assert list(out) == [1, Fraction(3, 2), Fraction(5, 2), Fraction(35, 8)]

    def test_matches_word_oracle_to_order_eight(self, bernoulli, two_point):
        m1 = moments(bernoulli, 8)
        m2 = moments(two_point, 8)
        out = boxplus_moments(m1, m2)
        for k in range(1, 9):
            total = Fraction(0)
            for w in product((1, 2), repeat=k):
                total += mixed_moment((m1, m2), Word(w))
            assert out.m(k) == total

    def test_order_mismatch(self, bernoulli):
        with pytest.raises(DomainError):
            boxplus_moments(moments(bernoulli, 3), moments(bernoulli, 4))


class TestBoxtimesExact:
    def test_point_masses_multiply(self):
        m2 = moments(atomic(("2", "1")), 3)
        m3 = moments(atomic(("3", "1")), 3)
        assert list(boxtimes_moments(m2, m3, 3)) == [6, 36, 216]

    def test_delta_one_is_identity(self, two_point):
        m = moments(two_point, 5)
        one = moments(atomic(("1", "1")), 5)
        assert boxtimes_moments(one, m, 5) == m

    def test_bernoulli_pair_frozen_values(self, bernoulli):
        m = moments(bernoulli, 4)
        out = boxtimes_moments(m, m, 2)
        assert list(out) == [Fraction(1, 4), Fraction(3, 16)]

    def test_scalar_factor_in_oracle(self, two_point):
        m_c = moments(atomic(("3/2", "1")), 3)
        m = moments(two_point, 3)
        out = boxtimes_word_oracle(m_c, m, 3)
        assert out.m(3) == Fraction(3, 2) ** 3 * m.m(3)

    def test_oracle_equivalence_on_pool(self):
        pairs = [(mu1, mu2, 5) for mu1, mu2 in product(ATOM_POOL[:4], repeat=2)]
        pairs += [(ATOM_POOL[i], ATOM_POOL[j], 16) for i, j in ((2, 3), (4, 6), (5, 4))]
        for mu1, mu2, p in pairs:
            m1 = moments(mu1, p)
            m2 = moments(mu2, p)
            assert boxtimes_moments(m1, m2, p) == boxtimes_word_oracle(m1, m2, p)

    def test_word_oracle_work_is_polynomial(self, bernoulli, two_point, monkeypatch):
        # one table build of 2p positions gives all p moments, and its
        # elementwise products grow like p^4: doubling p multiplies them by
        # under 2^5, where choosing every subset of first-block positions
        # takes 680,011 gap lookups at p = 16 alone
        builds, products = [], 0
        build = word_engine.prefix_sums

        def counted_build(weight, *args):
            builds.append(len(weight))
            return build(weight, *args)

        def counted_mul(x, y):
            nonlocal products
            products += 1
            return x * y

        monkeypatch.setattr(word_engine, "prefix_sums", counted_build)
        monkeypatch.setattr(noncrossing, "mul", counted_mul)
        work = []
        for p in (8, 16):
            products = 0
            m1, m2 = moments(bernoulli, p), moments(two_point, p)
            assert boxtimes_word_oracle(m1, m2, p) == boxtimes_moments(m1, m2, p)
            work.append(products)
        assert builds == [16, 32]
        assert 0 < work[1] < 2 ** 5 * work[0]

    def test_matches_pass_recursion_to_order_sixteen(self):
        # the replaced O(p^4) recursion is the reference
        cases = [(2, 3, p) for p in range(1, 17)] + [(0, 4, 16), (4, 6, 16), (6, 5, 16)]
        for i, j, p in cases:
            m1 = moments(ATOM_POOL[i], p)
            m2 = moments(ATOM_POOL[j], p)
            r_box = boxtimes_moments_by_passes(
                list(boolean_from_moments(m1)),
                list(boolean_from_moments(m2)),
                p,
            )
            want = moments_from_boolean(r_box)
            assert boxtimes_moments(m1, m2, p) == want

    def test_matches_pass_recursion_at_order_32(self, bernoulli, two_point):
        # the input of the benchmark's order-32 job
        p = 32
        m1, m2 = moments(bernoulli, p), moments(two_point, p)
        r_box = boxtimes_moments_by_passes(
            list(boolean_from_moments(m1)), list(boolean_from_moments(m2)), p
        )
        assert boxtimes_moments(m1, m2, p) == moments_from_boolean(r_box)

    @given(st.integers(1, 6).flatmap(lambda p: st.tuples(moment_lists(p), moment_lists(p))))
    @settings(max_examples=50, deadline=None)
    def test_integer_route_matches_pass_recursion(self, pair):
        # moment-like sequences with m_1 != 0, small or float-derived, and the
        # Fraction oracles on both sides of the recursion
        ms1, ms2 = pair
        p = len(ms1)
        r_box = boxtimes_moments_by_passes(
            boolean_from_moments_by_intervals(ms1), boolean_from_moments_by_intervals(ms2), p
        )
        got = boxtimes_moments(MomentSequence(ms1), MomentSequence(ms2), p)
        assert list(got) == moments_from_boolean_by_intervals(r_box)

    def test_commutativity(self):
        m1 = moments(ATOM_POOL[3], 6)
        m2 = moments(ATOM_POOL[4], 6)
        assert boxtimes_moments(m1, m2, 6) == boxtimes_moments(m2, m1, 6)

    def test_mean_multiplicativity(self):
        for mu1, mu2 in product(ATOM_POOL[2:6], repeat=2):
            m1 = moments(mu1, 2)
            m2 = moments(mu2, 2)
            out = boxtimes_moments(m1, m2, 1)
            assert out.m(1) == m1.m(1) * m2.m(1)

    def test_zero_mean_rejected(self):
        zero = MomentSequence([0, 1])
        with pytest.raises(DomainError):
            boxtimes_moments(zero, zero, 2)

    def test_insufficient_order_rejected(self, bernoulli):
        m = moments(bernoulli, 3)
        with pytest.raises(DomainError):
            boxtimes_moments(m, m, 4)


class TestSubordination:
    def test_point_mass_closed_form(self):
        c, d = 2.0, 3.0
        mu_c = atomic(("2", "1"))
        mu_d = atomic(("3", "1"))
        for z in (-0.1 + 0j, -1.0 + 0j, 0.05 + 0.3j, -0.2 + 0.8j):
            sol = solve_subordination(mu_c, mu_d, z)
            assert abs(sol.z1 - d * z) < 1e-10
            assert abs(sol.z2 - c * z) < 1e-10
            assert abs(sol.k_value - c * d * z) < 1e-10

    def test_residual_contract_on_grid(self, bernoulli):
        for k in range(1, 51):
            z = complex(-(10.0 ** (-k / 10.0)))
            sol = solve_subordination(bernoulli, bernoulli, z, tol=1e-12)
            assert sol.residuals[0] <= 1e-12
            assert sol.residuals[1] <= 1e-12

    def test_negative_axis_values_stay_negative_real(self, bernoulli, two_point):
        for x in (0.01, 0.1, 0.5, 1.0):
            sol = solve_subordination(bernoulli, two_point, complex(-x))
            assert sol.z1.imag == 0 and sol.z2.imag == 0
            assert sol.z1.real < 0 and sol.z2.real < 0

    def test_small_x_slope_matches_first_cumulant(self, bernoulli):
        sol_a = solve_subordination(bernoulli, bernoulli, complex(-1e-4), tol=1e-14)
        sol_b = solve_subordination(bernoulli, bernoulli, complex(-1e-3), tol=1e-14)
        s_a = -sol_a.k_value.real / 1e-4
        s_b = -sol_b.k_value.real / 1e-3
        slope = (10.0 * s_a - s_b) / 9.0
        assert abs(slope - 0.25) < 1e-6

    def test_fitted_cumulants_match_taylor_route(self, bernoulli, two_point):
        m1 = moments(bernoulli, 6)
        m2 = moments(two_point, 6)
        exact = boolean_from_moments(boxtimes_moments(m1, m2, 6))
        fitted = fitted_cumulants(bernoulli, two_point, 3)
        for k in range(1, 4):
            rel = abs(fitted[k - 1] - float(exact[k - 1])) / abs(float(exact[k - 1]))
            assert rel < 1e-6

    def test_subordination_moments_route(self, bernoulli):
        ms, residuals, iterations = boxtimes_via_subordination(bernoulli, bernoulli, 4)
        exact = boxtimes_moments(moments(bernoulli, 4), moments(bernoulli, 4), 4)
        for k in range(1, 5):
            assert abs(ms[k - 1] - float(exact.m(k))) < 1e-6
        assert max(residuals) < 1e-10
        assert iterations >= 1

    def test_fitted_cumulants_match_numpy_mean(self, bernoulli, two_point):
        got = fitted_cumulants(bernoulli, two_point, 8)
        want = fit_boolean_cumulants_numpy(bernoulli, two_point, 8)
        assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want))

    def test_subordination_moments_match_float_loop(self, bernoulli, two_point):
        # the replaced binary64 recursion is the reference
        ms, _, _ = boxtimes_via_subordination(bernoulli, two_point, 8)
        want = moments_from_boolean_float(fit_boolean_cumulants_numpy(bernoulli, two_point, 8))
        assert all(abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(ms, want))

    def test_means_taken_once_per_fit(self, bernoulli, two_point, monkeypatch):
        # every solve used to recompute both exact means: 70 moment calls at p = 12;
        # each measure now takes its own once, for all 35 solves
        taken = count_float_means(monkeypatch)
        ms, _, _ = boxtimes_via_subordination(bernoulli, two_point, 12)
        assert taken == [bernoulli, two_point]
        assert vars(bernoulli)["float_mean"] == 0.5 and vars(two_point)["float_mean"] == 1.5
        monkeypatch.undo()
        fresh = (atomic(("0", "1/2"), ("1", "1/2")), atomic(("1", "1/2"), ("2", "1/2")))
        assert ms == boxtimes_via_subordination(*fresh, 12)[0]

    def test_non_finite_fit_is_a_convergence_error(self, bernoulli, monkeypatch):
        # every contour solve (z in C+) returns K = nan; the three residual
        # probes on the negative axis are solved as usual
        solve = convolution.solve_subordination

        def nan_on_contour(mu1, mu2, z, **kwargs):
            sol = solve(mu1, mu2, z, **kwargs)
            return sol._replace(k_value=complex("nan")) if z.imag > 0 else sol

        monkeypatch.setattr(convolution, "solve_subordination", nan_on_contour)
        with pytest.raises(ConvergenceError, match="non-finite boolean cumulant"):
            boxtimes_via_subordination(bernoulli, bernoulli, 3)

    def test_solve_evaluates_k_once_per_iterate(self, bernoulli, two_point, monkeypatch):
        # K_1(Z_1) serves the update of Z_2 and the residuals, K_2(Z_2) the
        # residuals and the next update of Z_1: 2 per iterate, 1 at the start
        calls = count_calls(monkeypatch, convolution, "krein_k")
        points = [complex(-x) for x in (1e-3, 0.1, 0.9)] + [0.01j, complex(-0.1, 0.2)]
        for mu1, mu2 in ((bernoulli, two_point), (two_point, two_point)):
            for z in points:
                calls.clear()
                sol = solve_subordination(mu1, mu2, z)
                assert sol.iterations > 1 and len(calls) == 2 * sol.iterations + 1
        # a start below |Z| = 1e-280 takes K(Z)/Z as m_1 and evaluates no K there
        calls.clear()
        sol = solve_subordination(bernoulli, two_point, complex(-1e-300))
        assert (sol.iterations, len(calls)) == (1, 2)

    def test_route_gates_once_and_once_per_solve(self, bernoulli, two_point, monkeypatch):
        # one gate for the route, one in each of the 32 contour solves and
        # the 3 residual probes, at any order
        gated = count_calls(monkeypatch, convolution, "_require_m_plus")
        for p in (1, 4, 12):
            gated.clear()
            boxtimes_via_subordination(bernoulli, two_point, p)
            assert len(gated) == 1 + convolution.FIT_POINTS // 2 + 3

    def test_rejects_bad_points(self, bernoulli):
        with pytest.raises(DomainError):
            solve_subordination(bernoulli, bernoulli, 0.5 + 0j)
        with pytest.raises(DomainError):
            solve_subordination(bernoulli, bernoulli, complex(0.1, -0.5))

    def test_rejects_measures_outside_m_plus(self, rademacher, bernoulli):
        with pytest.raises(DomainError):
            solve_subordination(rademacher, bernoulli, -0.1 + 0j)

    def test_non_convergence_reports_residuals(self, bernoulli, two_point):
        with pytest.raises(ConvergenceError) as err:
            solve_subordination(bernoulli, two_point, complex(-0.9), tol=1e-12, max_iter=2)
        assert "residuals" in str(err.value)


class TestFractionalDiagnostics:
    def test_delta_one_exact_integral(self, delta_one):
        for alpha in (0.25, 0.5, 2 / 3):
            report = fractional_diagnostics(delta_one, alpha)
            assert abs(report.integral_value - 1.0) < 1e-10
            assert abs(report.c_mu - 2.0) < 1e-14
            assert abs(report.lower_bound - 0.5) < 1e-14
            assert abs(report.upper_bound - 2.0 / alpha) < 1e-12
            assert report.lower_bound <= report.integral_value <= report.upper_bound
            assert report.verdict == "finite"

    def test_bernoulli_against_mpmath_quadrature(self, bernoulli):
        alpha = 0.5
        report = fractional_diagnostics(bernoulli, alpha)
        # independent: K(-x) = -x/(2+x) integrated by mpmath
        expected = float(
            (1 - alpha)
            * mpmath.quad(lambda x: (x / (2 + x)) * x ** (-1 - alpha), [0, 1])
        )
        assert abs(report.integral_value - expected) < 1e-9
        assert report.lower_bound <= report.integral_value <= report.upper_bound
        assert abs(report.c_mu - 4.0 / 3.0) < 1e-14

    def test_far_apart_atoms_against_mpmath(self):
        # integrals of size 1e3, so the stopping rule must be absolute to
        # bring the error estimate under the diagnostic's bound
        mu = atomic(("1", "1/2"), ("1000000", "1/2"))
        alpha = 0.5
        report = fractional_diagnostics(mu, alpha)
        with mpmath.workdps(30):
            cuts = [0] + [mpmath.mpf(10) ** -k for k in range(9, 0, -1)] + [1]
            integral = mpmath.quad(lambda x: -mp_krein_neg(mu, x) * x ** (-1 - alpha), cuts)
            want = (1 - alpha) * integral
        assert abs(report.integral_value - float(want)) <= 1e-9 * float(want)
        assert report.lower_bound <= report.integral_value <= report.upper_bound

    def test_sandwich_on_pool(self):
        for mu in ATOM_POOL:
            for alpha in (0.3, 0.7):
                report = fractional_diagnostics(mu, alpha)
                assert report.lower_bound <= report.integral_value + 1e-8
                assert report.integral_value <= report.upper_bound + 1e-8
                assert report.verdict == "finite"

    def test_gate_runs_once(self, bernoulli, monkeypatch):
        gated = count_calls(monkeypatch, convolution, "float_measures")
        fractional_diagnostics(bernoulli, 0.5)
        assert gated == [(bernoulli,)]

    def test_alpha_domain(self, delta_one):
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(DomainError):
                fractional_diagnostics(delta_one, bad)

    def test_rejects_non_positive_measure(self, rademacher):
        with pytest.raises(DomainError):
            fractional_diagnostics(rademacher, 0.5)

    @given(
        measures_in_m_plus(),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.lists(st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_verdict_is_the_probe_rule_on_m_plus(self, mu, alpha, xs):
        # Chebyshev's sum inequality: -K(-x) <= m_1 x, up to rounding; so the
        # probes of the reference rule always agree, and the verdict is constant
        for x in xs:
            assert 0.0 <= -_krein(mu.float_atoms, -x) <= mu.float_mean * x * (1.0 + 1e-12)
        try:
            report = fractional_diagnostics(mu, alpha)
        except ConvergenceError:
            # the remainder missed its error bound, and the probe rule, which
            # reads the same integral, reaches no verdict either
            with pytest.raises(ConvergenceError):
                probe_verdict(mu, alpha)
            return
        assert report.verdict == probe_verdict(mu, alpha) == "finite"
        # 0 <= I <= m_1, up to the rule's error bound and rounding
        slack = 1e-8 * max(1.0, mu.float_mean) + 1e-12 * mu.float_mean
        assert -slack <= report.integral_value <= mu.float_mean + slack


def fitted_cumulants(mu1, mu2, p: int) -> list[float]:
    """The boolean cumulants the subordination route fitted, read back
    exactly from its moments."""
    ms, _, _ = boxtimes_via_subordination(mu1, mu2, p)
    return [float(r) for r in boolean_from_moments(MomentSequence(ms))]


def count_calls(monkeypatch, module, name: str) -> list:
    """Count calls of ``module.name`` through the module's global; returns
    the list of positional arguments it fills, one entry per call."""
    calls = []
    func = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_float_means(monkeypatch) -> list:
    """Count every computation of ``float_mean`` on either measure kind that
    has one; returns the list of measures it fills, one entry per
    computation."""
    taken = []
    for cls in (Atomic, DensityGrid):
        compute = vars(cls)["float_mean"].func

        def counted(mu, compute=compute):
            taken.append(mu)
            return compute(mu)

        prop = functools.cached_property(counted)
        prop.__set_name__(cls, "float_mean")
        monkeypatch.setattr(cls, "float_mean", prop)
    return taken


def record_quadratures(monkeypatch, compare=None):
    """Route every quadrature call site through a recorder; returns the list
    of (a, b, value, error, compare(func, a, b)) it fills."""
    calls = []
    rule = convolution.quad

    def recording(func, a, b, tol=1e-10):
        value, error = rule(func, a, b, tol)
        calls.append((a, b, value, error, compare(func, a, b) if compare else None))
        return value, error

    monkeypatch.setattr(convolution, "quad", recording)
    return calls


def mp_krein_neg(mu: Atomic, x):
    """K(-x) of an atomic measure in mpmath arithmetic."""
    atoms = [(mpmath.mpf(u.numerator) / u.denominator, mpmath.mpf(w.numerator) / w.denominator)
             for u, w in mu.atoms]
    num = sum(w * u / (1 + x * u) for u, w in atoms)
    den = sum(w / (1 + x * u) for u, w in atoms)
    return -x * num / den


class TestQuadrature:
    def test_matches_scipy_at_every_call_site(self, monkeypatch, bernoulli, two_point):
        calls = record_quadratures(monkeypatch, scipy_quad)
        for mu in (bernoulli, two_point):
            for alpha in (0.25, 0.5, 0.75):
                fractional_diagnostics(mu, alpha)  # the remainder alone
        assert [(a, b) for a, b, *_ in calls] == [(0.0, 1.0)] * 6
        for a, b, value, _, (reference, _) in calls:
            assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference)), (a, b)

    def test_probes_where_scipy_lost_accuracy_match_mpmath(self):
        # the measure of a benchmark diagnose job; scipy's middle probe was 2.7% off
        mu = atomic(("3/2", "2/3"), ("5/2", "1/3"))
        alpha = 0.75
        assert fractional_diagnostics(mu, alpha).verdict == probe_verdict(mu, alpha) == "finite"
        for eps, value in zip(PROBE_CUTOFFS, fractional_probes(mu, alpha)):
            cuts = [eps * 10 ** k for k in range(7)] + [1]
            with mpmath.workdps(30):
                want = mpmath.quad(lambda x: -mp_krein_neg(mu, x) * x ** (-1 - alpha), cuts)
            assert abs(value - float(want)) <= 1e-9

    def test_vectorized_krein_matches_exact(self):
        # the loop over atoms, and the numpy expression it replaced
        xs = [Fraction(1, 10 ** 9), Fraction(1, 1000), Fraction(1, 3), Fraction(1), Fraction(7, 2)]
        for mu in ATOM_POOL:
            vectorized = krein_on_negative_axis_vectorized(mu)(np.array([float(x) for x in xs]))
            for x, old in zip(xs, vectorized):
                want = float(krein_k_exact(mu, -x))
                for value in (_krein(mu.float_atoms, -float(x)), old):
                    assert abs(value - want) <= 4e-16 * abs(want)

    def test_diagnostic_integrals_match_numpy_rule(self, monkeypatch, bernoulli, two_point):
        calls = record_quadratures(monkeypatch)
        cases = [(mu, alpha) for mu in (bernoulli, two_point) for alpha in (0.25, 0.75)]
        for mu, alpha in cases:
            fractional_diagnostics(mu, alpha)  # the remainder alone
        assert len(calls) == len(cases)
        for (mu, alpha), (a, b, value, _, _) in zip(cases, calls):
            k_neg = krein_on_negative_axis_vectorized(mu)
            mean = float(moments(mu, 1).m(1))

            def remainder(x):
                return (-k_neg(x) - mean * x) * x ** (-1.0 - alpha)

            want, _ = quad_numpy(remainder, a, b)
            assert abs(value - want) <= 1e-12 * abs(want), (mu, alpha, a)

    def test_error_above_bound_is_convergence_error(self, monkeypatch, bernoulli):
        rule = convolution.quad

        def loose(func, a, b, tol):
            return rule(func, a, b, tol)[0], 1e-3

        monkeypatch.setattr(convolution, "quad", loose)  # the remainder, the one quadrature
        with pytest.raises(ConvergenceError, match=r"on \[0, 1\] exceeds its 1e-8 bound"):
            fractional_diagnostics(bernoulli, 0.5)

    def test_rule_on_closed_forms(self):
        cases = [
            (math.sqrt, 0.0, 1.0, 2.0 / 3.0),
            (math.exp, -1.0, 2.0, math.exp(2.0) - math.exp(-1.0)),
            (lambda x: 1.0 / (1.0 + x * x), 5.0, -5.0, -2.0 * math.atan(5.0)),
            (lambda x: math.sqrt(1.0 - x * x), -1.0, 1.0, math.pi / 2.0),
        ]
        for func, a, b, want in cases:
            value, error = convolution.quad(func, a, b, 1e-12)
            assert abs(value - want) <= 1e-13 and error <= 1e-12

    def test_non_finite_integrand_reports_infinite_error(self):
        value, error = convolution.quad(lambda x: math.nan, 0.0, 1.0)
        assert math.isnan(value) and error == math.inf
        # sums that math.fsum refuses: inf - inf, and finite terms past the range
        value, error = convolution.quad(lambda x: math.inf if x < 0.5 else -math.inf, 0.0, 1.0)
        assert math.isnan(value) and error == math.inf
        value, error = convolution.quad(lambda x: 1e308, 0.0, 1.0)
        assert value == math.inf and error == math.inf
