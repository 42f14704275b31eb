import math
from fractions import Fraction
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv.errors import ConvergenceError, DomainError
from freeconv import measures
from freeconv.measures import (
    Atomic,
    MomentSequence,
    as_fraction,
    moments,
)
from freeconv.transforms import (
    boolean_from_moments,
    moments_from_boolean,
)
from freeconv import convolution, noncrossing, word_engine
from freeconv.word_engine import Word, mixed_moment
from freeconv.convolution import (
    boxplus_moments,
    boxtimes_moments,
    boxtimes_via_subordination,
    boxtimes_word_oracle,
    fit_boolean_cumulants_from_subordination,
    fractional_diagnostics,
    solve_subordination,
)
from oracles import (
    boolean_from_moments_by_intervals,
    boxtimes_moments_by_passes,
    fit_boolean_cumulants_numpy,
    krein_k_exact,
    krein_on_negative_axis_vectorized,
    moments_from_boolean_by_intervals,
    moments_from_boolean_float,
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
        fitted = fit_boolean_cumulants_from_subordination(bernoulli, two_point, 3)
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
        got = fit_boolean_cumulants_from_subordination(bernoulli, two_point, 8)
        want = fit_boolean_cumulants_numpy(bernoulli, two_point, 8)
        assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, want))

    def test_subordination_moments_match_float_loop(self, bernoulli, two_point):
        # the replaced binary64 recursion is the reference
        ms, _, _ = boxtimes_via_subordination(bernoulli, two_point, 8)
        fitted = fit_boolean_cumulants_from_subordination(bernoulli, two_point, 8)
        want = moments_from_boolean_float(fitted)
        assert all(abs(a - b) <= 1e-12 * max(1.0, abs(b)) for a, b in zip(ms, want))

    def test_means_taken_once_per_fit(self, bernoulli, two_point, monkeypatch):
        # every solve used to recompute both exact means: 70 moment calls at p = 12
        orders = []

        def counted(mu, order):
            orders.append(order)
            return moments(mu, order)

        monkeypatch.setattr(convolution, "moments", counted)
        ms, _, _ = boxtimes_via_subordination(bernoulli, two_point, 12)
        monkeypatch.undo()
        assert orders == [1, 1]
        assert ms == boxtimes_via_subordination(bernoulli, two_point, 12)[0]

    def test_non_finite_fit_is_a_convergence_error(self, bernoulli, monkeypatch):
        monkeypatch.setattr(
            convolution, "fit_boolean_cumulants_from_subordination",
            lambda mu1, mu2, p, means: [float("nan")] * p,
        )
        with pytest.raises(ConvergenceError):
            boxtimes_via_subordination(bernoulli, bernoulli, 3)

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
        # bring the error estimate under the diagnostic's bound of 1e-8
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

    def test_alpha_domain(self, delta_one):
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(DomainError):
                fractional_diagnostics(delta_one, bad)

    def test_rejects_non_positive_measure(self, rademacher):
        with pytest.raises(DomainError):
            fractional_diagnostics(rademacher, 0.5)


def record_quadratures(monkeypatch, compare=None):
    """Route every quadrature call site through a recorder; returns the list
    of (a, b, value, error, compare(func, a, b)) it fills."""
    calls = []
    rule = measures.quad

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
                fractional_diagnostics(mu, alpha)  # the remainder and three probes
        assert len(calls) == 6 * 4
        for a, b, value, _, (reference, _) in calls:
            assert abs(value - reference) <= 1e-10 * max(1.0, abs(reference)), (a, b)

    def test_probes_where_scipy_lost_accuracy_match_mpmath(self, monkeypatch):
        # the measure of a benchmark diagnose job; scipy's middle probe was 2.7% off
        mu = atomic(("3/2", "2/3"), ("5/2", "1/3"))
        alpha = 0.75
        calls = record_quadratures(monkeypatch)
        report = fractional_diagnostics(mu, alpha)
        assert report.verdict == "finite"
        probes = calls[1:]
        assert [a for a, *_ in probes] == [1e-6, 5e-7, 2.5e-7]
        for eps, _, value, _, _ in probes:
            cuts = [eps * 10 ** k for k in range(7)] + [1]
            with mpmath.workdps(30):
                want = mpmath.quad(lambda x: -mp_krein_neg(mu, x) * x ** (-1 - alpha), cuts)
            assert abs(value - float(want)) <= 1e-9

    def test_vectorized_krein_matches_exact(self):
        # the loop over atoms, and the numpy expression it replaced
        xs = [Fraction(1, 10 ** 9), Fraction(1, 1000), Fraction(1, 3), Fraction(1), Fraction(7, 2)]
        for mu in ATOM_POOL:
            k_neg = convolution._krein_on_negative_axis(mu)
            vectorized = krein_on_negative_axis_vectorized(mu)(np.array([float(x) for x in xs]))
            for x, old in zip(xs, vectorized):
                want = float(krein_k_exact(mu, -x))
                for value in (k_neg(float(x)), old):
                    assert abs(value - want) <= 4e-16 * abs(want)

    def test_diagnostic_integrals_match_numpy_rule(self, monkeypatch, bernoulli, two_point):
        calls = record_quadratures(monkeypatch)
        cases = [(mu, alpha) for mu in (bernoulli, two_point) for alpha in (0.25, 0.75)]
        for mu, alpha in cases:
            fractional_diagnostics(mu, alpha)  # the remainder and three probes
        assert len(calls) == 4 * len(cases)
        for (mu, alpha), at in zip(cases, range(0, len(calls), 4)):
            k_neg = krein_on_negative_axis_vectorized(mu)
            mean = float(moments(mu, 1).m(1))

            def remainder(x):
                return (-k_neg(x) - mean * x) * x ** (-1.0 - alpha)

            def raw(x):
                return -k_neg(x) * x ** (-1.0 - alpha)

            for a, b, value, _, _ in calls[at:at + 4]:
                want, _ = quad_numpy(remainder if a == 0.0 else raw, a, b)
                assert abs(value - want) <= 1e-12 * abs(want), (mu, alpha, a)

    def test_error_above_bound_is_convergence_error(self, monkeypatch, bernoulli):
        def loose_when(predicate):
            def fake(func, a, b, tol):
                value, error = measures.quad(func, a, b, tol)
                return value, (1e-3 if predicate(a) else error)
            return fake

        monkeypatch.setattr(convolution, "quad", loose_when(lambda a: a > 0))  # probes only
        with pytest.raises(ConvergenceError):
            fractional_diagnostics(bernoulli, 0.5)
        monkeypatch.setattr(convolution, "quad", loose_when(lambda a: a == 0))  # the remainder
        with pytest.raises(ConvergenceError):
            fractional_diagnostics(bernoulli, 0.5)

    def test_rule_on_closed_forms(self):
        cases = [
            (math.sqrt, 0.0, 1.0, 2.0 / 3.0),
            (math.exp, -1.0, 2.0, math.exp(2.0) - math.exp(-1.0)),
            (lambda x: 1.0 / (1.0 + x * x), 5.0, -5.0, -2.0 * math.atan(5.0)),
            (lambda x: math.sqrt(1.0 - x * x), -1.0, 1.0, math.pi / 2.0),
        ]
        for func, a, b, want in cases:
            value, error = measures.quad(func, a, b, 1e-12)
            assert abs(value - want) <= 1e-13 and error <= 1e-12

    def test_non_finite_integrand_reports_infinite_error(self):
        value, error = measures.quad(lambda x: math.nan, 0.0, 1.0)
        assert math.isnan(value) and error == math.inf
        # sums that math.fsum refuses: inf - inf, and finite terms past the range
        value, error = measures.quad(lambda x: math.inf if x < 0.5 else -math.inf, 0.0, 1.0)
        assert math.isnan(value) and error == math.inf
        value, error = measures.quad(lambda x: 1e308, 0.0, 1.0)
        assert value == math.inf and error == math.inf
