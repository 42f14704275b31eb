import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freeconv.errors import DomainError
from freeconv.measures import Atomic, MomentSequence, as_fraction, moments
from freeconv.transforms import (
    _divide_by_one_plus,
    boolean_from_moments,
    free_from_moments,
    moments_from_boolean,
    moments_from_free,
)
from oracles import (
    boolean_cumulants_closed_form,
    boolean_from_moments_by_intervals,
    compose,
    free_cumulants_bruteforce,
    free_cumulants_moebius,
    free_from_moments_by_powers,
    krein_expansion_check,
    moments_from_boolean_by_intervals,
    moments_from_free_bruteforce,
    moments_from_free_by_powers,
)

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=20
)

# binary64-derived rationals as large as 1e3 and as small as 1e-300, whose
# denominators run to 2^1000 and more
float_rationals = st.builds(
    lambda mantissa, exponent: as_fraction(mantissa * 10.0 ** exponent),
    st.floats(min_value=-9.99, max_value=9.99),
    st.integers(-300, 2),
)
coefficients = st.one_of(rationals, float_rationals)


@st.composite
def series(draw, max_size):
    """Coefficient lists mixing small rationals and float-derived ones,
    with the first coefficient zero a quarter of the time."""
    values = draw(st.lists(coefficients, min_size=1, max_size=max_size))
    if draw(st.integers(0, 3)) == 0:
        values[0] = Fraction(0)
    return values


def seq(values):
    return MomentSequence([Fraction(v) for v in values])


class TestPowerSeries:
    def test_divide_by_one_plus_inverts_multiplication(self):
        f = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7), 0, 1]
        g = [2, 1, Fraction(1, 5), -3, 0]
        # (1 + g) f truncated: coefficient k is f_k + sum_{i<k} f_i g_(k-i)
        one_plus_g_times = [f[k] + sum(f[i] * g[k - 1 - i] for i in range(k)) for k in range(5)]
        assert _divide_by_one_plus(one_plus_g_times, g) == f

    def test_compose_with_identity(self):
        f = (3, -1, 4, -1)
        ident = (1, 0, 0, 0)
        assert compose(f, ident) == f
        assert compose(ident, f) == f

    def test_compose_known_expansion(self):
        # f = z/(1-z) truncated, g = z^2: f(g) = z^2 + z^4
        f = (1, 1, 1, 1)
        g = (0, 1, 0, 0)
        assert compose(f, g) == (0, 1, 0, 1)


class TestBooleanCumulants:
    def test_bernoulli_geometric(self):
        # frozen from the closed forms on m = (1/2, 1/2, 1/2, 1/2)
        r = boolean_from_moments(seq(["1/2", "1/2", "1/2", "1/2"]))
        assert r == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
            Fraction(1, 16),
        )

    def test_point_mass_single_cumulant(self):
        c = Fraction(5, 3)
        r = boolean_from_moments(seq([c, c ** 2, c ** 3]))
        assert r == (c, 0, 0)

    def test_standard_semicircle(self):
        r = boolean_from_moments(seq([0, 1, 0, 2]))
        assert r == (0, 1, 0, 1)

    @given(st.lists(rationals, min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_universal_closed_forms(self, ms):
        got = boolean_from_moments(seq(ms))
        assert list(got) == boolean_cumulants_closed_form(ms)

    def test_inverse_point_mass(self):
        c = Fraction(-3, 7)
        m = moments_from_boolean([c, 0, 0])
        assert m.moments == (c, c ** 2, c ** 3)

    def test_inverse_semicircle(self):
        m = moments_from_boolean([0, 1, 0, 1])
        assert m.moments == (0, 1, 0, 2)

    @given(st.lists(rationals, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_exact(self, ms):
        m = seq(ms)
        assert moments_from_boolean(boolean_from_moments(m)) == m

    def test_inverses_take_any_rationals_and_reject_empty(self):
        # floats convert by their exact binary64 ratio, as the subordination fit needs
        cumulants = [0.1, "1/3", 2]
        exact = [Fraction(0.1), Fraction(1, 3), Fraction(2)]
        assert moments_from_boolean(cumulants) == moments_from_boolean(exact)
        assert moments_from_free(cumulants) == moments_from_free(exact)
        for inverse in (moments_from_boolean, moments_from_free):
            with pytest.raises(DomainError):
                inverse([])

    def test_series_route_agrees(self):
        # K = M/(1+M) and M = K/(1-K) by series division, against the closed forms
        ms = [Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7), Fraction(4, 9)]
        ks = _divide_by_one_plus(ms, ms)
        assert ks == boolean_cumulants_closed_form(ms)
        assert _divide_by_one_plus(ks, [-k for k in ks]) == ms


class TestIntegerRoute:
    """The conversions run on dilated integer series; the Fraction routes
    in ``oracles`` must agree with them exactly."""

    @given(series(max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_boolean_conversions_match_interval_sums(self, values):
        assert list(boolean_from_moments(seq(values))) == boolean_from_moments_by_intervals(values)
        assert list(moments_from_boolean(values)) == moments_from_boolean_by_intervals(values)

    @given(series(max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_free_conversions_match_power_recursions(self, values):
        assert list(free_from_moments(seq(values))) == free_from_moments_by_powers(values)
        assert list(moments_from_free(values)) == moments_from_free_by_powers(values)


class TestFreeCumulants:
    def test_semicircle_vanishing(self):
        kappa = free_from_moments(seq([0, 1, 0, 2, 0, 5]))
        assert kappa == (0, 1, 0, 0, 0, 0)

    def test_point_mass(self):
        c = Fraction(2, 3)
        m = moments_from_free([c, 0, 0])
        assert m.moments == (c, c ** 2, c ** 3)

    def test_bernoulli_half_projection(self):
        # frozen from the brute-force NC(n) solve
        kappa = free_from_moments(seq(["1/2"] * 4))
        assert kappa == (
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(0),
            Fraction(-1, 16),
        )

    @given(st.lists(rationals, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_against_bruteforce_nc_solve(self, ms):
        got = free_from_moments(seq(ms))
        assert list(got) == free_cumulants_bruteforce([Fraction(v) for v in ms])

    def test_against_moebius_inversion_to_order_seven(self):
        ms = [
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
        ]
        assert list(free_from_moments(seq(ms))) == free_cumulants_moebius(ms)
        ms2 = [Fraction(k, 3) for k in (1, 2, 1, -1, 2, 0, 1)]
        assert list(free_from_moments(seq(ms2))) == free_cumulants_moebius(ms2)

    @given(st.lists(rationals, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_exact(self, ms):
        m = seq(ms)
        assert moments_from_free(free_from_moments(m)) == m

    def test_matches_power_recursion_to_order_24(self):
        # the replaced conversions are the reference; both are prefix-stable,
        # so one order-24 oracle run covers every order d = 1..24
        rng = random.Random(7)
        two_point = moments(Atomic([(1, Fraction(1, 2)), (2, Fraction(1, 2))]), 24)
        noise = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(24)]
        for ms in (list(two_point.moments), noise):
            want_kappa = free_from_moments_by_powers(ms)
            want_m = moments_from_free_by_powers(ms)
            for d in range(1, 25):
                assert list(free_from_moments(seq(ms[:d]))) == want_kappa[:d]
                got = moments_from_free(ms[:d]).moments
                assert list(got) == want_m[:d]

    def test_round_trip_at_order_48(self):
        m = moments(Atomic([(1, Fraction(1, 3)), (Fraction(5, 2), Fraction(2, 3))]), 48)
        assert moments_from_free(free_from_moments(m)) == m

    @given(st.lists(rationals, min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_forward_matches_bruteforce(self, ks):
        got = moments_from_free([Fraction(v) for v in ks])
        assert list(got.moments) == moments_from_free_bruteforce(ks)


class TestKreinExpansionCheck:
    def test_point_mass_is_exact(self, delta_one):
        m = moments(delta_one, 3)
        report = krein_expansion_check(delta_one, m, 3)
        assert report.passed
        assert all(r == 0 for r in report.ratios)

    def test_bernoulli_ratios_decay(self, bernoulli):
        m = moments(bernoulli, 2)
        report = krein_expansion_check(bernoulli, m, 2)
        assert report.passed
        assert report.ratios[-1] < 1e-3
        # exact remainder is x^3/(4(2+x)), so the ratio is x/(4(2+x))
        x = report.xs[-1]
        assert abs(report.ratios[-1] - x / (4 * (2 + x))) < 1e-15

    def test_two_point_higher_order(self, two_point):
        m = moments(two_point, 4)
        report = krein_expansion_check(two_point, m, 4)
        assert report.passed
        tail = report.ratios[report.burn_in:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_rejects_short_moments(self, bernoulli):
        with pytest.raises(DomainError):
            krein_expansion_check(bernoulli, moments(bernoulli, 2), 3)

    def test_rejects_measures_off_half_line(self, rademacher):
        with pytest.raises(DomainError):
            krein_expansion_check(rademacher, MomentSequence([0, 1]), 2)
