import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from freeconv.characterize import DichotomyReport, QuadraticFormSpec, ValidityReport
from freeconv.convolution import (
    DiagnosticsReport,
    SubordinationSolution,
    _c_mu,
    _fractional_sums,
    fractional_diagnostics,
)
from freeconv.errors import DomainError, ParseError
from freeconv.matrix_lab import InequalityReport, MatrixEnsembleSpec, TraceEstimate
from freeconv.measures import (
    _hankel_matrices,
    Atomic,
    DensityGrid,
    MomentSequence,
    Semicircle,
    as_float,
    as_fraction,
    dilate,
    float_measures,
    hankel_psd,
    in_m_plus,
    is_positive_supported,
    krein_k,
    measure_from_json,
    measure_to_json,
    moments,
)
from freeconv.word_engine import Word
from oracles import (
    _exact_hankel_psd,
    _integer_psd,
    absolute_moment,
    exact_psd_ldl,
    grid_c_mu_trapezoid,
    grid_fractional_moment_trapezoid,
    grid_moment_below_one_trapezoid,
    grid_moments_trapezoid,
    grid_krein_trapezoid,
    krein_k_exact,
    normalized_grid,
    psi,
    psi_exact,
    weight_at,
)


def semicircle_density_moment(center, radius, k):
    """Quadrature of the semicircle density, the independent moment oracle."""
    def f(x):
        return (
            2.0 / (math.pi * radius ** 2)
            * math.sqrt(max(radius ** 2 - (x - center) ** 2, 0.0))
            * x ** k
        )
    val, err = quad(f, center - radius, center + radius, limit=200)
    return val, err


class TestConstruction:
    def test_atomic_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            Atomic([(0, Fraction(1, 2)), (1, Fraction(1, 3))])

    def test_atomic_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            Atomic([(0, Fraction(3, 2)), (1, Fraction(-1, 2))])

    def test_atomic_duplicate_locations_rejected(self):
        with pytest.raises(DomainError):
            Atomic([(1, "1/2"), (1, "1/2")])

    def test_atomic_accepts_string_rationals(self):
        mu = Atomic([("0", "1/2"), ("1", "1/2")])
        assert weight_at(mu, 1) == Fraction(1, 2)

    def test_semicircle_radius_positive(self):
        with pytest.raises(DomainError):
            Semicircle(0, 0)

    def test_grid_needs_two_nodes(self):
        with pytest.raises(DomainError):
            DensityGrid([1.0], [1.0])

    def test_grid_must_be_normalized(self):
        with pytest.raises(DomainError):
            DensityGrid([0.0, 1.0], [2.0, 2.0])
        with pytest.raises(DomainError):  # mass nan: 0 * inf on an interval past binary64
            DensityGrid([-1e308, 1e308], [0.0, 0.0])
        grid = normalized_grid([0.0, 1.0], [2.0, 2.0])
        assert abs(np.trapezoid(grid.f, grid.x) - 1.0) < 1e-14

    @pytest.mark.parametrize(
        "x, f",
        [([0.0, 1.0, 2.0], [math.nan, 1.0, 0.0]), ([0.0, 1.0, math.inf], [0.0, 1.0, 0.0])],
    )
    def test_grid_rejects_non_finite_values(self, x, f):
        with pytest.raises(ParseError):
            DensityGrid(x, f)

    def test_grid_must_ascend(self):
        with pytest.raises(DomainError):
            DensityGrid([1.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Atomic([(0, "1/2"), (1, "1/2")]),
            lambda: Semicircle(1, 2),
            lambda: MomentSequence([0, 1]),
            lambda: Word((1, 2, 1)),
            lambda: QuadraticFormSpec([[1, -1], [-1, 1]], [1, 1]),
            lambda: MatrixEnsembleSpec(4, 2, "diagonal", 0, Atomic([(1, 1)])),
            *(
                lambda cls=cls: cls(*range(len(cls._fields)))
                for cls in (ValidityReport, DichotomyReport, SubordinationSolution,
                            DiagnosticsReport, TraceEstimate, InequalityReport)
            ),
            lambda: DensityGrid([0.0, 1.0], [1.0, 1.0]),
        ],
    )
    def test_values_compare_by_fields_and_are_frozen(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert repr(a).startswith(f"{type(a).__name__}(")
        field = next(iter(getattr(a, "_fields", None) or type(a).__annotations__))
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)

    def test_atomic_caches_float_atoms(self, bernoulli):
        assert bernoulli.float_atoms is bernoulli.float_atoms == ((0.0, 0.5), (1.0, 0.5))

    def test_atomic_caches_positivity(self, bernoulli):
        # krein_k checks the support on every call; the Fraction comparison runs once
        krein_k(bernoulli, -0.5)
        assert vars(bernoulli)["positive_supported"] is True
        mixed = Atomic([(2, "1/2"), (-1, "1/4"), (0, "1/4")])
        assert not is_positive_supported(mixed) and vars(mixed)["positive_supported"] is False

    def test_ensemble_spec_measure_defaults_to_none(self):
        assert MatrixEnsembleSpec(dimension=4, count=1, kind="goe", seed=0).measure is None

    def test_support_flags(self, bernoulli, rademacher):
        assert is_positive_supported(bernoulli)
        assert in_m_plus(bernoulli)
        assert not is_positive_supported(rademacher)
        assert not in_m_plus(Atomic([(0, 1)]))
        assert in_m_plus(Semicircle(3, 2))
        assert not is_positive_supported(Semicircle(0, 2))

    @given(
        st.lists(
            st.tuples(st.fractions(min_value=0, max_value=3, max_denominator=6), st.integers(1, 9)),
            min_size=1,
            max_size=4,
            unique_by=lambda atom: atom[0],
        )
    )
    def test_m_plus_reads_the_top_atom(self, atoms):
        # on [0, inf), mass at 0 below 1 is a support point above 0
        total = sum(w for _, w in atoms)
        mu = Atomic([(x, Fraction(w, total)) for x, w in atoms])
        assert in_m_plus(mu) is (weight_at(mu, 0) < 1)

    def test_m_plus_reads_the_float_atoms(self):
        # the trapezoid density 2(1 - x) on [0, 1] has nodal measure delta_0
        grid = DensityGrid([0.0, 1.0], [2.0, 0.0])
        assert grid.float_atoms == ((0.0, 1.0),)
        assert is_positive_supported(grid) and not in_m_plus(grid)
        assert in_m_plus(DensityGrid([0.0, 1.0], [1.0, 1.0]))
        # so is an atomic measure read in binary64: 10^-400 rounds to 0
        assert not in_m_plus(Atomic([("1e-400", 1)]))
        assert in_m_plus(Atomic([("1e-300", 1)])) and in_m_plus(Atomic([("1e400", 1)]))

    @pytest.mark.parametrize("m_plus", [False, True])
    def test_float_gate_checks_every_support_before_any_kind(self, rademacher, m_plus):
        # a semicircle in M+ beside a measure off [0, inf) is refused for the
        # support in either order; alone, for its kind
        words = {"support": "off", "semicircle": "semicircle", "m_plus": m_plus}
        semicircle = Semicircle(3, 2)
        for pair in ((semicircle, rademacher), (rademacher, semicircle)):
            with pytest.raises(DomainError, match="^off$"):
                float_measures(*pair, **words)
        with pytest.raises(DomainError, match="^semicircle$"):
            float_measures(semicircle, **words)
        with pytest.raises(DomainError, match="^off$" if m_plus else "^semicircle$"):
            float_measures(Atomic([(0, 1)]), semicircle, **words)
        grid = DensityGrid([0.0, 1.0], [1.0, 1.0])
        assert float_measures(grid, **words) == (grid,)

    @given(
        st.one_of(
            st.lists(
                st.tuples(
                    st.fractions(min_value=-3, max_value=10 ** 6, max_denominator=99),
                    st.integers(1, 9),
                ),
                min_size=1,
                max_size=5,
                unique_by=lambda atom: atom[0],
            ).map(lambda atoms: Atomic(
                [(x, Fraction(w, sum(v for _, v in atoms))) for x, w in atoms]
            )),
            st.tuples(
                st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20),
                st.floats(-10.0, 10.0),
                st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), min_size=21, max_size=21),
            ).filter(lambda g: any(g[2][:len(g[0]) + 1])).map(lambda g: normalized_grid(
                list(itertools.accumulate([g[1], *g[0]])), g[2][:len(g[0]) + 1]
            )),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_float_mean_is_the_rounded_first_moment(self, mu):
        # the value the float layer took from moments(mu, 1) on every solve
        assert mu.float_mean == as_float(moments(mu, 1).m(1))
        assert vars(mu)["float_mean"] is mu.float_mean

    def test_grid_support_counts_trapezoid_mass(self):
        # zero at the negative node, but the trapezoid density is positive on (-1, 0)
        assert not is_positive_supported(DensityGrid([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]))
        assert is_positive_supported(DensityGrid([-1.0, 0.0, 1.0, 2.0], [0.0, 0.0, 1.0, 0.0]))


class TestMoments:
    def test_point_mass_powers(self, delta_one):
        assert list(moments(delta_one, 4)) == [1, 1, 1, 1]

    def test_bernoulli_projection(self, bernoulli):
        assert list(moments(bernoulli, 3)) == [Fraction(1, 2)] * 3

    def test_standard_semicircle_catalan(self, standard_semicircle):
        # density quadrature and Catalan counts agree on [0,1,0,2,0,5]
        seq = moments(standard_semicircle, 6)
        assert list(seq) == [0, 1, 0, 2, 0, 5]
        for k in range(1, 7):
            val, _ = semicircle_density_moment(0.0, 2.0, k)
            assert abs(float(seq.m(k)) - val) < 1e-7

    def test_semicircle_quadrature_high_order(self, standard_semicircle):
        seq = moments(standard_semicircle, 10)
        for k in range(1, 11):
            val, _ = semicircle_density_moment(0.0, 2.0, k)
            assert abs(float(seq.m(k)) - val) < 1e-9 * max(1.0, abs(val))

    def test_shifted_semicircle_binomial_expansion(self):
        # center 0 skips the expansion: the centered moments are the moments
        for center in (3, 0):
            seq = moments(Semicircle(center, Fraction(1, 2)), 6)
            for k in range(1, 7):
                val, err = semicircle_density_moment(center, 0.5, k)
                assert abs(float(seq.m(k)) - val) < 1e-7 * max(1.0, abs(val))

    def test_grid_moments_match_atomic_limit(self):
        xs = np.linspace(0.0, 4.0, 4001)
        fs = np.where(np.abs(xs - 2.0) <= 1.0, 0.5, 0.0)
        grid = normalized_grid(xs, fs)
        seq = moments(grid, 3)
        # uniform on [1, 3]: m_1 = 2, m_2 = 13/3, m_3 = 10
        assert abs(float(seq.m(1)) - 2.0) < 1e-3
        assert abs(float(seq.m(2)) - 13.0 / 3.0) < 1e-2
        assert abs(float(seq.m(3)) - 10.0) < 3e-2

    @given(
        st.one_of(
            st.lists(
                st.tuples(
                    st.fractions(min_value=-1, max_value=3, max_denominator=6),
                    st.integers(1, 9),
                ),
                min_size=1,
                max_size=4,
                unique_by=lambda atom: atom[0],
            ).map(lambda atoms: Atomic(
                [(x, Fraction(w, sum(v for _, v in atoms))) for x, w in atoms]
            )),
            st.builds(
                Semicircle,
                st.fractions(min_value=-1, max_value=4, max_denominator=9),
                st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9),
            ),
        ),
        st.integers(1, 24),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_moments_have_psd_hankel_matrices(self, mu, order):
        # moments checks nothing: the constructors make mu a positive measure,
        # and the shifted matrices are PSD too when its support is in [0, inf)
        seq = moments(mu, order)
        assert _exact_hankel_psd(seq.moments, is_positive_supported(mu))

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12),
        st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), min_size=12, max_size=12),
        st.floats(-2.0, 3.0),
        st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_grid_moments_are_the_nodal_measures(self, gaps, heights, start, order):
        # the trapezoid moments of f x^k are those of sum w_i delta(x_i), with
        # w_i = f_i (x_(i+1) - x_(i-1))/2 >= 0 and half intervals at the ends,
        # so they pass the Hankel check that moments does not run
        x = start + np.cumsum(gaps)
        assume(any(heights[: len(x)]))
        grid = normalized_grid(x, heights[: len(x)])
        xs = [Fraction(v) for v in grid.x]
        ends = [xs[0], *xs, xs[-1]]
        weights = [Fraction(f) * (ends[i + 2] - ends[i]) / 2 for i, f in enumerate(grid.f)]
        seq = moments(grid, order)
        for k in range(1, order + 1):
            nodal = sum(w * v ** k for v, w in zip(xs, weights))
            scale = sum(w * abs(v) ** k for v, w in zip(xs, weights))
            assert abs(float(seq.m(k) - nodal)) <= 1e-12 * float(scale)
        assert hankel_psd(seq, shifted=is_positive_supported(grid))

    def test_fractional_moment_rejects_semicircles(self):
        # semicircles are moments-only: m_alpha has no evaluation path
        with pytest.raises(DomainError, match="moments-only"):
            fractional_diagnostics(Semicircle(3, 2), 0.5)

    def test_order_must_be_positive(self, bernoulli):
        with pytest.raises(DomainError):
            moments(bernoulli, 0)

    def test_absolute_moment_symmetric_atoms(self, rademacher):
        assert absolute_moment(rademacher, 3) == 1

    def test_moment_sequence_accessors(self):
        seq = MomentSequence(["1/2", "1/3"])
        assert seq.m(0) == 1
        assert seq.m(2) == Fraction(1, 3)
        with pytest.raises(DomainError):
            seq.m(3)
        assert seq.moments[:1] == (Fraction(1, 2),)

    def test_hankel_psd_detects_impossible_sequence(self):
        ok = MomentSequence([Fraction(1, 2), Fraction(1, 2)])
        bad = MomentSequence([0, -1])  # variance would be negative
        assert hankel_psd(ok)
        assert not hankel_psd(bad)

    @pytest.mark.parametrize(
        "mat, psd",
        [
            ([[1, 2], [2, 4]], True),  # singular: second pivot is zero
            ([[0, 0], [0, 3]], True),  # zero pivot with a zero row
            ([[0, 1], [1, 5]], False),  # zero pivot with a nonzero row
            ([[1, 2], [2, 3]], False),  # negative second pivot
            ([[4, 2, 2], [2, 2, 1], [2, 1, Fraction(1, 2)]], False),
        ],
    )
    def test_exact_psd_by_elimination(self, mat, psd):
        # a positive multiple of the matrix clears its denominators
        scale = math.lcm(*(Fraction(v).denominator for row in mat for v in row))
        assert _integer_psd([[int(Fraction(v) * scale) for v in row] for row in mat]) is psd
        assert exact_psd_ldl(mat) is psd

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4)
        ),
        st.integers(-2, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_psd_agrees_with_eigenvalues(self, rows, shift):
        # B^T B + shift I has integer entries; its nonzero eigenvalues are far
        # from 0 at this size, so binary64 with a 1e-9 margin decides exactly
        b = np.array(rows)
        mat = b.T @ b + shift * np.eye(b.shape[1], dtype=int)
        want = bool(np.linalg.eigvalsh(mat.astype(float)).min() >= -1e-9)
        assert _integer_psd([[int(v) for v in row] for row in mat]) is want

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-3, max_value=3, max_denominator=6),
                st.integers(1, 9),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda atom: atom[0],
        ),
        st.integers(1, 12),
        st.fractions(min_value=-2, max_value=2, max_denominator=9),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_hankel_check_agrees_with_ldl(self, atoms, k, nudge):
        # order 12 of at most 3 atoms leaves a singular 7 x 7 Hankel matrix,
        # so the zero-pivot path runs; a nudged moment can go either way
        total = sum(w for _, w in atoms)
        ms = [sum(Fraction(w, total) * x ** j for x, w in atoms) for j in range(1, 13)]
        nudged = list(ms)
        nudged[k - 1] += nudge
        for values in (ms, nudged):
            for shifted in (False, True):
                mats = _hankel_matrices([Fraction(1), *values], shifted)
                want = all(exact_psd_ldl(h) for h in mats)
                assert _exact_hankel_psd(values, shifted) is want

    @pytest.mark.parametrize("shifted", [False, True])
    def test_nudged_last_moment_decides_singular_hankel(self, two_point, shifted):
        # the Hankel matrices of two atoms have rank 2; the last moment, m_12
        # (unshifted, 7 x 7) or m_11 (shifted, 6 x 6), enters only the last
        # pivot, after zero pivots with zero rows
        last = 11 if shifted else 12
        ms = list(moments(two_point, last).moments)
        for nudge, want in ((0, True), (Fraction(1, 7), True), (Fraction(-1, 7), False)):
            values = list(ms)
            values[last - 1] += nudge
            assert _exact_hankel_psd(values, shifted) is want
            assert all(exact_psd_ldl(h) for h in _hankel_matrices([1, *values], shifted)) is want

    @given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_dilation_makes_every_coefficient_integral(self, values):
        c, ints = dilate(values)
        assert all(type(v) is int for v in ints)
        assert ints == [Fraction(c) ** k * s for k, s in enumerate(values, 1)]

    def test_dilation_follows_the_incremental_rule(self):
        # 1/2 sets c = 2; 1/8 at k = 2 needs c^2 divisible by 8, so c = 4;
        # 3/4 at k = 3 is already integral after c^3 = 64
        assert dilate([Fraction(1, 2), Fraction(1, 8), Fraction(3, 4)]) == (4, [2, 2, 48])
        assert dilate([Fraction(5), Fraction(-7)]) == (1, [5, -7])


class TestGridNodalMeasure:
    @given(
        st.integers(2, 300),
        st.randoms(use_true_random=True),
        st.booleans(),
        st.booleans(),
        st.integers(0, 299),
        st.integers(1, 12),
        st.floats(0.0, 2.0),
        st.floats(0.01, 10.0),
        st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0).filter(lambda z: z.imag > 0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_routines_match_the_trapezoid_oracles(
        self, n, rnd, first_zero, last_zero, zero, order, alpha, x, z
    ):
        # the sums over float_atoms against numpy's trapezoid rule over all
        # nodes, to 1e-12 of the sum of absolute terms, the mass tolerance;
        # n nodes drawn from rnd (so that shrinking stays cheap), the end
        # nodes with zero or positive density, and one node at 0: the first
        # node of the grid in M+, node `zero` of its shift
        xs = [0.0, *itertools.accumulate(rnd.uniform(0.01, 1.0) for _ in range(n - 1))]
        heights = [0.0 if rnd.random() < 0.25 else rnd.uniform(0.1, 10.0) for _ in range(n)]
        heights[0] = 0.0 if first_zero else rnd.uniform(0.1, 10.0)
        heights[-1] = 0.0 if last_zero else rnd.uniform(0.1, 10.0)
        assume(any(heights))
        zero %= n
        grid = normalized_grid(xs, heights)
        for mu in (grid, normalized_grid([v - xs[zero] for v in xs], heights)):
            want = grid_moments_trapezoid(mu, order)
            for k, m in enumerate(moments(mu, order), 1):
                scale = sum(w * abs(u) ** k for u, w in mu.float_atoms)
                assert abs(float(m) - want[k - 1]) <= 1e-12 * scale
        for point in (complex(-x), z):
            # K = point * num / den: 1e-12 of the sums of absolute terms in
            # num and den, carried through the quotient
            num = sum(w * u / (1 - point * u) for u, w in grid.float_atoms)
            den = sum(w / (1 - point * u) for u, w in grid.float_atoms)
            num_scale = sum(w * abs(u / (1 - point * u)) for u, w in grid.float_atoms)
            den_scale = sum(w * abs(1 / (1 - point * u)) for u, w in grid.float_atoms)
            scale = abs(point) * (num_scale + abs(num) * den_scale / abs(den)) / abs(den)
            assert abs(krein_k(grid, point) - grid_krein_trapezoid(grid, point)) <= 1e-12 * scale
        m_alpha, below_one = _fractional_sums(grid, alpha)
        pairs = [
            (m_alpha, grid_fractional_moment_trapezoid(grid, alpha)),
            (below_one, grid_moment_below_one_trapezoid(grid, alpha)),
            (_c_mu(grid), grid_c_mu_trapezoid(grid)),
        ]
        for got, want in pairs:  # sums of positive terms
            assert abs(got - want) <= 1e-12 * want


class TestPsi:
    def test_point_mass_closed_form(self):
        rng = np.random.default_rng(3)
        c = 1.7
        mu = Atomic([(Fraction(17, 10), 1)])
        for _ in range(20):
            z = complex(rng.normal(), abs(rng.normal()) + 0.1)
            expected = z * c / (1 - z * c)
            assert abs(psi(mu, z) - expected) < 1e-12 * abs(expected)

    def test_delta_one_at_minus_one(self, delta_one):
        assert abs(psi(delta_one, -1 + 0j) - (-0.5)) < 1e-15

    def test_bernoulli_negative_axis_closed_form(self, bernoulli):
        for x in (0.1, 0.5, 1.0, 3.0):
            expected = -x / (2.0 * (1.0 + x))
            assert abs(psi(bernoulli, complex(-x)) - expected) < 1e-14
            assert psi_exact(bernoulli, Fraction(-x).limit_denominator(10)) is not None

    def test_exact_matches_float(self, bernoulli):
        x = Fraction(-3, 7)
        assert abs(float(psi_exact(bernoulli, x)) - psi(bernoulli, complex(x)).real) < 1e-15

    def test_grid_psi_matches_atomic_refinement(self):
        # narrow bump around 1 approximates a point mass at 1
        xs = np.linspace(0.9, 1.1, 2001)
        fs = np.ones_like(xs)
        grid = normalized_grid(xs, fs)
        z = complex(-0.7, 0.0)
        expected = z * 1.0 / (1 - z * 1.0)
        assert abs(psi(grid, z) - expected) < 5e-3

    def test_grid_zero_node_at_pole(self):
        # the node x = -1 carries f = 0, so psi(-1) stays finite
        grid = DensityGrid([-1.0, 0.0, 1.0, 2.0], [0.0, 0.0, 1.0, 0.0])
        assert psi(grid, -1 + 0j) == -0.5

    # psi and krein_k share a domain; the oracle psi keeps the library's
    # gate and axis check, so each refusal and symmetry holds for both

    def test_conjugate_symmetry(self, bernoulli, two_point):
        rng = np.random.default_rng(11)
        for mu in (bernoulli, two_point):
            for _ in range(100):
                z = complex(rng.normal(scale=2.0), abs(rng.normal(scale=2.0)) + 1e-3)
                for transform in (psi, krein_k):
                    got = transform(mu, z.conjugate())
                    assert abs(got - transform(mu, z).conjugate()) < 1e-12

    def test_rejects_positive_axis(self, bernoulli):
        for transform in (psi, krein_k):
            for z in (0.5 + 0j, 0j, complex(1e-20, 1e-35)):
                with pytest.raises(DomainError, match="lies on"):
                    transform(bernoulli, z)

    def test_axis_test_is_relative_to_the_modulus(self, bernoulli):
        # far off the axis in angle, though Im z is below 1e-14
        z = 1e-20 * (1 + 1j)
        assert abs(psi(bernoulli, z) - 0.5 * z / (1 - z)) < 1e-35
        assert abs(krein_k(bernoulli, z) - z / (2 - z)) < 1e-35

    def test_rejects_unsupported_measures(self, rademacher, standard_semicircle):
        for transform in (psi, krein_k):
            with pytest.raises(DomainError, match=r"support in \[0, inf\)"):
                transform(rademacher, -1 + 0j)
            with pytest.raises(DomainError):
                transform(standard_semicircle, -1 + 0j)


class TestKrein:
    def test_point_mass_is_linear(self):
        mu = Atomic([(Fraction(5, 2), 1)])
        for z in (-0.3 + 0j, 0.2 + 0.7j, -2 + 0j):
            assert abs(krein_k(mu, z) - 2.5 * z) < 1e-12

    def test_delta_one_half_point(self, delta_one):
        assert abs(krein_k(delta_one, -0.5 + 0j) - (-0.5)) < 1e-15

    def test_bernoulli_value(self, bernoulli):
        assert krein_k_exact(bernoulli, Fraction(-1)) == Fraction(-1, 3)
        assert abs(krein_k(bernoulli, -1 + 0j) - (-1 / 3)) < 1e-14

    def test_negative_axis_profile(self, bernoulli, two_point, delta_one):
        # psi in (-1, 0], K <= psi <= 0, K strictly decreasing on a log grid
        for mu in (bernoulli, two_point, delta_one):
            xs = np.logspace(-3, 1, 40)
            psis = [psi(mu, complex(-x)).real for x in xs]
            values = [krein_k(mu, complex(-x)).real for x in xs]
            assert all(-1 < p <= 0 for p in psis)
            assert all(k <= p <= 0 for k, p in zip(values, psis))
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_vanishes_at_zero_minus(self, two_point):
        assert abs(krein_k(two_point, complex(-1e-12)).real) < 1e-11

    def test_no_pole_off_the_positive_axis(self, two_point, delta_one):
        # 1 + psi tends to 0 as |z| grows, where psi/(1 + psi) cancelled to a
        # pole; the sum E[1/(1 - z u)] has no zero off [0, inf)
        assert krein_k(delta_one, complex(-1e15)) == -1e15
        want = krein_k_exact(two_point, Fraction(-10 ** 15))
        assert abs(krein_k(two_point, complex(-1e15)).real - float(want)) <= 4e-16 * -want
        for z in (complex(1e14, 10.0), complex(-1e14, 1e-3), complex(1e8, 1e-5)):
            assert abs(krein_k(delta_one, z) - z) <= 4e-16 * abs(z)

    @given(
        st.lists(
            st.tuples(st.floats(1e-6, 1e6), st.integers(1, 8)),
            min_size=1, max_size=6, unique_by=lambda atom: atom[0],
        ),
        st.floats(1e-6, 1e12),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_on_atomic_measures(self, atoms, x):
        # binary64 atoms and dyadic weights, so that the float atoms are the
        # exact ones: the error is the kernel's alone
        total = 1 << sum(count for _, count in atoms).bit_length()
        counts = [count for _, count in atoms]
        counts[0] += total - sum(counts)
        mu = Atomic([(Fraction(u), Fraction(c, total)) for (u, _), c in zip(atoms, counts)])
        want = krein_k_exact(mu, -Fraction(x))
        got = krein_k(mu, complex(-x))
        assert got.imag == 0.0
        assert abs(Fraction(got.real) - want) <= 4 * 2.0 ** -52 * abs(want)

    @given(
        st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
        st.floats(-6.0, 14.0).map(lambda e: 10.0 ** e),
        st.floats(1e-6, math.pi - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_point_mass_is_linear_far_into_c_plus(self, c, modulus, angle):
        # K(delta_c, z) = c z to 4 * 2^-52 of |c z|, off the axis in C+:
        # three complex divisions and a product, against the exact c z
        z = modulus * complex(math.cos(angle), math.sin(angle))
        got = krein_k(Atomic([(Fraction(c), 1)]), z)
        want = (Fraction(c) * Fraction(z.real), Fraction(c) * Fraction(z.imag))
        error = abs(complex(Fraction(got.real) - want[0], Fraction(got.imag) - want[1]))
        assert error <= 4 * 2.0 ** -52 * abs(c * z)

    def test_overflow_is_a_one_line_domain_error(self):
        # every 1 - z u overflows, so E[1/(1 - z u)] underflows to 0 on the
        # negative axis; in C+ the terms are nan
        mu = Atomic([(10 ** 10, "1/2"), (10 ** 12, "1/2")])
        for z in (complex(-1e300), complex(-1e300, 1e300)):
            with pytest.raises(DomainError, match="outside the binary64 range") as info:
                krein_k(mu, z)
            assert "\n" not in str(info.value)


class TestJson:
    def test_atomic_round_trip(self, bernoulli):
        text = measure_to_json(bernoulli)
        back = measure_from_json(text)
        assert back == bernoulli

    def test_schema_example(self):
        mu = measure_from_json('{"kind":"atomic","atoms":[["0","1/2"],["1","1/2"]]}')
        assert weight_at(mu, 0) == Fraction(1, 2)

    def test_semicircle_round_trip(self, standard_semicircle):
        back = measure_from_json(measure_to_json(standard_semicircle))
        assert float(back.radius) == 2.0

    def test_semicircle_accepts_numbers_and_strings(self):
        text = '{"kind": "semicircle", "center": 0.5, "radius": "1/3"}'
        assert measure_from_json(text) == Semicircle(Fraction(1, 2), Fraction(1, 3))

    def test_grid_accepts_numbers_and_strings(self):
        # a "p/q" entry is read as a rational field is, then rounded once
        text = '{"kind": "grid", "x": ["0", "1/3", "2"], "f": [0, "1", 0]}'
        assert measure_from_json(text) == DensityGrid([0, 1 / 3, 2], [0, 1, 0])

    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=12),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        st.lists(st.integers(1, 9), min_size=5, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_atomic_round_trip_is_lossless(self, locs, raw):
        total = sum(raw[: len(locs)])
        mu = Atomic([(x, Fraction(w, total)) for x, w in zip(locs, raw)])
        assert measure_from_json(measure_to_json(mu)) == mu

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=1000),
        st.fractions(min_value=Fraction(1, 1000), max_value=10, max_denominator=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_semicircle_round_trip_is_lossless(self, center, radius):
        mu = Semicircle(center, radius)
        assert measure_from_json(measure_to_json(mu)) == mu

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
        st.lists(st.floats(0.1, 10.0), min_size=8, max_size=8),
        st.floats(-5.0, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_grid_round_trip_is_lossless(self, gaps, heights, start):
        x = start + np.cumsum(gaps)
        grid = normalized_grid(x, heights[: len(x)])
        back = measure_from_json(measure_to_json(grid))
        assert np.array_equal(back.x, grid.x) and np.array_equal(back.f, grid.f)

    def test_grid_round_trip(self):
        grid = normalized_grid([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        back = measure_from_json(measure_to_json(grid))
        assert np.allclose(back.x, grid.x)

    def test_bad_json_raises_parse_error(self):
        with pytest.raises(ParseError):
            measure_from_json("{not json")
        with pytest.raises(ParseError):
            measure_from_json('{"kind": "mystery"}')
        with pytest.raises(ParseError):
            measure_from_json('{"atoms": []}')
        for text in ("[" * 100000, '{"kind": ' * 100000):  # past the decoder's recursion limit
            with pytest.raises(ParseError):
                measure_from_json(text)

    def test_invalid_values_raise_domain_error(self):
        with pytest.raises(DomainError):
            measure_from_json('{"kind":"atomic","atoms":[["0","1/3"]]}')

    def test_as_fraction_rejects_garbage(self):
        with pytest.raises(ParseError):
            as_fraction("one half")
        with pytest.raises(ParseError):
            as_fraction(1e999)
        for value in (True, False):  # an int subclass, but JSON true is no rational
            with pytest.raises(ParseError):
                as_fraction(value)
        assert as_fraction(0.5) == Fraction(1, 2)
