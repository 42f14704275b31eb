from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from freeconv import characterize
from freeconv.errors import DomainError
from freeconv.measures import Atomic, Semicircle, moments
from freeconv.transforms import free_from_moments, moments_from_free
from freeconv.characterize import (
    QuadraticFormSpec,
    _prefix_traces,
    alternating_form_patterns,
    form_moments,
    freeness_dichotomy,
    joint_moment,
    pattern_degree,
    preset_sample_mean_variance,
    validate_spec,
)
from oracles import (
    WordPoly,
    admissible_by_three_conditions,
    consistent_with_free,
    contract_blocks,
    dichotomy_deviations_by_expansion,
    joint_moment_by_einsum,
    joint_moment_by_words,
    letter_starts,
    nc_blocks,
    nc_moment_by_chains,
    nc_sum_by_enumeration,
)

F = Fraction
NONSYMMETRIC_SPEC = QuadraticFormSpec(
    [[1, F(2, 3), 0], [F(-1, 2), 3, F(1, 5)], [2, 0, F(-7, 4)]],
    [F(1, 2), F(-2, 3), F(5, 7)],
)
NONSYMMETRIC_MARGINAL = Atomic([(F(-1, 2), F(1, 3)), (1, F(1, 6)), (3, F(1, 2))])
# Transposing A traces the reversed pattern, so only a pattern that no
# rotation maps to its reversal, such as L^2 Q L Q^2, catches a transposed
# contraction.
SKEW_MARGINAL = Atomic([(-1, F(2, 3)), (2, F(1, 3))])
# A = 14 I - b b^T annihilates b = (1, 2, 3), since |b|^2 = 14
SKEW_SPEC = QuadraticFormSpec(
    [[14 * (j == k) - j * k for k in (1, 2, 3)] for j in (1, 2, 3)], [1, 2, 3]
)
EXTRA_PATTERNS = ["LLQL", "QQQ", "LLQLQQ"]

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def within_degree(word, limit=9):
    """The longest prefix of an L/Q word with degree at most ``limit``."""
    degree = 0
    for m, x in enumerate(word):
        degree += 1 if x == "L" else 2
        if degree > limit:
            return word[:m]
    return word


@st.composite
def forms_marginals_words(draw):
    """A random rational form (A, b) on 2-4 variables, a marginal (atomic
    on up to 3 atoms, or a semicircle, whose cumulants vanish past
    kappa_2) and a nonempty L/Q word of degree at most 9."""
    n = draw(st.integers(2, 4))
    a = draw(st.lists(st.lists(coefficients, min_size=n, max_size=n), min_size=n, max_size=n))
    b = draw(st.lists(coefficients, min_size=n, max_size=n))
    word = draw(st.lists(st.sampled_from("LQ"), min_size=1, max_size=9).map(within_degree))
    if draw(st.integers(0, 3)) == 0:
        return QuadraticFormSpec(a, b), Semicircle(draw(coefficients), draw(st.integers(1, 3))), word
    locations = draw(st.lists(coefficients, min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(locations), max_size=len(locations)))
    marginal = Atomic([(x, F(w, sum(weights))) for x, w in zip(locations, weights)])
    return QuadraticFormSpec(a, b), marginal, word


def rref_nullspace(rows, width):
    """A basis of the rational null space of ``rows``, by Gauss-Jordan
    elimination."""
    rows = [[F(v) for v in row] for row in rows]
    pivots = []
    for col in range(width):
        at = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if at is None:
            continue
        top = len(pivots)
        rows[top], rows[at] = rows[at], rows[top]
        rows[top] = [v / rows[top][col] for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                rows[r] = [v - rows[r][col] * p for v, p in zip(rows[r], rows[top])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [F(0)] * width
        vec[free] = F(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free]
        basis.append(vec)
    return basis


@st.composite
def annihilating_forms(draw):
    """A random symmetric form with A b = 0 on 2-4 variables, integer b in
    [-3, 3].  Its diagonal is free, 0 wherever b_j != 0 (every b_j a_jj
    is 0), or 0 throughout, each a third of the time."""
    n = draw(st.integers(2, 4))
    b = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
    zero_diagonal = draw(st.sampled_from(["none", "where b != 0", "all"]))
    cells = [(j, k) for j in range(n) for k in range(j, n)]
    # (A b)_i = 0 in the entries a_jk = a_kj, j <= k, then each zeroed a_jj
    rows = [
        [(b[k] if j == i else 0) + (b[j] if k == i != j else 0) for j, k in cells]
        for i in range(n)
    ]
    for i in range(n):
        if zero_diagonal == "all" or (zero_diagonal == "where b != 0" and b[i]):
            rows.append([int(cell == (i, i)) for cell in cells])
    entries = [F(0)] * len(cells)
    for vec in rref_nullspace(rows, len(cells)):
        c = draw(st.integers(-3, 3))
        entries = [e + c * v for e, v in zip(entries, vec)]
    a = [[F(0)] * n for _ in range(n)]
    for (j, k), v in zip(cells, entries):
        a[j][k] = a[k][j] = v
    return QuadraticFormSpec(a, b)


@pytest.fixture
def semicircle_marginal():
    return moments(Semicircle(0, 2), 8)


@pytest.fixture
def rademacher_marginal(rademacher):
    return moments(rademacher, 8)


class TestValidation:
    def test_preset_n2_coefficients(self):
        spec = preset_sample_mean_variance(2)
        q = Fraction(1, 4)
        assert spec.a == ((q, -q), (-q, q))
        assert spec.b == (Fraction(1, 2), Fraction(1, 2))

    def test_preset_n3_coefficients(self):
        spec = preset_sample_mean_variance(3)
        assert spec.b == (Fraction(1, 3),) * 3
        assert spec.a[0][0] == Fraction(2, 9)
        assert spec.a[0][1] == Fraction(-1, 9)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_preset_passes_validation(self, n):
        report = validate_spec(preset_sample_mean_variance(n))
        assert report.passed
        assert report.annihilates_b
        assert report.power_sums_nonzero

    def test_identity_matrix_fails_annihilation(self):
        spec = QuadraticFormSpec([[1, 0], [0, 1]], [1, 1])
        report = validate_spec(spec)
        assert not report.passed
        assert not report.annihilates_b
        assert any("mean-annihilation" in f for f in report.failures)

    def test_no_diagonal_coupling_fails_at_the_first_power_sum(self):
        # A b = 0 and every b_j a_jj = 0, so s_1 = sum_j b_j a_jj = 0
        spec = QuadraticFormSpec([[0, 0, 1], [0, 0, 1], [1, 1, 5]], [1, -1, 0])
        report = validate_spec(spec)
        assert report.symmetric and report.annihilates_b
        assert report.failures == (
            "diagonal power-sum condition sum b_j^m a_jj != 0 fails at m = 1",
        )

    @given(annihilating_forms())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_rule_with_the_coupling_condition(self, spec):
        # the same forms are refused, none for the coupling condition itself
        report = validate_spec(spec)
        assert report.passed == admissible_by_three_conditions(spec)
        assert not any("coupling" in failure for failure in report.failures)

    def test_asymmetric_matrix_detected(self):
        spec = QuadraticFormSpec([[1, 2], [3, 1]], [1, 1])
        assert not validate_spec(spec).symmetric

    def test_cancelling_power_sum_detected(self):
        # b = (1, -1), equal diagonal: sum b_j^m a_jj = 0 for odd m
        spec = QuadraticFormSpec(
            [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]],
            [1, -1],
        )
        report = validate_spec(spec)
        assert not report.power_sums_nonzero
        assert report.failures[-1].endswith("fails at m = 1")

    def test_power_sum_vanishing_past_n_detected(self):
        # A b = 0 for b = (1, -1, 2); s_m = -16, -12, -10, 0, 14, ... so the
        # first n power sums are nonzero but the fourth vanishes
        spec = QuadraticFormSpec(
            [[-17, -10, F(7, 2)], [-10, 1, F(11, 2)], [F(7, 2), F(11, 2), 1]], [1, -1, 2]
        )
        diag = [spec.a[j][j] for j in range(3)]
        assert [sum(v ** m * c for v, c in zip(spec.b, diag)) for m in range(1, 6)] == [
            -16, -12, -10, 0, 14
        ]
        report = validate_spec(spec)
        assert report.symmetric and report.annihilates_b
        assert not report.power_sums_nonzero
        assert report.failures == (
            "diagonal power-sum condition sum b_j^m a_jj != 0 fails at m = 4",
        )

    @given(st.lists(st.tuples(coefficients, coefficients), min_size=2, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_power_sum_condition_matches_direct_evaluation(self, pairs):
        b = [v for v, _ in pairs]
        a = [[c if j == k else 0 for k, (_, c) in enumerate(pairs)] for j in range(len(pairs))]
        first_zero = next(
            (m for m in range(1, 81) if sum(v ** m * c for v, c in pairs) == 0), None
        )
        report = validate_spec(QuadraticFormSpec(a, b))
        assert report.power_sums_nonzero == (first_zero is None)
        if first_zero is not None:
            assert any(f.endswith(f"fails at m = {first_zero}") for f in report.failures)

    def test_undecidable_power_sum_condition_is_a_domain_error(self):
        # s_m = 10^6 - (1 + 10^-6)^m at odd m: the larger base overtakes
        # only near m = 1.4 * 10^7
        spec = QuadraticFormSpec([[10 ** 6, 0], [0, -1]], [1, F(1000001, 1000000)])
        with pytest.raises(DomainError, match="cannot decide the diagonal power-sum condition"):
            validate_spec(spec)

    def test_needs_two_variables(self):
        with pytest.raises(DomainError):
            QuadraticFormSpec([[1]], [1])


class TestJointMoments:
    def test_centered_linear_form_vanishes(self, semicircle_marginal):
        spec = preset_sample_mean_variance(2)
        assert joint_moment(spec, semicircle_marginal, "L") == 0

    def test_variance_mean_value(self, rademacher_marginal):
        # tau(V) = (1 - 1/n) m_2 for the preset
        for n in (2, 3):
            spec = preset_sample_mean_variance(n)
            got = joint_moment(spec, rademacher_marginal, "Q")
            assert got == (1 - Fraction(1, n)) * rademacher_marginal.m(2)

    def test_mean_square_value(self, rademacher_marginal):
        # tau(L^2) = m_2 / n for the preset
        for n in (2, 3):
            spec = preset_sample_mean_variance(n)
            got = joint_moment(spec, rademacher_marginal, "LL")
            assert got == rademacher_marginal.m(2) / n

    def test_ql_matches_word_polynomial_expansion(self, rademacher_marginal):
        # independent route: expand Q*L as a noncommutative polynomial and
        # trace it term by term
        spec = preset_sample_mean_variance(2)
        marginal = rademacher_marginal
        n = spec.n
        L = WordPoly()
        for j in range(n):
            L = L + WordPoly.letter(j + 1, spec.b[j])
        Q = WordPoly()
        for j in range(n):
            for k in range(n):
                Q = Q + (WordPoly.letter(j + 1, spec.a[j][k]) * WordPoly.letter(k + 1))

        kappa, memo = free_from_moments(marginal), {}

        def tau(word):
            return nc_moment_by_chains([kappa] * n, [l - 1 for l in word], memo)

        for pattern, poly in [
            ("QL", Q * L),
            ("QLL", Q * L * L),
            ("LQQ", L * Q * Q),
        ]:
            assert joint_moment(spec, marginal, pattern) == poly.trace(tau)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("marginal", ["rademacher", "semicircle", "three-atom"])
    def test_matches_word_expansion(self, marginal, n, rademacher):
        mu = {
            "rademacher": rademacher,
            "semicircle": Semicircle(0, 2),
            "three-atom": Atomic([(-2, Fraction(1, 4)), (0, Fraction(1, 2)), (2, Fraction(1, 4))]),
        }[marginal]
        spec = preset_sample_mean_variance(n)
        m = moments(mu, 8)
        for pattern in alternating_form_patterns(8):
            assert joint_moment(spec, m, pattern) == joint_moment_by_words(spec, m, pattern)

    def test_nonsymmetric_form_matches_word_expansion(self):
        # A != A^T and distinct b_j.  Transposing A traces the reversed
        # pattern, so only a pattern that no rotation maps to its reversal,
        # such as L^2 Q L Q^2, catches a transposed contraction.
        m = moments(NONSYMMETRIC_MARGINAL, 9)
        for pattern in alternating_form_patterns(7) + EXTRA_PATTERNS:
            assert joint_moment(NONSYMMETRIC_SPEC, m, pattern) == joint_moment_by_words(
                NONSYMMETRIC_SPEC, m, pattern
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("marginal", ["rademacher", "semicircle", "uncentered"])
    def test_matches_einsum_contraction(self, marginal, n, rademacher):
        mu = {
            "rademacher": rademacher,
            "semicircle": Semicircle(0, 2),
            "uncentered": Atomic([(-1, F(1, 4)), (F(1, 2), F(1, 2)), (3, F(1, 4))]),
        }[marginal]
        spec = preset_sample_mean_variance(n)
        m = moments(mu, 9)
        for pattern in alternating_form_patterns(8) + EXTRA_PATTERNS:
            assert joint_moment(spec, m, pattern) == joint_moment_by_einsum(spec, m, pattern)

    def test_nonsymmetric_form_matches_einsum_contraction(self):
        m = moments(NONSYMMETRIC_MARGINAL, 9)
        for pattern in alternating_form_patterns(8) + EXTRA_PATTERNS:
            assert joint_moment(NONSYMMETRIC_SPEC, m, pattern) == joint_moment_by_einsum(
                NONSYMMETRIC_SPEC, m, pattern
            )

    def test_elimination_never_meets_degree_above_two(self):
        # every L/Q word to degree 8 and every NC partition of its positions;
        # the oracle's contract_blocks raises on a block of degree > 2
        b, a = [2, -3], [[1, 5], [-2, 7]]
        words = [
            word
            for length in range(1, 9)
            for word in product("LQ", repeat=length)
            if sum(1 if x == "L" else 2 for x in word) <= 8
        ]
        visited = 0
        for word in words:
            factors = letter_starts(word)
            degree = sum(1 if x == "L" else 2 for x in word)
            for blocks in nc_blocks(tuple(range(degree))):
                contract_blocks(blocks, factors, b, a)
                visited += 1
        # sum over degrees d <= 8 of Fib(d + 1) words times Catalan(d) partitions
        assert len(words) == 87 and visited == 59771

    def test_elimination_guard_rejects_a_crossing_partition(self):
        # Q^6 on four crossing blocks, each pair joined by one Q: the block
        # graph is K4, every vertex of degree 3
        blocks = [(0, 2, 4), (1, 6, 8), (3, 7, 10), (5, 9, 11)]
        with pytest.raises(RuntimeError, match="degree 3"):
            contract_blocks(blocks, letter_starts("QQQQQQ"), [1, 1], [[1, 2], [3, 4]])

    def test_twelve_variables_match_einsum_contraction(self, rademacher):
        # the oracle sums 12^|pi| index assignments per partition, so the
        # patterns stop at degree 6
        spec = preset_sample_mean_variance(12)
        m = moments(rademacher, 6)
        for pattern in alternating_form_patterns(6):
            assert joint_moment(spec, m, pattern) == joint_moment_by_einsum(spec, m, pattern)

    def test_degree_guard(self, rademacher):
        spec = preset_sample_mean_variance(2)
        with pytest.raises(DomainError):
            joint_moment(spec, moments(rademacher, 2), "QQ")

    @pytest.mark.parametrize(
        "pattern", [(("L", 1), ("Q", 1)), ["L", "Q"], "", "LXQ", "LQ\nX", None]
    )
    def test_malformed_pattern_is_a_one_line_domain_error(self, rademacher, pattern):
        # only a nonempty string of L and Q is a pattern; the (letter,
        # exponent) pairs of older callers included
        spec = preset_sample_mean_variance(2)
        with pytest.raises(DomainError) as err:
            joint_moment(spec, moments(rademacher, 8), pattern)
        assert "\n" not in str(err.value)

    def test_form_moments_order(self, semicircle_marginal):
        spec = preset_sample_mean_variance(2)
        lm = form_moments(spec, semicircle_marginal, "L", 3)
        assert lm.order == 3
        assert lm.m(1) == 0


class TestIntervalTables:
    @given(forms_marginals_words(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration(self, case, lone_q):
        # every prefix of the word, from one set of tables, against the
        # partition-by-partition sum
        spec, marginal, word = case
        kappa = free_from_moments(moments(marginal, 9))
        assert _prefix_traces(spec, kappa, word, lone_q) == [
            nc_sum_by_enumeration(spec, kappa, word[:m], lone_q) for m in range(1, len(word) + 1)
        ]


class TestPatternEnumeration:
    def test_patterns_up_to_degree_eight(self):
        pats = alternating_form_patterns(8)
        assert pats == ["LQ", "QL", "LQL", "QLQ", "LQLQ", "QLQL", "LQLQL", "QLQLQ"]
        assert [pattern_degree(p) for p in pats] == [3, 3, 4, 5, 6, 6, 7, 8]

    def test_no_patterns_below_three(self):
        assert alternating_form_patterns(2) == []


class TestDichotomy:
    def test_semicircle_consistent_n2(self, semicircle_marginal):
        report = freeness_dichotomy(preset_sample_mean_variance(2), semicircle_marginal, 8)
        assert consistent_with_free(report)
        assert report.max_abs_deviation == 0

    def test_semicircle_consistent_n3(self, semicircle_marginal):
        report = freeness_dichotomy(preset_sample_mean_variance(3), semicircle_marginal, 8)
        assert consistent_with_free(report)

    def test_rademacher_detected_n2(self, rademacher_marginal):
        report = freeness_dichotomy(preset_sample_mean_variance(2), rademacher_marginal, 6)
        assert report.verdict == "not-free-at-order-4"
        pattern, dev = report.first_nonzero()
        # frozen: tau(L_c Q_c L_c) = tau(L^2 Q) - q0 tau(L^2) = 1/8 - 1/4
        assert dev == Fraction(-1, 8)
        assert pattern == "LQL" and pattern_degree(pattern) == 4

    def test_rademacher_detected_n3(self, rademacher_marginal):
        report = freeness_dichotomy(preset_sample_mean_variance(3), rademacher_marginal, 6)
        pattern, dev = report.first_nonzero()
        assert dev == Fraction(-2, 27)

    def test_first_mixed_centered_moment_always_zero(self, rademacher_marginal):
        report = freeness_dichotomy(preset_sample_mean_variance(2), rademacher_marginal, 3)
        assert all(dev == 0 for _, dev in report.deviations)

    def test_verdict_invariant_under_coefficient_scaling(self, rademacher_marginal):
        base = preset_sample_mean_variance(2)
        for lam, lam_prime in ((Fraction(1, 2), Fraction(3)), (Fraction(3), Fraction(1, 2))):
            scaled = QuadraticFormSpec(
                [[lam_prime * v for v in row] for row in base.a],
                [lam * v for v in base.b],
            )
            report = freeness_dichotomy(scaled, rademacher_marginal, 6)
            assert report.verdict == "not-free-at-order-4"

    def test_semicircle_scaling_stays_consistent(self, semicircle_marginal):
        base = preset_sample_mean_variance(2)
        scaled = QuadraticFormSpec(
            [[3 * v for v in row] for row in base.a],
            [Fraction(1, 2) * v for v in base.b],
        )
        report = freeness_dichotomy(scaled, semicircle_marginal, 6)
        assert consistent_with_free(report)

    def test_refuses_invalid_spec(self, semicircle_marginal):
        bad = QuadraticFormSpec([[1, 0], [0, 1]], [1, 1])
        with pytest.raises(DomainError):
            freeness_dichotomy(bad, semicircle_marginal, 4)

    def test_refuses_uncentered_marginal(self, bernoulli):
        with pytest.raises(DomainError):
            freeness_dichotomy(preset_sample_mean_variance(2), moments(bernoulli, 6), 6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("marginal", ["rademacher", "semicircle", "three-atom"])
    def test_matches_subset_expansion(self, marginal, n, rademacher):
        # the oracle expands each centered pattern into its uncentered
        # sub-patterns and subtracts the free-pair prediction
        mu = {
            "rademacher": rademacher,
            "semicircle": Semicircle(0, 2),
            "three-atom": Atomic([(-2, Fraction(1, 4)), (0, Fraction(1, 2)), (2, Fraction(1, 4))]),
        }[marginal]
        spec = preset_sample_mean_variance(n)
        m = moments(mu, 8)
        report = freeness_dichotomy(spec, m, 8)
        assert report.deviations == dichotomy_deviations_by_expansion(spec, m, 8)

    def test_skew_marginal_matches_subset_expansion(self):
        # kappa_3 != 0, distinct b_j and tau(Q) != 0
        m = moments(SKEW_MARGINAL, 10)
        report = freeness_dichotomy(SKEW_SPEC, m, 10)
        assert report.deviations == dichotomy_deviations_by_expansion(SKEW_SPEC, m, 10)
        assert report.verdict == "not-free-at-order-3"

    def test_skew_marginal_matches_enumeration_at_degree_twelve(self):
        m = moments(SKEW_MARGINAL, 12)
        kappa = free_from_moments(m)
        report = freeness_dichotomy(SKEW_SPEC, m, 12)
        assert report.deviations == tuple(
            (p, nc_sum_by_enumeration(SKEW_SPEC, kappa, p, True))
            for p in alternating_form_patterns(12)
        )

    def test_two_table_builds_per_dichotomy(self, rademacher, monkeypatch):
        # one per first letter: every pattern is a prefix of the longest
        # one with its first letter
        calls = 0
        prefix_traces = characterize._prefix_traces

        def counted(*args):
            nonlocal calls
            calls += 1
            return prefix_traces(*args)

        monkeypatch.setattr(characterize, "_prefix_traces", counted)
        report = freeness_dichotomy(preset_sample_mean_variance(3), moments(rademacher, 10), 10)
        assert len(report.deviations) == 11
        assert calls == 2

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r", [4, 6, 8])
    def test_first_witness_at_first_higher_cumulant(self, r, n):
        # kappa_2 = 1 and kappa_r the only other nonzero cumulant: the
        # first nonzero deviation sits at degree r
        kappa = [0, 1] + [0] * (r - 3) + [1] + [0, 0]
        m = moments_from_free(kappa)
        report = freeness_dichotomy(preset_sample_mean_variance(n), m, r + 2)
        assert report.verdict == f"not-free-at-order-{r}"
