import concurrent.futures
import itertools
import math
import re
import sys

import numpy as np
import pytest

from freeconv.errors import ConvergenceError, DomainError
from freeconv.measures import Atomic
from freeconv.word_engine import Word
from freeconv import matrix_lab
from freeconv.matrix_lab import (
    MatrixEnsembleSpec,
    estimate_word_traces,
    exact_word_moment,
    haar_orthogonal,
    ncLp_norm,
    sample_family,
    singular_values,
    verify_inequalities,
)
from oracles import (
    dense_goe,
    dense_word_trace,
    jacobi_eigenvalues,
    operator_norm,
    singular_values_by_gram,
    verify_inequalities_by_tuple,
)


def goe_spec(n=128, count=2, seed=0):
    return MatrixEnsembleSpec(dimension=n, count=count, kind="goe", seed=seed)


def bernoulli_spec(n=128, count=2, seed=0):
    mu = Atomic([(0, "1/2"), (1, "1/2")])
    return MatrixEnsembleSpec(
        dimension=n, count=count, kind="diagonal", seed=seed, measure=mu
    )


class TestSampling:
    def test_same_seed_is_bitwise_identical(self):
        spec = goe_spec(64, 3, seed=42)
        f1 = sample_family(spec)
        f2 = sample_family(spec)
        assert all((a == b).all() for a, b in zip(f1, f2))

    def test_goe_is_symmetric_with_unit_second_moment(self):
        spec = goe_spec(256, 1, seed=1)
        (x,) = sample_family(spec)
        assert np.allclose(x, x.T)
        m2 = np.trace(x @ x) / 256
        assert 0.85 <= m2 <= 1.15

    def test_goe_entry_variances(self):
        # member 2 is drawn in full; member 1 is tridiagonal
        spec = goe_spec(400, 2, seed=7)
        _, x = sample_family(spec)
        n = 400
        off = x[~np.eye(n, dtype=bool)]
        assert abs(off.var() * n - 1.0) < 0.15
        assert abs(np.diag(x).var() * n - 2.0) < 0.5

    def test_goe_member_one_is_tridiagonal(self):
        first, second = sample_family(goe_spec(64, 2, seed=8))
        assert np.array_equal(first, first.T)
        assert np.array_equal(first, np.triu(np.tril(first, 1), -1))
        assert (np.diag(first, 1) > 0).all()
        assert np.count_nonzero(np.triu(second, 2)) > 0

    def test_goe_tau_square_mean_is_exact(self):
        # E tau(T1^2) = ((N^2 - N) / N + N * 2 / N) / N = 1 + 1/N at every N
        n = 6
        est = estimate_word_traces(goe_spec(n, 1, seed=27), [Word((1, 1))], 4000)[0]
        assert abs(est.mean - (1 + 1 / n)) < 4 * est.standard_error

    def test_goe_family_matches_dense_draws(self):
        # two-sample z-test against families whose every member is drawn in full
        n, trials = 6, 20000
        words = [
            Word(letters)
            for letters in (
                (1, 1, 1, 1),
                (1, 2, 1, 2),
                (1, 2, 3, 1, 2, 3),
                (1, 1, 2, 2),
                (1, 1, 1, 2, 1, 2),
                (1, 2, 1, 3, 2, 3),
            )
        ]
        ests = estimate_word_traces(goe_spec(n, 3, seed=28), words, trials)
        family = dense_goe(n, np.random.default_rng(29), (3, trials))
        for word, est in zip(words, ests):
            prod = family[word.letters[0] - 1]
            for letter in word.letters[1:]:
                prod = prod @ family[letter - 1]
            ref = np.trace(prod, axis1=-2, axis2=-1) / n
            se = math.hypot(est.standard_error, ref.std(ddof=1) / math.sqrt(trials))
            assert abs(est.mean - ref.mean()) < 4 * se, word.as_text()

    def test_diagonal_measure_mean(self):
        spec = bernoulli_spec(256, 1, seed=3)
        (x,) = sample_family(spec)
        assert abs(np.trace(x) / 256 - 0.5) < 0.1

    def test_rotated_diagonal_keeps_spectrum(self):
        # member 1 stays diagonal; member 2 is the first rotated one
        spec = bernoulli_spec(64, 2, seed=9)
        _, x = sample_family(spec)
        eigs = np.sort(np.linalg.eigvalsh(x))
        assert np.allclose(np.round(eigs), eigs, atol=1e-9)  # eigenvalues in {0,1}

    def test_diagonal_family_rotates_all_but_member_one(self):
        spec = bernoulli_spec(64, 2, seed=10)
        first, second = sample_family(spec)
        assert np.array_equal(first, np.diag(np.diag(first)))
        assert set(np.diag(first)) == {0.0, 1.0}
        # orthogonally similar to a diagonal matrix of atoms, but not diagonal
        assert np.allclose(second, second.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(second)
        assert np.allclose(eigs, np.round(eigs), atol=1e-9)  # eigenvalues in {0,1}
        assert np.abs(second - np.diag(np.diag(second))).max() > 1e-2

    def test_haar_orthogonality(self):
        rng = np.random.default_rng(5)
        q = haar_orthogonal(40, rng)
        assert np.allclose(q @ q.T, np.eye(40), atol=1e-12)

    def test_wishart_is_psd(self):
        spec = MatrixEnsembleSpec(dimension=32, count=1, kind="wishart", seed=11)
        (x,) = sample_family(spec)
        assert np.linalg.eigvalsh(x).min() > -1e-12

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            MatrixEnsembleSpec(dimension=1, count=1, kind="goe", seed=0)
        with pytest.raises(DomainError):
            MatrixEnsembleSpec(dimension=4, count=1, kind="mystery", seed=0)
        with pytest.raises(DomainError):
            MatrixEnsembleSpec(dimension=4, count=1, kind="diagonal", seed=0)

    def test_memory_budget_guard(self):
        spec = MatrixEnsembleSpec(dimension=30000, count=4, kind="goe", seed=0)
        with pytest.raises(DomainError):
            sample_family(spec)


class TestWordTraces:
    @pytest.mark.parametrize("kind", ["goe", "diagonal"])
    def test_compact_traces_match_dense_products(self, kind):
        # member 1 kept compact and each word split into two halves, against
        # the dense product chain on the same family: every word up to
        # length 6 over 3 members, one-letter words and T1^k included
        mu = Atomic([(-1, "1/4"), (0, "1/4"), (2, "1/2")]) if kind == "diagonal" else None
        n = 12
        spec = MatrixEnsembleSpec(dimension=n, count=3, kind=kind, seed=30, measure=mu)
        rng = matrix_lab._trial_rng(spec, 0)
        compact = matrix_lab._draw(spec, rng, matrix_lab._upper_triangle(spec))
        assert isinstance(compact[0], matrix_lab.Band)
        dense = sample_family(spec)
        mismatched = [
            letters
            for length in range(1, 7)
            for letters in itertools.product((1, 2, 3), repeat=length)
            if not math.isclose(
                matrix_lab._word_trace(compact, letters, n),
                dense_word_trace(dense, letters),
                rel_tol=1e-12,
            )
        ]
        assert mismatched == []

    def test_centered_product_near_zero(self):
        spec = goe_spec(128, 2, seed=21)
        est = estimate_word_traces(spec, [Word((1, 2))], 60)[0]
        assert abs(est.mean) <= 3 * est.standard_error + 5.0 / 128

    def test_alternating_bernoulli_word(self):
        spec = bernoulli_spec(128, 2, seed=22)
        est = estimate_word_traces(spec, [Word((1, 2, 1, 2))], 80)[0]
        exact = exact_word_moment(spec, Word((1, 2, 1, 2)))
        assert exact == 3.0 / 16.0
        assert abs(est.mean - exact) <= 3 * est.standard_error + 5.0 / 128

    def test_goe_fourth_moment(self):
        spec = goe_spec(128, 1, seed=23)
        est = estimate_word_traces(spec, [Word((1, 1, 1, 1))], 80)[0]
        assert abs(est.mean - 2.0) <= 3 * est.standard_error + 5.0 / 128

    def test_multi_word_shares_trials(self):
        spec = goe_spec(64, 2, seed=24)
        words = [Word((1, 1)), Word((1, 2)), Word((2, 2))]
        ests = estimate_word_traces(spec, words, 30)
        single = estimate_word_traces(spec, [Word((1, 1))], 30)[0]
        # identical trial streams; only the reduction order may differ
        assert abs(ests[0].mean - single.mean) < 1e-14

    def test_repeated_call_is_bitwise_stable(self):
        spec = goe_spec(64, 2, seed=26)
        a = estimate_word_traces(spec, [Word((1, 2, 1, 2))], 12)[0]
        b = estimate_word_traces(spec, [Word((1, 2, 1, 2))], 12)[0]
        assert a.mean == b.mean and a.standard_error == b.standard_error

    def test_threaded_matches_serial(self):
        spec = goe_spec(48, 2, seed=25)
        words = [Word((1, 2, 1, 2))]
        serial = estimate_word_traces(spec, words, 16, max_workers=1)
        threaded = estimate_word_traces(spec, words, 16, max_workers=4)
        assert serial[0].mean == threaded[0].mean

    def test_many_threads_fill_every_row_of_the_table(self, monkeypatch):
        # eight blocks of trials on two or more cores, switching threads
        # often: a row left unwritten would keep np.empty's garbage and
        # move the means and standard errors off the serial ones
        monkeypatch.setattr(matrix_lab.os, "cpu_count", lambda: 8)
        spec, words = goe_spec(6, 2, seed=27), [Word((1, 1)), Word((1, 2, 1, 2)), Word((2,))]
        serial = estimate_word_traces(spec, words, 61)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = estimate_word_traces(spec, words, 61, max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_thread_pool_is_bounded(self, monkeypatch):
        # records the pool sizes asked for and runs the trials serially, so
        # the test starts no thread
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # estimate_word_traces imports the pool class only when it needs one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(matrix_lab.os, "cpu_count", lambda: 4)
        spec, words = goe_spec(8, 1, seed=28), [Word((1, 1))]
        serial = estimate_word_traces(spec, words, 6, max_workers=1)
        assert estimate_word_traces(spec, words, 6, max_workers=10 ** 9) == serial
        estimate_word_traces(spec, words, 3, max_workers=10 ** 9)
        estimate_word_traces(spec, words, 6, max_workers=3)
        assert sizes == [4, 3, 3]

    def test_word_beyond_family_rejected(self):
        with pytest.raises(DomainError):
            estimate_word_traces(goe_spec(32, 1), [Word((1, 2))], 10)

    def test_needs_two_trials(self):
        with pytest.raises(DomainError):
            estimate_word_traces(goe_spec(32, 1), [Word((1,))], 1)


class TestNorms:
    def test_jacobi_matches_numpy(self):
        rng = np.random.default_rng(31)
        for n in (2, 5, 16, 33):
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            got = jacobi_eigenvalues(a)
            assert np.allclose(got, np.linalg.eigvalsh(a), atol=1e-11)

    def test_jacobi_batch(self):
        rng = np.random.default_rng(32)
        stack = rng.standard_normal((7, 6, 6))
        stack = (stack + np.swapaxes(stack, 1, 2)) / 2
        got = jacobi_eigenvalues(stack)
        for i in range(7):
            assert np.allclose(got[i], np.linalg.eigvalsh(stack[i]), atol=1e-11)

    def test_jacobi_diagonal_input(self):
        assert np.allclose(jacobi_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_jacobi_sweep_limit(self):
        rng = np.random.default_rng(33)
        a = rng.standard_normal((8, 8))
        a = (a + a.T) / 2
        with pytest.raises(ConvergenceError):
            jacobi_eigenvalues(a, max_sweeps=1)

    def test_identity_norm_is_one(self):
        eye = np.eye(9)
        for p in (1.0, 2.0, 3.5, 7.0):
            assert abs(ncLp_norm(eye, p) - 1.0) < 1e-12

    def test_single_spike_l1(self):
        x = np.diag([3.0, 0.0, 0.0])
        assert abs(ncLp_norm(x, 1.0) - 1.0) < 1e-12

    def test_l2_equals_normalized_trace_square(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((24, 24))
        x = (x + x.T) / 2
        assert abs(ncLp_norm(x, 2.0) ** 2 - np.trace(x @ x) / 24) < 1e-10

    def test_singular_values_match_svd(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((10, 10))
        got = np.sort(singular_values(x))
        ref = np.sort(np.linalg.svd(x, compute_uv=False))
        assert np.allclose(got, ref, atol=1e-10)
        assert abs(operator_norm(x) - ref.max()) < 1e-10

    def test_singular_values_match_jacobi(self):
        rng = np.random.default_rng(36)
        stack = rng.standard_normal((12, 16, 16))
        gram = np.swapaxes(stack, 1, 2) @ stack
        ref = np.sqrt(np.clip(jacobi_eigenvalues(gram), 0.0, None))
        assert np.allclose(singular_values(stack), ref, rtol=0.0, atol=1e-10)

    def test_p_below_one_rejected(self):
        with pytest.raises(DomainError):
            ncLp_norm(np.eye(3), 0.5)


class TestInequalities:
    @staticmethod
    def _tuples(count, size, n, seed):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            mats = []
            for _ in range(size):
                g = rng.standard_normal((n, n))
                mats.append((g + g.T) / math.sqrt(2 * n))
            out.append(mats)
        return out

    def test_cauchy_schwarz_pairs(self):
        report = verify_inequalities(self._tuples(100, 2, 8, 41), (2.0, 2.0))
        assert report.passed
        assert report.checks >= 500

    def test_triple_sweep(self):
        report = verify_inequalities(self._tuples(150, 3, 8, 42), (3.0, 3.0, 3.0))
        assert report.passed
        assert report.families["holder-trace"] == 150
        assert report.families["chain-grouped"] == 150

    def test_trace_norm_does_not_depend_on_association(self):
        # square roots of eig(x^T x) put ||x0^2 x1 x2||_1 of tuple 23 1.3e-9
        # apart between the two orders, above the sweep's default slack
        x = np.array(self._tuples(150, 3, 8, 42))
        right = x[:, 0] @ (x[:, 0] @ x[:, 1] @ x[:, 2])
        left = (x[:, 0] @ (x[:, 0] @ x[:, 1])) @ x[:, 2]
        norms = [np.array([ncLp_norm(m, 1.0) for m in stack]) for stack in (right, left)]
        assert np.all(np.abs(norms[0] - norms[1]) <= 1e-12 * norms[1])
        by_gram = [singular_values_by_gram(stack).mean(axis=-1) for stack in (right, left)]
        assert np.abs(by_gram[0] - by_gram[1]).max() > 1e-9

    def test_minkowski_five_summands(self):
        report = verify_inequalities(
            self._tuples(60, 5, 6, 43), (5.0,) * 5, p_minkowski=4.0
        )
        assert report.passed
        assert report.families["minkowski"] == 60

    def test_exponent_validation(self):
        tuples = self._tuples(2, 2, 4, 44)
        with pytest.raises(DomainError):
            verify_inequalities(tuples, (2.0, 3.0))
        with pytest.raises(DomainError):
            verify_inequalities(tuples, (2.0,))
        with pytest.raises(DomainError):
            verify_inequalities([], (2.0, 2.0))

    def test_report_margin_is_negative_without_violations(self):
        report = verify_inequalities(self._tuples(20, 2, 6, 45), (2.0, 2.0))
        assert report.max_margin < 0

    SWEEP_CASES = [
        ((100, 2, 8, 41), (2.0, 2.0)),
        ((150, 3, 8, 42), (3.0, 3.0, 3.0)),
        ((60, 5, 6, 43), (5.0,) * 5),
        ((20, 2, 6, 45), (2.0, 2.0)),
    ]
    VIOLATION = re.compile(
        r"^([a-z-]+): tuple (\d+)( ax| xa)?: "
        r"(-?(?:inf|nan|\d+(?:\.\d+)?(?:e[+-]\d+)?)) > (-?(?:inf|nan|\d+(?:\.\d+)?(?:e[+-]\d+)?))$"
    )

    def _violating(self, report):
        return {self.VIOLATION.match(v).group(1, 2, 3) for v in report.violations}

    def test_agrees_with_per_tuple_sweep(self):
        goe = MatrixEnsembleSpec(dimension=24, count=3, kind="goe", seed=0)
        triples = [sample_family(goe, np.random.default_rng([0, t])) for t in range(40)]
        cases = [(self._tuples(*args), exps) for args, exps in self.SWEEP_CASES]
        for tuples, exps in cases + [(triples, (3.0, 3.0, 3.0))]:
            got = verify_inequalities(tuples, exps)
            want = verify_inequalities_by_tuple(tuples, exps)
            assert (got.checks, got.families, got.passed) == (
                want.checks, want.families, want.passed
            )
            assert abs(got.max_margin - want.max_margin) <= 1e-12
            got = verify_inequalities(tuples, exps, slack=-1.0)
            want = verify_inequalities_by_tuple(tuples, exps, slack=-1.0)
            assert got.violations and self._violating(got) == self._violating(want)

    def test_negative_slack_reports_every_check(self):
        # norms near 0.25 keep every right-hand side below 1, so with
        # slack -1 each inequality reads as violated
        tuples = [[0.1 * m for m in mats] for mats in self._tuples(30, 3, 6, 46)]
        report = verify_inequalities(tuples, (3.0, 3.0, 3.0), slack=-1.0)
        assert not report.passed
        assert len(report.violations) == report.checks == 30 * 7
        # family-major order, and within a family tuple order
        assert [v.split(":")[0] for v in report.violations] == [
            family for family, count in report.families.items() for _ in range(count)
        ]
        for text in report.violations:
            match = self.VIOLATION.match(text)
            assert match, text
            assert float(match.group(4)) > float(match.group(5)) - 1.0
