"""Random-matrix realization of free families and L^p inequality checks.

Matrix models approximate freeness only asymptotically in the dimension,
so every comparison against exact word moments carries both a statistical
tolerance (standard errors over independent trials) and an explicit
finite-dimension allowance of order 1/N.

Member 1 of a GOE or diagonal family is drawn in its canonical form:
a diagonal family D_1, Q_2 D_2 Q_2^T, ..., Q_k D_k Q_k^T leaves D_1
unrotated, and a GOE family starts with the symmetric tridiagonal T_1
that Householder reduction gives (Dumitriu & Edelman, J. Math. Phys. 43,
2002): diagonal N(0, 2/N), k-th off-diagonal sqrt(chi^2_{N-k} / N).
Both are exact in law.  Write member 1 as O A_1 O^T with O orthogonal
and depending on A_1 alone (Haar for a rotated diagonal matrix, the
Householder reflections for GOE).  Conjugating the whole family by O^T
maps member 1 to its canonical form and each later member A_j to
O^T A_j O, which is again Haar-rotated, or GOE, and independent of
everything else.  Word traces, singular values and L^p norms are all
invariant under a common orthogonal conjugation, so every functional
computed here has the same distribution either way.  A one-letter word
then needs no QR factorization, and GOE member 1 takes 2N - 1 random
variates instead of N^2.  A dense GOE member takes N(N+1)/2: its
upper triangle, mirrored.

The Monte Carlo word traces keep member 1 compact, as its diagonal and
superdiagonal: applying it to a dense member is an O(N^2) band
operation and closing a trace on it an O(N) band contraction.  A word
is evaluated as tau(XY) = <X, Y^T> / N over its two halves X and Y, and
a half that repeats is computed once, so tau((T1 T2)^2) costs one band
product and no dense one.  ``sample_family`` returns the same draws
with member 1 made dense.

The noncommutative L^p norm is ||x||_p = tau(|x|^p)^(1/p) with
|x| = (x^T x)^(1/2) and tau the normalized trace.  Singular values come
from LAPACK's SVD, which holds even a small one to about eps * ||x||;
square roots of the eigenvalues of x^T x hold it only to
sqrt(eps) * ||x||.  The inequality sweep processes thousands of small
instances, so it takes them in one batched call per family of matrices,
over the tuple axis.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .measures import Atomic, Measure, Semicircle, Value, as_float, moments
from .word_engine import Word, mixed_moment

__all__ = [
    "MatrixEnsembleSpec",
    "TraceEstimate",
    "haar_orthogonal",
    "sample_family",
    "estimate_word_traces",
    "singular_values",
    "ncLp_norm",
    "InequalityReport",
    "verify_inequalities",
    "exact_word_moment",
]

MEMORY_BUDGET_BYTES = 1 << 30
ENSEMBLE_KINDS = ("goe", "diagonal", "wishart")


class MatrixEnsembleSpec(Value):
    """Reproducible description of a family of independent random matrices.

    ``kind`` selects standardized GOE (symmetric, off-diagonal variance
    1/N, diagonal 2/N, spectral law approaching the radius-2 semicircle),
    diagonal matrices with i.i.d. entries drawn from an atomic measure, or
    a Wishart-style Gram matrix.  Member 1 of a GOE or diagonal family
    takes its canonical form: the symmetric tridiagonal (Householder)
    form of a GOE matrix, or the unrotated diagonal matrix, and word
    traces keep it in that compact form.  Members 2..k are dense GOE
    draws, from the N(N+1)/2 entries on and above the diagonal, or
    diagonal matrices conjugated by their own Haar orthogonal matrix.
    Conjugating the whole family by the orthogonal matrix that puts
    member 1 in canonical form leaves word traces, singular values and
    norms unchanged and the later members' law intact, so this has the
    law of drawing every member in full.  The seed determines the full
    sample stream.
    """

    dimension: int
    count: int
    kind: str
    seed: int
    measure: Optional[Measure]

    def __init__(
        self, dimension: int, count: int, kind: str, seed: int, measure: Optional[Measure] = None
    ):
        if dimension < 2:
            raise DomainError("dimension must be >= 2")
        if count < 1:
            raise DomainError("count must be >= 1")
        if kind not in ENSEMBLE_KINDS:
            raise DomainError(f"kind must be one of {ENSEMBLE_KINDS}")
        if not 0 <= seed < 2 ** 64:
            raise DomainError("seed must fit in 64 bits")
        if kind == "diagonal" and not isinstance(measure, Atomic):
            raise DomainError("diagonal ensembles need an atomic measure")
        vars(self).update(dimension=dimension, count=count, kind=kind, seed=seed, measure=measure)


class TraceEstimate(namedtuple("TraceEstimate", "expression mean standard_error trials")):
    """Monte Carlo estimate of a normalized trace with its standard error."""

    __slots__ = ()


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign-fixed diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


class Band(namedtuple("Band", "diag off")):
    """Member 1 in canonical form: a symmetric matrix with main diagonal
    ``diag`` and super- (= sub-) diagonal ``off``, None for a diagonal
    matrix."""

    __slots__ = ()


def _dense(member) -> np.ndarray:
    if not isinstance(member, Band):
        return member
    t = np.diag(member.diag)
    if member.off is not None:
        i = np.arange(len(member.off))
        t[i, i + 1] = t[i + 1, i] = member.off
    return t


def _upper_triangle(spec: MatrixEnsembleSpec) -> Optional[np.ndarray]:
    """For each entry of a dense GOE member, the index of its draw among
    the N(N+1)/2 upper-triangle entries, mirrored below the diagonal; None
    when the family has no dense GOE member."""
    if spec.kind != "goe" or spec.count < 2:
        return None
    n = spec.dimension
    i, j = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[i, j] = index[j, i] = np.arange(len(i))
    return index


def _sample_one(
    spec: MatrixEnsembleSpec, rng: np.random.Generator, rotate: bool, upper: Optional[np.ndarray]
):
    n = spec.dimension
    if spec.kind == "goe":
        if not rotate:
            # the Householder tridiagonal form (see the module docstring)
            diag = rng.standard_normal(n) * math.sqrt(2.0 / n)
            return Band(diag, np.sqrt(rng.chisquare(np.arange(n - 1, 0, -1)) / n))
        entries = rng.standard_normal(n * (n + 1) // 2) / math.sqrt(n)
        entries[np.diagonal(upper)] *= math.sqrt(2.0)  # diagonal variance 2/N
        return entries[upper]
    if spec.kind == "diagonal":
        locs, weights = np.array(spec.measure.float_atoms).T
        diag = rng.choice(locs, size=n, p=weights / weights.sum())
        if not rotate:
            return Band(diag, None)
        q = haar_orthogonal(n, rng)
        return (q * diag) @ q.T
    if spec.kind == "wishart":
        g = rng.standard_normal((n, n))
        return g @ g.T / n
    raise DomainError(f"unsupported ensemble kind {spec.kind!r}")


def _draw(spec: MatrixEnsembleSpec, rng: np.random.Generator, upper: Optional[np.ndarray]) -> list:
    """One family, member 1 as a Band where the ensemble has a canonical form."""
    return [_sample_one(spec, rng, member > 0, upper) for member in range(spec.count)]


def _check_budget(spec: MatrixEnsembleSpec, traces: int = 0) -> None:
    """The family's dense matrices and ``traces`` more floats must fit the budget."""
    needed = (spec.dimension ** 2 * spec.count + traces) * 8
    if needed > MEMORY_BUDGET_BYTES:
        raise DomainError(
            f"family and trace table need {needed} bytes, over the {MEMORY_BUDGET_BYTES} budget"
        )


def sample_family(
    spec: MatrixEnsembleSpec, rng: Optional[np.random.Generator] = None
) -> list[np.ndarray]:
    """Draw the independent matrices described by ``spec``, all dense.

    With no generator supplied the family is the trial-0 stream of the
    spec's seed, so repeated calls are bitwise identical.
    """
    _check_budget(spec)
    if rng is None:
        rng = _trial_rng(spec, 0)
    return [_dense(member) for member in _draw(spec, rng, _upper_triangle(spec))]


def _trial_rng(spec: MatrixEnsembleSpec, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(trial,)))


def _band_times(band: Band, a: np.ndarray) -> np.ndarray:
    """band @ a for a dense a, in O(N^2)."""
    out = band.diag[:, None] * a
    if band.off is not None:
        off = band.off[:, None]
        out[:-1] += off * a[1:]
        out[1:] += off * a[:-1]
    return out


def _product(family: Sequence, letters: Sequence[int]):
    """The ordered product of the named members: a Band when it is one
    Band member, else dense; a Band factor costs O(N^2)."""
    out = family[letters[0] - 1]
    for letter in letters[1:]:
        m = family[letter - 1]
        if isinstance(m, Band):  # out @ m = (m @ out^T)^T, m being symmetric
            out = _band_times(m, _dense(out).T).T
        elif isinstance(out, Band):
            out = _band_times(out, m)
        else:
            out = out @ m
    return out


def _pair_trace(x, y) -> float:
    """N tau(x y) = <x, y^T>, in O(N) when either factor is a Band."""
    if isinstance(x, Band) and isinstance(y, Band):  # member 1 twice
        return float(x.diag @ y.diag + (0.0 if x.off is None else 2.0 * (x.off @ y.off)))
    if isinstance(x, Band):
        x, y = y, x
    if isinstance(y, Band):
        total = y.diag @ np.diagonal(x)
        if y.off is not None:
            total += y.off @ (np.diagonal(x, 1) + np.diagonal(x, -1))
        return float(total)
    return float(np.vdot(x, y.T))


def _word_trace(family: Sequence, letters: Sequence[int], n: int) -> float:
    """tau of the word, as <X, Y^T> / N over its two halves X and Y; a
    half that repeats is computed once."""
    if len(letters) == 1:
        m = family[letters[0] - 1]
        return float(m.diag.sum() if isinstance(m, Band) else np.trace(m)) / n
    half = len(letters) // 2
    x = _product(family, letters[:half])
    y = x if letters[half:] == letters[:half] else _product(family, letters[half:])
    return _pair_trace(x, y) / n


def estimate_word_traces(
    spec: MatrixEnsembleSpec,
    words: Sequence[Word],
    trials: int,
    max_workers: int = 1,
) -> list[TraceEstimate]:
    """Estimate several words over the same trial stream.

    Each trial samples one family (its own generator derived from
    (seed, trial), so results are independent of scheduling) and
    evaluates every word on it; estimates for different words are
    therefore correlated but individually unbiased.  At most
    min(max_workers, trials, os.cpu_count()) threads run contiguous blocks
    of trials into one (trials, words) table, within the memory budget.
    A trace beyond the binary64 range raises DomainError, for the first
    trial that has one.
    """
    if trials < 2:
        raise DomainError("need at least 2 trials for a standard error")
    _check_budget(spec, trials * len(words))
    for word in words:
        if max(word.letters) > spec.count:
            raise DomainError(
                f"word {word.as_text()!r} references T{max(word.letters)} "
                f"but the family has {spec.count} matrices"
            )

    upper = _upper_triangle(spec)
    table = np.empty((trials, len(words)))

    def run_trials(block: range) -> None:
        for trial in block:
            family = _draw(spec, _trial_rng(spec, trial), upper)
            with np.errstate(over="ignore", invalid="ignore"):
                traces = [_word_trace(family, w.letters, spec.dimension) for w in words]
            for word, trace in zip(words, traces):
                if not math.isfinite(trace):
                    raise DomainError(
                        f"the trace of {word.as_text()!r} in trial {trial} "
                        "is outside the binary64 range"
                    )
            table[trial] = traces

    workers = min(max_workers, trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        # map raises the first failing block's error: its first failing trial
        blocks = [range(trials * k // workers, trials * (k + 1) // workers) for k in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_trials, blocks))
    else:
        run_trials(range(trials))

    means = table.mean(axis=0)
    ses = table.std(axis=0, ddof=1) / math.sqrt(trials)
    return [
        TraceEstimate(
            expression=w.as_text(), mean=float(m), standard_error=float(s), trials=trials
        )
        for w, m, s in zip(words, means, ses)
    ]


def exact_word_moment(spec: MatrixEnsembleSpec, word: Word) -> float:
    """Infinite-dimension prediction of a word trace for this ensemble.

    GOE matrices converge to the radius-2 semicircle and independent
    draws become asymptotically free, so the prediction is the word
    engine's mixed moment with the matching marginals.
    """
    need = max(word.multiplicity(v) for v in word.variables)
    if spec.kind == "goe":
        marginal = moments(Semicircle(0, 2), max(need, 1))
    elif spec.kind == "diagonal":
        marginal = moments(spec.measure, max(need, 1))
    else:
        raise DomainError("exact predictions cover goe and diagonal ensembles")
    marginals = [marginal] * max(word.letters)
    return as_float(mixed_moment(marginals, word))


# ---------------------------------------------------------------------------
# singular values and noncommutative L^p norms
# ---------------------------------------------------------------------------


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Ascending singular values of a matrix (or of each matrix in a stack),
    by LAPACK's SVD."""
    return np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)[..., ::-1]


def _lp_norms(sigma: np.ndarray, p: float) -> np.ndarray:
    """tau(|x|^p)^(1/p) from the singular values along the last axis."""
    return np.mean(sigma ** p, axis=-1) ** (1.0 / p)


def ncLp_norm(matrix: np.ndarray, p: float) -> float:
    """Noncommutative L^p norm tau(|x|^p)^(1/p) with normalized trace."""
    if p < 1:
        raise DomainError("p must be >= 1")
    return float(_lp_norms(singular_values(matrix), p))


# ---------------------------------------------------------------------------
# inequality sweeps
# ---------------------------------------------------------------------------


class InequalityReport(namedtuple("InequalityReport", "checks violations max_margin families")):
    """Outcome of a batch of L^p inequality checks, with checks per family."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_inequalities(
    tuples: Sequence[Sequence[np.ndarray]],
    exponents: Sequence[float],
    p_minkowski: float = 4.0,
    slack: float = 1e-9,
) -> InequalityReport:
    """Check the L^p inequality families on every sampled tuple.

    Per tuple (x_1..x_k) with Hoelder exponents p_i (sum of 1/p_i = 1):

    * trace form       |tau(x_1...x_k)| <= prod ||x_i||_{p_i}
    * product form     ||x_1...x_k||_1  <= prod ||x_i||_{p_i}
    * Minkowski        ||sum x_i||_p    <= sum ||x_i||_p
    * ideal property   ||x_1 x_2||_p    <= ||x_1||_op ||x_2||_p  (both sides)
    * Hoelder chains for the grouped words x_1^2 x_2 x_3...x_k and
      x_1 x_2^2 x_3, the splittings used to bound traces of mixed
      powers.

    The tuples form one array over a leading tuple axis; each family of
    matrices is one batched product, and its norms come from one batched
    singular-value call.  The report counts every individual inequality
    as one check; ``slack`` absorbs binary64 rounding.  Violations are
    listed family by family.
    """
    if not tuples:
        raise DomainError("no tuples supplied")
    k = len(tuples[0])
    if any(len(t) != k for t in tuples):
        raise DomainError("all tuples must have equal length")
    if len(exponents) != k:
        raise DomainError("need one exponent per tuple entry")
    if any(p <= 1 for p in exponents):
        raise DomainError("Hoelder exponents must exceed 1")
    if abs(sum(1.0 / p for p in exponents) - 1.0) > 1e-12:
        raise DomainError("Hoelder exponents must satisfy sum 1/p_i = 1")
    if p_minkowski < 1:
        raise DomainError("Minkowski exponent must be >= 1")

    # the exponent checks force k >= 2; x has shape (tuples, k, N, N)
    x = np.array(tuples, dtype=float)
    n = x.shape[-1]
    sigma = singular_values(x)
    product = x[:, 0]
    for j in range(1, k):
        product = product @ x[:, j]
    pair01 = x[:, 0] @ x[:, 1]
    sigma01 = singular_values(pair01)

    holder = np.prod([_lp_norms(sigma[:, i], p) for i, p in enumerate(exponents)], axis=0)
    ideal = sigma[:, 0].max(axis=-1) * _lp_norms(sigma[:, 1], p_minkowski)
    # chain for x_0^2 x_1 x_2 ... x_{k-1}: letter count k+1, every norm at p = k
    norms_k = _lp_norms(sigma, float(k))
    chain = norms_k[:, 0] * _lp_norms(sigma01, float(k)) * norms_k[:, 2:].prod(axis=1)
    rows = [
        ("holder-trace", "", np.abs(np.trace(product, axis1=-2, axis2=-1)) / n, holder),
        ("holder-product", "", _lp_norms(singular_values(product), 1.0), holder),
        (
            "minkowski",
            "",
            _lp_norms(singular_values(x.sum(axis=1)), p_minkowski),
            _lp_norms(sigma, p_minkowski).sum(axis=1),
        ),
        ("ideal", " ax", _lp_norms(sigma01, p_minkowski), ideal),
        ("ideal", " xa", _lp_norms(singular_values(x[:, 1] @ x[:, 0]), p_minkowski), ideal),
        ("chain-even", "", _lp_norms(singular_values(x[:, 0] @ product), 1.0), chain),
    ]
    if k >= 3:
        pair12 = x[:, 1] @ x[:, 2]
        rows.append((
            "chain-grouped",
            "",
            _lp_norms(singular_values(pair01 @ pair12), 1.0),
            _lp_norms(sigma01, 2.0) * _lp_norms(singular_values(pair12), 2.0),
        ))

    violations: list[str] = []
    families: dict[str, int] = {}
    margin = -math.inf
    for family, suffix, lhs, rhs in rows:
        families[family] = families.get(family, 0) + len(lhs)
        margin = max(margin, float(np.max(lhs - rhs)))
        violations += [
            f"{family}: tuple {i}{suffix}: {float(lhs[i])!r} > {float(rhs[i])!r}"
            for i in np.flatnonzero(lhs > rhs + slack).tolist()
        ]
    return InequalityReport(
        checks=sum(families.values()),
        violations=tuple(violations),
        max_margin=margin,
        families=families,
    )
