"""Moment-level test of the semicircle characterization.

From a symmetric coefficient matrix A and a vector b this module builds
the linear form L = sum b_j T_j and the quadratic form
Q = sum a_jk T_j T_k over free, identically distributed variables, and
probes whether L and Q behave like a free pair.

The probe evaluates, for every alternating pattern in the centered forms,
the exact trace of the pattern: a sum over the non-crossing partitions of
the pattern's positions, each weighted by free cumulants and contracted
with the coefficients.  Freeness of (L, Q) sets every such trace to 0,
so the trace itself is the deviation from freeness.  All values are
exact rationals, so a verdict of "consistent with freeness" is a
certified zero of every deviation up to the configured degree, and a
nonzero deviation is an exact witness against freeness.

The admissibility conditions on (A, b) are: A b = 0, the diagonal power
sums s_m = sum_j b_j^m a_jj never vanish, and b_j a_jj != 0 for some j.
The power-sum condition quantifies over every positive integer m.
Grouping indices with equal b_j, and +u with -u, writes s_m for m of one
parity as sum_u e_u u^m over distinct u > 0.  Either every e_u is 0, and
s_m vanishes at that parity, or the largest u with e_u != 0 outgrows the
rest: once |e_u| u^m exceeds the sum of the other |e_u'| u'^m it does so
for every larger m.  So s_m is checked exactly for m = 1, 2, ... until
that holds at both parities.  A term past 2^16 bits before then leaves
the condition undecided, which is a DomainError.

A joint moment is a sum over the non-crossing partitions pi of the
pattern's d positions, and each term contracts the coefficients with one
index per block.  Put an index i_p on each position p.  Position p
carries the weight w_p = b at an L and all ones otherwise, and positions
p and p + 1 are coupled by C_p = A inside a Q and by the all-ones matrix
J between letters, so a term is kappa_pi times the sum of
prod_p w_p[i_p] C_p[i_p, i_(p+1)] over the indices constant on each
block.  Every index carries the one marginal's cumulants, and
``noncrossing.prefix_sums`` sums this by its interval recursion.  The
coefficients are scaled to a common denominator first, so its tables
hold ints, and each prefix is divided once more, by that denominator to
the number of letters.

The sum of every prefix that ends on a letter reads off the same tables.
Every alternating pattern is a prefix of the longest one with the same
first letter, so the dichotomy builds two sets of tables.  Its filter
drops every partition in which a Q's two positions form a block of their
own: the block {s, s + 1} at the Q's first position s, which is the
kernel's dropped position.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DomainError
from .measures import MomentSequence, RationalLike, Value, as_fraction
from .noncrossing import prefix_sums
from .transforms import free_from_moments

__all__ = [
    "QuadraticFormSpec",
    "ValidityReport",
    "validate_spec",
    "preset_sample_mean_variance",
    "joint_moment",
    "form_moments",
    "DichotomyReport",
    "freeness_dichotomy",
    "alternating_form_patterns",
]

Pattern = tuple[tuple[str, int], ...]


class QuadraticFormSpec(Value):
    """Coefficients (A, b) of the quadratic form Q and linear form L."""

    n: int
    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]

    def __init__(
        self,
        a: Iterable[Iterable[RationalLike]],
        b: Iterable[RationalLike],
    ):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in a)
        vec = tuple(as_fraction(v) for v in b)
        n = len(vec)
        if n < 2:
            raise DomainError("need at least 2 variables")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"A must be {n}x{n} to match b")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", rows)
        object.__setattr__(self, "b", vec)


class ValidityReport(namedtuple("ValidityReport", "symmetric annihilates_b power_sums_nonzero "
                                 "power_sums has_diagonal_coupling failures")):
    """Exact pass/fail for each admissibility condition on (A, b)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


# Past this many bits in a term, no base has outgrown the rest soon enough
# to decide the power-sum condition by direct evaluation.
_MAX_POWER_SUM_BITS = 1 << 16


def _first_vanishing_power_sum(
    b: Sequence[Fraction], diag: Sequence[Fraction]
) -> Optional[int]:
    """The first m >= 1 with s_m = sum_j b_j^m a_jj = 0, or None when no
    s_m vanishes (see the module docstring)."""
    # |b_j| -> [coefficient at even m, coefficient at odd m]
    coeff: dict[Fraction, list[Fraction]] = {}
    for v, c in zip(b, diag):
        if v:
            e = coeff.setdefault(abs(v), [Fraction(0), Fraction(0)])
            e[0] += c
            e[1] += c if v > 0 else -c
    # In ints: with u = U / den and e = E / scale, s_m den^m scale = sum_u E U^m.
    bases = sorted(coeff, reverse=True)
    den = math.lcm(*(u.denominator for u in bases))
    scale = math.lcm(*(e.denominator for u in bases for e in coeff[u]))
    ints = [u.numerator * (den // u.denominator) for u in bases]
    scaled = [[int(e * scale) for e in coeff[u]] for u in bases]
    powers = [1] * len(bases)
    settled = [False, False]
    m = 0
    while not all(settled):
        m += 1
        powers = list(map(mul, powers, ints))
        terms = [e[m % 2] * p for e, p in zip(scaled, powers) if e[m % 2]]
        if sum(terms) == 0:
            return m
        rest = sum(map(abs, terms[1:]))
        if rest.bit_length() > _MAX_POWER_SUM_BITS:
            raise DomainError(
                "cannot decide the diagonal power-sum condition: no term of "
                f"sum b_j^m a_jj outgrows the rest by m = {m}"
            )
        settled[m % 2] = abs(terms[0]) > rest
    return None


def validate_spec(spec: QuadraticFormSpec) -> ValidityReport:
    """Check symmetry, A b = 0, nonvanishing diagonal power sums, coupling.

    ``power_sums`` holds s_1..s_n; the condition is checked for every m."""
    n = spec.n
    symmetric = all(
        spec.a[i][j] == spec.a[j][i] for i in range(n) for j in range(i + 1, n)
    )
    annihilates = all(
        sum((spec.a[i][j] * spec.b[j] for j in range(n)), start=Fraction(0)) == 0
        for i in range(n)
    )
    diag = [spec.a[j][j] for j in range(n)]
    sums = tuple(
        sum((v ** m * c for v, c in zip(spec.b, diag)), start=Fraction(0))
        for m in range(1, n + 1)
    )
    vanishing = _first_vanishing_power_sum(spec.b, diag)
    coupling = any(spec.b[j] * spec.a[j][j] != 0 for j in range(n))

    failures = []
    if not symmetric:
        failures.append("coefficient matrix is not symmetric")
    if not annihilates:
        failures.append("mean-annihilation condition A b = 0 fails")
    if vanishing is not None:
        failures.append(
            f"diagonal power-sum condition sum b_j^m a_jj != 0 fails at m = {vanishing}"
        )
    if not coupling:
        failures.append("diagonal coupling condition b_j a_jj != 0 for some j fails")
    return ValidityReport(
        symmetric=symmetric,
        annihilates_b=annihilates,
        power_sums_nonzero=vanishing is None,
        power_sums=sums,
        has_diagonal_coupling=coupling,
        failures=tuple(failures),
    )


def preset_sample_mean_variance(n: int) -> QuadraticFormSpec:
    """Coefficients of the sample mean and sample variance of n variables.

    b_j = 1/n makes L the sample mean; a_jk = delta_jk/n - 1/n^2 makes Q
    the sample variance (1/n) sum (T_j - mean)^2.
    """
    if n < 2:
        raise DomainError("need at least 2 variables")
    inv = Fraction(1, n)
    inv2 = Fraction(1, n * n)
    a = [
        [(inv if j == k else Fraction(0)) - inv2 for k in range(n)]
        for j in range(n)
    ]
    b = [inv] * n
    return QuadraticFormSpec(a, b)


# ---------------------------------------------------------------------------
# joint moments of L/Q patterns
# ---------------------------------------------------------------------------


def _normalize_pattern(pattern: Sequence[tuple[str, int]]) -> Pattern:
    if not pattern:
        raise DomainError("empty pattern")
    out = []
    for name, exp in pattern:
        if name not in ("L", "Q"):
            raise DomainError(f"pattern letters must be 'L' or 'Q', got {name!r}")
        if exp < 1:
            raise DomainError("pattern exponents must be >= 1")
        out.append((name, int(exp)))
    return tuple(out)


def pattern_degree(pattern: Sequence[tuple[str, int]]) -> int:
    return sum((1 if name == "L" else 2) * exp for name, exp in pattern)


def _prefix_traces(
    spec: QuadraticFormSpec,
    kappa: Sequence[Fraction],
    letters: Sequence[str],
    lone_q: bool,
) -> list[Fraction]:
    """The non-crossing sum of every prefix ``letters[:m]``, m = 1, 2, ...,
    from one ``noncrossing.prefix_sums`` build (see the module docstring).
    With ``lone_q``, every partition in which a Q's two positions form a
    block of their own is dropped."""
    n = spec.n
    den = math.lcm(*(v.denominator for v in (*spec.b, *chain.from_iterable(spec.a))))
    b = [int(v * den) for v in spec.b]
    a = [[int(v * den) for v in row] for row in spec.a]
    ones = [1] * n
    all_ones = [ones] * n
    # w_p, and C_p joining positions p and p + 1
    weight: list[list[int]] = []
    coupling: list[list[list[int]]] = []
    q_starts, ends = set(), []
    for name in letters:
        if name == "Q":
            q_starts.add(len(weight))
            weight.append(ones)
            coupling.append(a)
        weight.append(b if name == "L" else ones)
        coupling.append(all_ones)
        ends.append(len(weight) - 1)
    sums = prefix_sums(weight, coupling[:-1], [kappa] * n, q_starts if lone_q else ())
    return [sums[t] / den ** m for m, t in enumerate(ends, 1)]


def _letters(pattern: Sequence[tuple[str, int]], marginal: MomentSequence) -> list[str]:
    """The letters of a pattern, once the marginal is known to reach its degree."""
    pattern = _normalize_pattern(pattern)
    degree = pattern_degree(pattern)
    if marginal.order < degree:
        raise DomainError(
            f"pattern has degree {degree} but marginal order is {marginal.order}"
        )
    return [name for name, exp in pattern for _ in range(exp)]


def joint_moment(
    spec: QuadraticFormSpec,
    marginal: MomentSequence,
    pattern: Sequence[tuple[str, int]],
) -> Fraction:
    """Exact trace of an (uncentered) L/Q pattern such as L Q^2 L.

    All variables carry the same marginal, and their mixed free cumulants
    vanish unless every index agrees.  So the trace is a sum over the
    non-crossing partitions pi of the pattern's d positions: the product
    of kappa_|V| over the blocks V, times the coefficients contracted with
    one index per block, b at an L position and A at the two positions of
    a Q, and ``noncrossing.prefix_sums`` computes it.
    """
    letters = _letters(pattern, marginal)
    return _prefix_traces(spec, free_from_moments(marginal), letters, False)[-1]


def form_moments(
    spec: QuadraticFormSpec,
    marginal: MomentSequence,
    which: str,
    order: int,
) -> MomentSequence:
    """Moment sequence of L or Q itself: the joint moments of L^k or Q^k,
    the prefixes of L^order or Q^order."""
    if which not in ("L", "Q"):
        raise DomainError("which must be 'L' or 'Q'")
    letters = _letters(((which, order),), marginal)
    return MomentSequence(_prefix_traces(spec, free_from_moments(marginal), letters, False))


# ---------------------------------------------------------------------------
# the dichotomy
# ---------------------------------------------------------------------------


def alternating_form_patterns(max_degree: int) -> list[Pattern]:
    """All alternating patterns in L and Q with total degree <= max_degree.

    Patterns are sequences of single L and Q letters with adjacent
    letters distinct, at least two letters long, sorted by degree.
    """
    if max_degree < 3:
        return []
    out: list[Pattern] = []
    for start in ("L", "Q"):
        letters = [start]
        while True:
            letters.append("Q" if letters[-1] == "L" else "L")
            pattern = tuple((name, 1) for name in letters)
            if pattern_degree(pattern) > max_degree:
                break
            out.append(pattern)
    out.sort(key=lambda p: (pattern_degree(p), p))
    return out


class DichotomyReport(namedtuple("DichotomyReport", "max_word_length deviations note")):
    """Exact deviations from freeness: (pattern, deviation) pairs."""

    __slots__ = ()

    @property
    def max_abs_deviation(self) -> Fraction:
        return max((abs(d) for _, d in self.deviations), default=Fraction(0))

    @property
    def verdict(self) -> str:
        first = self.first_nonzero()
        if first is None:
            return "consistent-with-free"
        return f"not-free-at-order-{pattern_degree(first[0])}"

    def first_nonzero(self):
        for pattern, dev in self.deviations:
            if dev != 0:
                return pattern, dev
        return None


def freeness_dichotomy(
    spec: QuadraticFormSpec,
    marginal: MomentSequence,
    max_word_length: int,
) -> DichotomyReport:
    """Trace every centered alternating (L, Q) pattern; freeness zeroes each.

    For every alternating pattern with total degree up to
    ``max_word_length``, the deviation is the trace of the product of the
    centered letters L - tau(L) and Q - tau(Q), and a free pair would give
    0.  It is ``joint_moment``'s sum over the non-crossing partitions of
    the pattern's positions, skipping every partition in which a Q's two
    (adjacent) positions form a block of their own.  This is exact.
    Group the partitions of the uncentered pattern by the set S of Q's
    that are blocks of their own.  Such a block is an interval, so
    dropping it leaves a non-crossing partition of the pattern without S,
    and its weight kappa_2 sum_j a_jj is tau(Q), since m_1 = 0 makes
    kappa_1 = 0.  So tau(pattern) = sum_S tau(Q)^|S| F(pattern without
    S), with F the filtered sum, and inclusion-exclusion over S turns the
    trace with every Q centered into F.  The L's need no centering, as
    tau(L) = m_1 sum_j b_j = 0.  Every pattern is a prefix of the longest
    one with the same first letter, so two sets of interval tables give
    every deviation.  The report lists them in increasing degree; the
    verdict names the first degree at which a deviation appears, if any.
    """
    report = validate_spec(spec)
    if not report.passed:
        raise DomainError(
            "refusing to run the dichotomy on an inadmissible form: "
            + "; ".join(report.failures)
        )
    if marginal.m(1) != 0:
        raise DomainError("the dichotomy assumes centered variables (m_1 = 0)")
    if marginal.order < max_word_length:
        raise DomainError(
            f"marginal order {marginal.order} below requested degree {max_word_length}"
        )

    patterns = alternating_form_patterns(max_word_length)
    kappa = free_from_moments(marginal)
    traces = {}
    for start in {pattern[0][0] for pattern in patterns}:
        longest = max((p for p in patterns if p[0][0] == start), key=len)
        traces[start] = _prefix_traces(spec, kappa, [name for name, _ in longest], True)
    deviations = [(p, traces[p[0][0]][len(p) - 1]) for p in patterns]
    note = (
        "scan depth is an empirical default; freeness violations are only "
        "guaranteed to surface at some finite degree"
        if patterns
        else "no alternating pattern fits below degree 3"
    )
    return DichotomyReport(
        max_word_length=max_word_length, deviations=tuple(deviations), note=note
    )
