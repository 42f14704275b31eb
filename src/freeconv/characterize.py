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
sums sum_j b_j^m a_jj never vanish, and b_j a_jj != 0 for some j.  The
power-sum condition quantifies over every positive integer m; grouping
indices with equal b_j reduces it to a generalized power sum over at
most n distinct values, which a Vandermonde argument pins down by the
first n exponents.

A joint moment is a sum over the non-crossing partitions pi of the
pattern's positions, and each term contracts the coefficients with one
index j_V in [n] per block V.  This module enumerates those partitions
itself, recursing on the block of the first position, and skips every
partition with a block whose free cumulant vanishes.  The contraction
runs on the block graph of pi, in integers (the coefficients scaled to a
common denominator): block V carries the unary weight
b^(number of L in V) times a_jj for every Q with both positions in V,
and every Q whose positions lie in blocks U != V is an n x n edge
between them, parallel edges multiplying entrywise.  Blocks are
eliminated one at a time, in decreasing order of their first position.
A block of degree 0 multiplies the result by the sum of its weights, one
of degree 1 folds into its neighbour's weight, and one of degree 2
becomes the n x n matrix product edge between its two neighbours,
O(n^3).  Each partition so costs O(|pi| n^3), not the n^|pi| of summing
over every index assignment.

No block ever has degree above 2.  Put the positions on a circle and
join consecutive elements of each block by a chord: the chords of a
non-crossing partition do not cross, so with the circle's arcs they form
an outerplanar graph.  Every Q joins adjacent positions, an arc, so the
block graph is a minor of it (contract the chords, drop the other arcs).
Outerplanar graphs are closed under minors and have a vertex of degree
at most 2; eliminating it deletes it (degree 0 or 1) or contracts one of
its edges (degree 2), so one always remains.  The order above always
picks such a vertex: every block still present when V's turn comes lies
left of V or encloses it, so V's positions are consecutive among the
positions present.  Edges only ever join consecutive present positions
(a Q joins adjacent ones, and eliminating a block joins the two
positions around it), so V has at most the two neighbours just outside
its run.  Meeting a higher degree is an internal error.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain, combinations
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError
from .measures import MomentSequence, RationalLike, Value, as_fraction
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


def validate_spec(spec: QuadraticFormSpec) -> ValidityReport:
    """Check symmetry, A b = 0, nonvanishing diagonal power sums, coupling."""
    n = spec.n
    symmetric = all(
        spec.a[i][j] == spec.a[j][i] for i in range(n) for j in range(i + 1, n)
    )
    annihilates = all(
        sum((spec.a[i][j] * spec.b[j] for j in range(n)), start=Fraction(0)) == 0
        for i in range(n)
    )
    # Group equal b-values: the power sum is sum_v c_v v^m over at most n
    # distinct values, determined by exponents m = 1..n.
    grouped: dict[Fraction, Fraction] = {}
    for j in range(n):
        grouped[spec.b[j]] = grouped.get(spec.b[j], Fraction(0)) + spec.a[j][j]
    sums = tuple(
        sum((c * v ** m for v, c in grouped.items()), start=Fraction(0))
        for m in range(1, n + 1)
    )
    power_ok = all(s != 0 for s in sums)
    coupling = any(spec.b[j] * spec.a[j][j] != 0 for j in range(n))

    failures = []
    if not symmetric:
        failures.append("coefficient matrix is not symmetric")
    if not annihilates:
        failures.append("mean-annihilation condition A b = 0 fails")
    if not power_ok:
        failures.append("diagonal power-sum condition sum b_j^m a_jj != 0 fails")
    if not coupling:
        failures.append("diagonal coupling condition b_j a_jj != 0 for some j fails")
    return ValidityReport(
        symmetric=symmetric,
        annihilates_b=annihilates,
        power_sums_nonzero=power_ok,
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


def _nc_blocks(
    elements: tuple[int, ...], kappa: Optional[Sequence[Fraction]] = None
) -> Iterator[list[tuple[int, ...]]]:
    """Yield every non-crossing partition of ``elements`` once, as a list
    of blocks in increasing order of their first element.

    The block of elements[0] splits the rest into independent gaps.  With
    kappa, partitions with a block of size s where kappa[s - 1] == 0 are
    skipped: they add nothing to a cumulant sum.
    """

    def partitions(elements: tuple[int, ...]) -> Iterator[list[tuple[int, ...]]]:
        if not elements:
            yield []
            return
        first, rest = elements[0], elements[1:]
        for k in range(len(rest) + 1):
            if kappa is not None and kappa[k] == 0:
                continue
            for chosen in combinations(range(len(rest)), k):
                block = (first,) + tuple(rest[i] for i in chosen)
                bounds = [*chosen, len(rest)]
                gaps = []
                prev = -1
                for b in bounds:
                    gaps.append(rest[prev + 1 : b])
                    prev = b
                for combo in product_of_gap_partitions(gaps):
                    yield [block, *combo]

    def product_of_gap_partitions(
        gaps: Sequence[tuple[int, ...]],
    ) -> Iterator[list[tuple[int, ...]]]:
        if not gaps:
            yield []
            return
        head, tail = gaps[0], gaps[1:]
        for head_blocks in partitions(head):
            for tail_blocks in product_of_gap_partitions(tail):
                yield [*head_blocks, *tail_blocks]

    return partitions(elements)


def _contract(
    blocks: Sequence[Sequence[int]],
    factors: Sequence[tuple[str, int]],
    b: Sequence[int],
    a: Sequence[Sequence[int]],
) -> int:
    """Sum over one index per block of the product of the pattern's
    coefficients, by eliminating the blocks of the block graph (see the
    module docstring).

    ``blocks`` come in increasing order of their first position, as
    ``_nc_blocks`` yields them, and are eliminated in reverse.
    ``factors`` lists each letter with its first position: b at an L,
    a at the two positions of a Q.  A unary weight of None stands for
    all ones.
    """
    owner = {p: v for v, block in enumerate(blocks) for p in block}
    unary: list = [None] * len(blocks)
    # edges[v][u][i][k]: weight of j_v = i and j_u = k
    edges: list[dict[int, list]] = [{} for _ in blocks]
    for name, start in factors:
        v = owner[start]
        if name == "L":
            vec = b
        elif (u := owner[start + 1]) == v:
            vec = [row[i] for i, row in enumerate(a)]
        else:
            _join(edges, v, u, a)
            continue
        unary[v] = vec if unary[v] is None else list(map(mul, unary[v], vec))

    total = 1
    for v in reversed(range(len(blocks))):
        weights, nbrs = unary[v], list(edges[v])
        if not nbrs:
            total *= len(b) if weights is None else sum(weights)
            if total == 0:
                return 0
            continue
        if len(nbrs) > 2:
            raise RuntimeError(
                f"internal error: a block of degree {len(nbrs)} > 2 in the block graph"
            )
        left = edges[nbrs[0]].pop(v)
        if weights is not None:
            left = [list(map(mul, row, weights)) for row in left]
        if len(nbrs) == 1:
            folded = [sum(row) for row in left]
            u = nbrs[0]
            unary[u] = folded if unary[u] is None else list(map(mul, unary[u], folded))
        else:
            right = edges[nbrs[1]].pop(v)
            _join(edges, *nbrs, [[sum(map(mul, l, r)) for r in right] for l in left])
    return total


def _join(edges: list[dict], v: int, u: int, matrix: Sequence[Sequence[int]]) -> None:
    """Add an edge from v to u (rows index j_v), entrywise onto any present."""
    present = edges[v].get(u)
    if present is not None:
        matrix = [list(map(mul, p, m)) for p, m in zip(present, matrix)]
    edges[v][u] = matrix
    edges[u][v] = [list(col) for col in zip(*matrix)]


def _letters(pattern: Pattern) -> list[tuple[str, int]]:
    """Each letter of a pattern with its first position."""
    names = [name for name, exp in pattern for _ in range(exp)]
    return list(zip(names, accumulate((1 if name == "L" else 2 for name in names), initial=0)))


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
    a Q.  The contraction eliminates blocks one at a time (see the module
    docstring).
    """
    pattern = _normalize_pattern(pattern)
    degree = pattern_degree(pattern)
    if marginal.order < degree:
        raise DomainError(
            f"pattern has degree {degree} but marginal order is {marginal.order}"
        )
    return _nc_sum(spec, free_from_moments(marginal), pattern, frozenset())


def _nc_sum(
    spec: QuadraticFormSpec,
    kappa: Sequence[Fraction],
    pattern: Pattern,
    banned: frozenset[tuple[int, int]],
) -> Fraction:
    """``joint_moment``'s sum over the non-crossing partitions of the
    pattern's positions, with the marginal's free cumulants ``kappa``,
    skipping every partition with a block in ``banned``."""
    # Integer coefficients keep the contraction in int arithmetic.
    den = math.lcm(*(v.denominator for v in (*spec.b, *chain.from_iterable(spec.a))))
    b = [int(v * den) for v in spec.b]
    a = [[int(v * den) for v in row] for row in spec.a]
    factors = _letters(pattern)

    # Partitions with the same block sizes share their cumulant weight, so
    # their integer contractions are summed before it multiplies them.
    by_sizes: dict[tuple[int, ...], int] = {}
    for blocks in _nc_blocks(tuple(range(pattern_degree(pattern))), kappa):
        if not banned.isdisjoint(blocks):
            continue
        sizes = tuple(sorted(map(len, blocks)))
        by_sizes[sizes] = by_sizes.get(sizes, 0) + _contract(blocks, factors, b, a)
    total = Fraction(0)
    for sizes, value in by_sizes.items():
        weight = Fraction(value)
        for size in sizes:
            weight *= kappa[size - 1]
        total += weight
    return total / den ** len(factors)


def form_moments(
    spec: QuadraticFormSpec,
    marginal: MomentSequence,
    which: str,
    order: int,
) -> MomentSequence:
    """Moment sequence of L or Q itself: the joint moments of L^k or Q^k."""
    if which not in ("L", "Q"):
        raise DomainError("which must be 'L' or 'Q'")
    return MomentSequence(
        joint_moment(spec, marginal, ((which, k),)) for k in range(1, order + 1)
    )


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
    tau(L) = m_1 sum_j b_j = 0.  Scanning runs in increasing degree; the
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
    deviations = []
    for pattern in patterns:
        lone_q = frozenset((s, s + 1) for name, s in _letters(pattern) if name == "Q")
        deviations.append((pattern, _nc_sum(spec, kappa, pattern, lone_q)))
    note = (
        "scan depth is an empirical default; freeness violations are only "
        "guaranteed to surface at some finite degree"
        if patterns
        else "no alternating pattern fits below degree 3"
    )
    return DichotomyReport(
        max_word_length=max_word_length, deviations=tuple(deviations), note=note
    )
