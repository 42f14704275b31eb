"""Brute-force reference implementations used only by the test suite.

Everything here trades efficiency for obviousness: set partitions are
enumerated exhaustively and filtered, cumulant relations are solved
directly from their defining sums (boolean ones over interval
partitions), and the lattice Moebius function is assembled from the
complementation map.  The library must agree with
these exactly.

Several references are former library engines kept for comparison: the
O(p^4) multiplicative-convolution recursion that reruns full fixed-point
passes, the free-cumulant conversions that multiply raw powers of
1 + M(z), all three in Fractions, which the library's integer series
must match exactly, the Fraction LDL^T elimination and the integer
(Bareiss) elimination of exact Hankel matrices, the float
boolean-to-moment loop of the subordination route, the
(L, Q) joint moment that expands a pattern into every index word, the
word engine that enumerates every candidate block of the first letter and
the one after it that ran a dynamic program over that block as a chain,
with a memo of gap words (the reference for word traces read off the
interval tables), the
(L, Q) joint moment that contracts each partition's coefficients with one
object-array ``np.einsum``, a batched cyclic Jacobi eigensolver and
scipy's adaptive quadrature, which float results must match within a
tolerance.  The numpy forms of the float layer are the references for
its plain-Python routes: the tanh-sinh rule over arrays of nodes, K(-x)
of an atomic measure as one expression over all nodes, and the contour
fit's mean over all its nodes.  numpy's trapezoid rule over a grid's
arrays is the reference for the grid's nodal measure, which the library
sums over in plain Python: the grid's moments, K, fractional moment,
the diagnostics' c_mu and their inner sum over (0, 1).  Singular values
from the eigenvalues of x^T x are the reference for the SVD.  The dense
GOE draw that family member 1 used before it took its tridiagonal form
is the reference law for the sampler, and the dense product chain that
evaluated each word before member 1 was kept compact is the reference
for the word traces.
The L^p
inequality sweep that stacked every matrix of every tuple on one list
and read the norms back tuple by tuple is the reference for the sweep
over the tuple axis.  The operator norm, the integer absolute moment,
series composition, the dichotomy report's freeness flag, the float psi,
the exact psi and K of an atomic measure, and the Krein expansion check
(|K(-x) minus its boolean-cumulant polynomial| / x^p on a dyadic grid,
decaying monotonically) are former library functions with no library
caller left; the exact K is the reference for the library's K.  The
(L, Q) dichotomy
that expanded each centered pattern into its 2^#Q uncentered
sub-patterns, and subtracted the prediction for a free pair with the
forms' own moment sequences, is the reference for the filtered
non-crossing sum.  The (L, Q) engine that enumerated every non-crossing
partition of a pattern's positions and contracted the coefficients on
each partition's block graph is the reference for the interval tables
that replaced it.

The argparse parser that the command table replaced (``build_parser``)
is the reference for the fields the table's parser sets.

The refinement probes of the fractional diagnostics, three partial
integrals of -K(-x) x^(-1-alpha) over [eps, 1] and the verdict rule they
fed (``fractional_probes``, ``probe_verdict``), are the reference for the
constant verdict that replaced them.  ``weight_at``, the exact mass of an
atomic measure at a point, is a former library method with no library
caller left.

The exact Hankel check (``_exact_hankel_psd``) is the reference for the
positivity that ``measures.moments`` does not check: every measure
constructor guarantees it (nonnegative weights summing to 1, a positive
semicircle radius, a nonnegative grid density of mass 1 within 1e-12),
so the moments of each kind are a positive measure's and their Hankel
matrices are PSD by construction, which the tests assert on drawn
measures.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, product
from operator import mul
from string import ascii_letters

import numpy as np

from freeconv.commands.boxplus import run as cmd_boxplus
from freeconv.commands.boxtimes import run as cmd_boxtimes
from freeconv.commands.characterize import run as cmd_characterize
from freeconv.commands.cumulants import run as cmd_cumulants
from freeconv.commands.diagnose import run as cmd_diagnose
from freeconv.commands.matrixlab import run as cmd_matrixlab
from freeconv.commands.moments import run as cmd_moments
from freeconv.commands.subordinate import run as cmd_subordinate
from freeconv.errors import ConvergenceError, DomainError
from freeconv.measures import _hankel_matrices, dilate


def set_partitions(elems: list) -> list[list[list]]:
    if not elems:
        return [[]]
    first, rest = elems[0], elems[1:]
    out = []
    for part in set_partitions(rest):
        out.append([[first]] + [list(b) for b in part])
        for i in range(len(part)):
            clone = [list(b) for b in part]
            clone[i] = [first] + clone[i]
            out.append(clone)
    return out


def is_noncrossing(blocks) -> bool:
    for b1, b2 in combinations(blocks, 2):
        for a, c in combinations(sorted(b1), 2):
            for b, d in combinations(sorted(b2), 2):
                if a < b < c < d or b < a < d < c:
                    return False
    return True


def nc_partitions(n: int) -> list[list[list[int]]]:
    return [p for p in set_partitions(list(range(1, n + 1))) if is_noncrossing(p)]


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def free_cumulants_bruteforce(moments: list[Fraction]) -> list[Fraction]:
    """Solve m_n = sum over NC(n) of prod kappa_|V| directly."""
    kappa: dict[int, Fraction] = {}
    for n in range(1, len(moments) + 1):
        partial = Fraction(0)
        for part in nc_partitions(n):
            if len(part) == 1:
                continue
            term = Fraction(1)
            for blk in part:
                term *= kappa[len(blk)]
            partial += term
        kappa[n] = Fraction(moments[n - 1]) - partial
    return [kappa[n] for n in range(1, len(moments) + 1)]


def moments_from_free_bruteforce(kappa: list[Fraction]) -> list[Fraction]:
    out = []
    for n in range(1, len(kappa) + 1):
        total = Fraction(0)
        for part in nc_partitions(n):
            term = Fraction(1)
            for blk in part:
                term *= Fraction(kappa[len(blk) - 1])
            total += term
        out.append(total)
    return out


def mixed_moment_bruteforce(marginals: dict[int, list[Fraction]], word) -> Fraction:
    """Monochromatic non-crossing sum with explicit partition filtering."""
    kappas = {v: free_cumulants_bruteforce(m) for v, m in marginals.items()}
    total = Fraction(0)
    for part in nc_partitions(len(word)):
        term = Fraction(1)
        for blk in part:
            vs = {word[i - 1] for i in blk}
            if len(vs) != 1:
                term = Fraction(0)
                break
            term *= kappas[vs.pop()][len(blk) - 1]
        total += term
    return total


def nc_moment_by_block_subsets(kappas, letters, memo=None) -> Fraction:
    """Monochromatic non-crossing sum, choosing the block of position 0
    as every subset of the later positions with the same variable.

    ``kappas[v]`` holds the free cumulants of variable v and ``letters``
    uses 0-based variables.  Blocks larger than ``len(kappas[v])`` and
    blocks whose cumulant vanishes are skipped; the gaps between block
    elements recurse, memoized per call.  This was the library's word
    engine, 2^(m-1) blocks for m letters of the leading variable.
    """
    letters = tuple(letters)
    if not letters:
        return Fraction(1)
    memo = {} if memo is None else memo
    if letters in memo:
        return memo[letters]
    kv = kappas[letters[0]]
    same = [i for i, l in enumerate(letters) if l == letters[0]]
    total = Fraction(0)
    for size in range(1, min(len(same), len(kv)) + 1):
        if kv[size - 1] == 0:
            continue
        for chosen in combinations(same[1:], size - 1):
            term = kv[size - 1]
            prev = 0
            for bound in (*chosen, len(letters)):
                term *= nc_moment_by_block_subsets(kappas, letters[prev + 1 : bound], memo)
                prev = bound
                if term == 0:
                    break
            total += term
    memo[letters] = total
    return total


def nc_moment_by_chains(kappas, letters, memo=None) -> Fraction:
    """Monochromatic non-crossing sum by a dynamic program over the chain
    that forms the block of position 0.

    ``kappas`` and ``letters`` are as in ``nc_moment_by_block_subsets``.
    The letters strictly between two consecutive chain elements, or after
    the last one, form a gap word.  ``chains[i][s]`` sums the gap products
    of every chain of s elements that ends at the i-th position of the
    leading variable; closing it multiplies by kappa_s and the tail gap.
    Gap words recurse, memoized per call.  This was the library's word
    engine before the interval recursion: O(m^2) gaps and O(m^3) products
    for m letters of the leading variable.
    """
    letters = tuple(letters)
    if not letters:
        return Fraction(1)
    memo = {} if memo is None else memo
    if letters in memo:
        return memo[letters]
    kv = kappas[letters[0]]
    same = [i for i, l in enumerate(letters) if l == letters[0]]
    # no chain grows past the largest block size with a nonzero cumulant
    top = max((s for s in range(1, min(len(same), len(kv)) + 1) if kv[s - 1]), default=0)

    def gap(a: int, b: int) -> Fraction:
        return nc_moment_by_chains(kappas, letters[a + 1 : b], memo)

    chains: list[dict[int, Fraction]] = [{} for _ in same]
    chains[0][1] = Fraction(1)
    total = Fraction(0)
    for i, start in enumerate(same):
        sums = chains[i]
        closed = sum(kv[s - 1] * w for s, w in sums.items() if kv[s - 1])
        if closed:
            total += closed * gap(start, len(letters))
        growing = [(s + 1, w) for s, w in sums.items() if s < top]
        if not growing:
            continue
        for j in range(i + 1, len(same)):
            between = gap(start, same[j])
            if between:
                for s, w in growing:
                    chains[j][s] = chains[j].get(s, 0) + between * w
    memo[letters] = total
    return total


def kreweras_complement(blocks: list[list[int]], n: int) -> list[list[int]]:
    """Complement partition on interleaved points 1' .. n'.

    Primes i' sit at positions 2i on the doubled line; i' and j' share a
    block exactly when no block of the original partition separates them.
    """

    def separated(i: int, j: int) -> bool:
        lo, hi = 2 * min(i, j), 2 * max(i, j)
        for blk in blocks:
            pos = [2 * e - 1 for e in blk]
            inside = [p for p in pos if lo < p < hi]
            outside = [p for p in pos if p < lo or p > hi]
            if inside and outside:
                return True
        return False

    parent = list(range(n + 1))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not separated(i, j):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def nc_moebius_to_top(blocks: list[list[int]], n: int) -> int:
    """Moebius function mu(pi, full block) in the non-crossing lattice.

    The interval [pi, 1_n] factors over the blocks of the Kreweras
    complement, and mu(0_m, 1_m) = (-1)^(m-1) * Catalan(m-1).
    """
    value = 1
    for blk in kreweras_complement(blocks, n):
        m = len(blk)
        value *= (-1) ** (m - 1) * catalan(m - 1)
    return value


def free_cumulants_moebius(moments: list[Fraction]) -> list[Fraction]:
    """kappa_n = sum over NC(n) of mu(pi, 1_n) prod m_|V|."""
    out = []
    for n in range(1, len(moments) + 1):
        total = Fraction(0)
        ms = [Fraction(1)] + [Fraction(m) for m in moments]
        for part in nc_partitions(n):
            term = Fraction(nc_moebius_to_top(part, n))
            for blk in part:
                term *= ms[len(blk)]
            total += term
        out.append(total)
    return out


def interval_partitions(n: int):
    """The interval partitions of {1..n} as tuples of block sizes."""
    for cuts in product((False, True), repeat=n - 1):
        sizes, size = [], 1
        for cut in cuts:
            if cut:
                sizes.append(size)
                size = 0
            size += 1
        yield (*sizes, size)


def boolean_from_moments_by_intervals(m) -> list[Fraction]:
    """r_n = sum over interval partitions pi of (-1)^(|pi|-1) prod m_|V|,
    the Moebius inversion on the interval-partition lattice."""
    ms = [Fraction(v) for v in m]
    return [
        sum(
            (-1) ** (len(sizes) - 1) * math.prod(ms[s - 1] for s in sizes)
            for sizes in interval_partitions(n)
        )
        for n in range(1, len(ms) + 1)
    ]


def moments_from_boolean_by_intervals(r) -> list[Fraction]:
    """m_n = sum over interval partitions pi of prod r_|V|."""
    rs = [Fraction(v) for v in r]
    return [
        sum(math.prod(rs[s - 1] for s in sizes) for sizes in interval_partitions(n))
        for n in range(1, len(rs) + 1)
    ]


def exact_psd_ldl(mat: list[list[Fraction]]) -> bool:
    """Exact positive semidefiniteness by symmetric elimination (LDL^T): a
    zero pivot passes only when the rest of its Schur-complement row is zero."""
    a = [[Fraction(v) for v in row] for row in mat]
    for k, row in enumerate(a):
        if row[k] < 0 or (row[k] == 0 and any(row[k + 1 :])):
            return False
        if row[k]:
            for lower in a[k + 1 :]:
                factor = lower[k] / row[k]
                for j in range(k + 1, len(a)):
                    lower[j] -= factor * row[j]
    return True


def _integer_psd(mat: list[list[int]]) -> bool:
    """Exact positive semidefiniteness of a symmetric integer matrix.

    Fraction-free (Bareiss) elimination: after pivots I, each entry left
    is det(A_I) > 0 times its Schur complement entry, an integer minor, so
    every division is exact and signs are the Schur complement's.  A zero
    pivot passes only with a zero row, and is skipped, keeping the divisor.
    """
    a = [list(row) for row in mat]
    prev = 1
    for k, row in enumerate(a):
        pivot = row[k]
        if pivot < 0 or (pivot == 0 and any(row[k + 1 :])):
            return False
        if pivot:
            for lower in a[k + 1 :]:
                factor = lower[k]
                for j in range(k + 1, len(a)):
                    lower[j] = (pivot * lower[j] - factor * row[j]) // prev
            prev = pivot
    return True


def _exact_hankel_psd(values: list[Fraction], shifted: bool) -> bool:
    """The Hankel check of m_1..m_D = ``values`` on their dilation to
    integers: the moments c^k m_k of x scaled by c, whose Hankel matrix
    D H D, D = diag(c^i), is PSD exactly when H is."""
    _, ints = dilate(values)
    return all(_integer_psd(h) for h in _hankel_matrices([1, *ints], shifted))


def boolean_cumulants_closed_form(m: list[Fraction]) -> list[Fraction]:
    """The universal low-order formulas for boolean cumulants r_1..r_4."""
    m1, m2, m3, m4 = (Fraction(v) for v in m[:4])
    return [
        m1,
        m2 - m1 ** 2,
        m3 - 2 * m1 * m2 + m1 ** 3,
        m4 - m2 ** 2 - 2 * m1 * m3 + 3 * m1 ** 2 * m2 - m1 ** 4,
    ]


class WordPoly:
    """Minimal noncommutative polynomial: dict from letter tuple to coeff."""

    def __init__(self, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.terms = dict(terms or {})

    @classmethod
    def letter(cls, j: int, coeff=Fraction(1)) -> "WordPoly":
        return cls({(j,): Fraction(coeff)})

    @classmethod
    def scalar(cls, c) -> "WordPoly":
        return cls({(): Fraction(c)})

    def __add__(self, other: "WordPoly") -> "WordPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return WordPoly(out)

    def __mul__(self, other: "WordPoly") -> "WordPoly":
        out: dict[tuple[int, ...], Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return WordPoly(out)

    def trace(self, tau) -> Fraction:
        total = Fraction(0)
        for w, c in self.terms.items():
            if c == 0:
                continue
            total += c * (Fraction(1) if not w else tau(w))
        return total


def _trunc_mul(a: list[Fraction], b: list[Fraction], length: int) -> list[Fraction]:
    out = [Fraction(0)] * length
    for i, ai in enumerate(a[:length]):
        for j, bj in enumerate(b[: length - i]):
            out[i + j] += ai * bj
    return out


def _z_update(r_other: list[Fraction], z_other: list[Fraction], p: int) -> list[Fraction]:
    # New Z coefficients from -x * sum_i r_i * Z_other^(i-1), truncated at x^p.
    s = [Fraction(0)] * p
    s[0] = r_other[0]
    z_poly = [Fraction(0), *z_other[: p - 1]]
    power = [Fraction(1)] + [Fraction(0)] * (p - 1)
    for i in range(2, p + 1):
        power = _trunc_mul(power, z_poly, p)
        if r_other[i - 1] == 0:
            continue
        for d in range(p):
            s[d] += r_other[i - 1] * power[d]
    return [-c for c in s]


def boxtimes_moments_by_passes(
    r1: list[Fraction], r2: list[Fraction], p: int
) -> list[Fraction]:
    """Boolean cumulants of mu_1 boxtimes mu_2 by p full fixed-point passes.

    Takes the factors' boolean cumulants r_1..r_p.  Each pass rebuilds
    every power of the subordination series Z_j(-x) and fixes one more
    coefficient, so the cost is O(p^4); K of the product is K_1(Z_1).
    """
    z1 = [-r2[0]] + [Fraction(0)] * (p - 1)
    z2 = [-r1[0]] + [Fraction(0)] * (p - 1)
    for _ in range(p):
        z1, z2 = _z_update(r2, z2, p), _z_update(r1, z1, p)

    z1_poly = [Fraction(0), *z1]
    power = list(z1_poly)
    kbox = [Fraction(0)] * (p + 1)
    for i in range(1, p + 1):
        if r1[i - 1] != 0:
            for d in range(p + 1):
                kbox[d] += r1[i - 1] * power[d]
        if i < p:
            power = _trunc_mul(power, z1_poly, p + 1)
    return [(-1) ** k * kbox[k] for k in range(1, p + 1)]


def free_from_moments_by_powers(m: list[Fraction]) -> list[Fraction]:
    """Free cumulants from m_n = sum_s kappa_s [z^(n-s)] (1 + M(z))^s.

    Builds every power of 1 + M once by truncated products and solves
    for kappa_n order by order.
    """
    d = len(m)
    mfull = [Fraction(1), *(Fraction(v) for v in m)]
    powers = [None, list(mfull)]
    for _ in range(2, d + 1):
        powers.append(_trunc_mul(powers[-1], mfull, d + 1))
    kappa: list[Fraction] = []
    for n in range(1, d + 1):
        acc = mfull[n]
        for s in range(1, n):
            acc -= kappa[s - 1] * powers[s][n - s]
        kappa.append(acc)
    return kappa


def moments_from_free_by_powers(kappa: list[Fraction]) -> list[Fraction]:
    """The same relation run forward, rebuilding the powers of 1 + M at
    every order n from the moments found so far: O(d^4)."""
    out: list[Fraction] = []
    for n in range(1, len(kappa) + 1):
        mfull = [Fraction(1), *out]
        power = list(mfull)
        acc = Fraction(0)
        for s in range(1, n + 1):
            acc += Fraction(kappa[s - 1]) * power[n - s]
            if s < n:
                power = _trunc_mul(power, mfull, n)
        out.append(acc)
    return out


def moments_from_boolean_float(r: list[float]) -> list[float]:
    """m_k = r_k + sum_{i<k} r_i m_(k-i), accumulated in binary64."""
    ms: list[float] = []
    for k in range(1, len(r) + 1):
        acc = r[k - 1]
        for i in range(1, k):
            acc += r[i - 1] * ms[k - i - 1]
        ms.append(acc)
    return ms


def joint_moment_by_words(spec, marginal, pattern) -> Fraction:
    """Trace of an L/Q pattern by expanding it into all n^d index words.

    Every L becomes its weighted letters and every Q its weighted letter
    pairs, in order.  Words equal up to relabeling the variables have the
    same trace, so each relabeling class is traced once through
    ``nc_moment_by_chains``, with one memo for the call.
    """
    from freeconv.transforms import free_from_moments

    kappa, memo = free_from_moments(marginal), {}
    n = spec.n
    l_options = [(spec.b[j], (j,)) for j in range(n) if spec.b[j] != 0]
    q_options = [
        (spec.a[j][k], (j, k)) for j in range(n) for k in range(n) if spec.a[j][k] != 0
    ]
    factors = [name for name, exp in pattern for _ in range(exp)]
    grouped: dict[tuple[int, ...], Fraction] = {}
    for combo in product(*[l_options if f == "L" else q_options for f in factors]):
        coeff = Fraction(1)
        first_seen: dict[int, int] = {}
        letters = []
        for c, ls in combo:
            coeff *= c
            letters += [first_seen.setdefault(l, len(first_seen) + 1) for l in ls]
        key = tuple(letters)
        grouped[key] = grouped.get(key, Fraction(0)) + coeff
    return sum(
        (
            c * nc_moment_by_chains([kappa] * max(w), [l - 1 for l in w], memo)
            for w, c in grouped.items()
            if c != 0
        ),
        start=Fraction(0),
    )


def joint_moment_by_einsum(spec, marginal, pattern) -> Fraction:
    """Trace of an L/Q pattern as a sum over the NC partitions of its
    positions, each contracted over all n^|pi| index assignments by one
    object-array ``np.einsum`` in integer arithmetic."""
    from freeconv.characterize import _normalize_pattern, pattern_degree
    from freeconv.transforms import free_from_moments

    pattern = _normalize_pattern(pattern)
    degree = pattern_degree(pattern)
    kappa = free_from_moments(marginal)
    den = math.lcm(*(v.denominator for v in (*spec.b, *chain.from_iterable(spec.a))))
    b = np.array([int(v * den) for v in spec.b], dtype=object)
    a = np.array([[int(v * den) for v in row] for row in spec.a], dtype=object)
    factors = [name for name, exp in pattern for _ in range(exp)]
    operands = [b if name == "L" else a for name in factors]
    starts = list(accumulate((1 if name == "L" else 2 for name in factors), initial=0))

    total = Fraction(0)
    index = [""] * degree
    for blocks in nc_blocks(tuple(range(degree)), kappa):
        weight = Fraction(1)
        for letter, block in zip(ascii_letters, blocks):
            weight *= kappa[len(block) - 1]
            for position in block:
                index[position] = letter
        subscripts = ",".join("".join(index[s:e]) for s, e in zip(starts, starts[1:]))
        total += weight * np.einsum(subscripts + "->", *operands)
    return total / den ** len(factors)


def nc_blocks(elements: tuple[int, ...], kappa=None):
    """Yield every non-crossing partition of ``elements`` once, as a list
    of blocks in increasing order of their first element.

    The block of elements[0] splits the rest into independent gaps.  With
    kappa, partitions with a block of size s where kappa[s - 1] == 0 are
    skipped: they add nothing to a cumulant sum.
    """

    def partitions(elements):
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

    def product_of_gap_partitions(gaps):
        if not gaps:
            yield []
            return
        head, tail = gaps[0], gaps[1:]
        for head_blocks in partitions(head):
            for tail_blocks in product_of_gap_partitions(tail):
                yield [*head_blocks, *tail_blocks]

    return partitions(elements)


def contract_blocks(blocks, factors, b, a) -> int:
    """Sum over one index per block of the product of an L/Q pattern's
    integer coefficients, by eliminating the blocks of the block graph.

    ``blocks`` come in increasing order of their first position, as
    ``nc_blocks`` yields them.  ``factors`` lists each letter with its
    first position: b at an L, a at the two positions of a Q.  Block V
    carries the unary weight b^(number of L in V) times a_jj for every Q
    with both positions in V (None stands for all ones), and every Q
    whose positions lie in blocks U != V is an n x n edge between them,
    parallel edges multiplying entrywise.  Blocks are eliminated in
    decreasing order of their first position.  A block of degree 0
    multiplies the result by the sum of its weights, one of degree 1
    folds into its neighbour's weight, and one of degree 2 becomes the
    n x n matrix product edge between its two neighbours, O(n^3).  Each
    partition so costs O(|pi| n^3), not the n^|pi| of summing over every
    index assignment.

    No block of a non-crossing partition ever has degree above 2.  Put
    the positions on a circle and join consecutive elements of each block
    by a chord: the chords of a non-crossing partition do not cross, so
    with the circle's arcs they form an outerplanar graph.  Every Q joins
    adjacent positions, an arc, so the block graph is a minor of it
    (contract the chords, drop the other arcs).  Outerplanar graphs are
    closed under minors and have a vertex of degree at most 2;
    eliminating it deletes it (degree 0 or 1) or contracts one of its
    edges (degree 2), so one always remains.  The order above always
    picks such a vertex: every block still present when V's turn comes
    lies left of V or encloses it, so V's positions are consecutive among
    the positions present.  Edges only ever join consecutive present
    positions (a Q joins adjacent ones, and eliminating a block joins the
    two positions around it), so V has at most the two neighbours just
    outside its run.  Meeting a higher degree, as a crossing partition
    can, raises RuntimeError.
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


def _join(edges: list[dict], v: int, u: int, matrix) -> None:
    """Add an edge from v to u (rows index j_v), entrywise onto any present."""
    present = edges[v].get(u)
    if present is not None:
        matrix = [list(map(mul, p, m)) for p, m in zip(present, matrix)]
    edges[v][u] = matrix
    edges[u][v] = [list(col) for col in zip(*matrix)]


def letter_starts(letters) -> list[tuple[str, int]]:
    """Each letter of an L/Q word with its first position."""
    letters = list(letters)
    return list(zip(letters, accumulate((1 if x == "L" else 2 for x in letters), initial=0)))


def nc_sum_by_enumeration(spec, kappa, letters, lone_q: bool) -> Fraction:
    """The non-crossing sum of an L/Q word with free cumulants ``kappa``,
    one partition at a time: every partition from ``nc_blocks``,
    contracted by ``contract_blocks`` in integers.  With ``lone_q``, every
    partition in which a Q's two positions form a block is skipped."""
    den = math.lcm(*(v.denominator for v in (*spec.b, *chain.from_iterable(spec.a))))
    b = [int(v * den) for v in spec.b]
    a = [[int(v * den) for v in row] for row in spec.a]
    factors = letter_starts(letters)
    banned = {(s, s + 1) for name, s in factors if name == "Q"} if lone_q else set()
    degree = sum(1 if name == "L" else 2 for name, _ in factors)

    # Partitions with the same block sizes share their cumulant weight, so
    # their integer contractions are summed before it multiplies them.
    by_sizes: dict[tuple[int, ...], int] = {}
    for blocks in nc_blocks(tuple(range(degree)), kappa):
        if banned.isdisjoint(blocks):
            sizes = tuple(sorted(map(len, blocks)))
            by_sizes[sizes] = by_sizes.get(sizes, 0) + contract_blocks(blocks, factors, b, a)
    total = Fraction(0)
    for sizes, value in by_sizes.items():
        weight = Fraction(value)
        for size in sizes:
            weight *= kappa[size - 1]
        total += weight
    return total / den ** len(factors)


def _offdiagonal_norms(stack: np.ndarray) -> np.ndarray:
    # Summing the off-diagonal entries directly; total minus diagonal
    # would cancel catastrophically near convergence.
    off = np.array(stack, copy=True)
    idx = np.arange(off.shape[-1])
    off[..., idx, idx] = 0.0
    return np.sqrt(np.sum(off * off, axis=(-2, -1)))


def _jacobi_batch(stack: np.ndarray, tol: float, max_sweeps: int) -> np.ndarray:
    a = np.array(stack, dtype=float, copy=True)
    if a.ndim == 2:
        a = a[None, :, :]
    _, n, n2 = a.shape
    if n != n2:
        raise DomainError("Jacobi needs square matrices")
    for _ in range(max_sweeps):
        if np.all(_offdiagonal_norms(a) < tol):
            return np.sort(np.einsum("bii->bi", a), axis=1)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[:, p, q]
                active = np.abs(apq) > 0.0
                if not np.any(active):
                    continue
                theta = np.zeros_like(apq)
                np.divide(
                    a[:, q, q] - a[:, p, p],
                    2.0 * apq,
                    out=theta,
                    where=active,
                )
                # theta may overflow to inf for denormal pivots; the rotation
                # then degenerates to the identity, which is what we want.
                with np.errstate(over="ignore"):
                    t = np.where(
                        active,
                        np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0)),
                        0.0,
                    )
                t = np.where(active & (theta == 0.0), 1.0, t)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp = a[:, p, :].copy()
                rq = a[:, q, :].copy()
                a[:, p, :] = c[:, None] * rp - s[:, None] * rq
                a[:, q, :] = s[:, None] * rp + c[:, None] * rq
                cp = a[:, :, p].copy()
                cq = a[:, :, q].copy()
                a[:, :, p] = c[:, None] * cp - s[:, None] * cq
                a[:, :, q] = s[:, None] * cp + c[:, None] * cq
        a = (a + np.swapaxes(a, -1, -2)) / 2.0
    raise ConvergenceError(f"Jacobi sweep limit {max_sweeps} hit before off-norm < {tol}")


def jacobi_eigenvalues(
    matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> np.ndarray:
    """Eigenvalues of a symmetric matrix (or stack) by cyclic Jacobi.

    Returns sorted eigenvalues; shape (n,) for a single matrix and
    (batch, n) for a stack.
    """
    arr = np.asarray(matrix, dtype=float)
    single = arr.ndim == 2
    vals = _jacobi_batch(arr, tol, max_sweeps)
    return vals[0] if single else vals


def dense_goe(n: int, rng: np.random.Generator, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Standardized GOE matrices drawn in full, (A + A^T) / sqrt(2N) with
    A i.i.d. standard normal, stacked over the leading shape ``batch``."""
    a = rng.standard_normal(batch + (n, n))
    return (a + np.swapaxes(a, -1, -2)) / math.sqrt(2.0 * n)


def dense_word_trace(family, letters) -> float:
    """tau of a word on dense symmetric members, by the product chain the
    Monte Carlo estimator ran before it kept member 1 compact: every letter
    but the last multiplied in order, closed by one dot product."""
    mats = [family[l - 1] for l in letters]
    if len(mats) == 1:
        return float(np.trace(mats[0])) / mats[0].shape[0]
    head = mats[0]
    for m in mats[1:-1]:
        head = head @ m
    # tau(AB) = sum(A * B^T) / N, and every member is symmetric
    return float(np.vdot(head, mats[-1])) / head.shape[0]


def _tail_product(mats, start: int):
    """Ordered product of ``mats[start:]``, or None when that is empty."""
    out = None
    for m in mats[start:]:
        out = m if out is None else out @ m
    return out


def _norm_from_sigma(sigma: np.ndarray, p: float) -> float:
    return float(np.mean(sigma ** p) ** (1.0 / p))


def verify_inequalities_by_tuple(tuples, exponents, p_minkowski: float = 4.0, slack: float = 1e-9):
    """The L^p inequality sweep one tuple at a time: every matrix goes on
    one list, a single ``singular_values`` call takes the whole stack, and
    a per-tuple loop reads each norm back through its list index.
    Violations come tuple-major."""
    from freeconv.matrix_lab import InequalityReport, singular_values

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

    n = tuples[0][0].shape[0]
    stack: list[np.ndarray] = []

    def push(mat: np.ndarray) -> int:
        stack.append(mat)
        return len(stack) - 1

    layout = []
    for mats in tuples:
        product = mats[0]
        for m in mats[1:]:
            product = product @ m
        pair01 = mats[0] @ mats[1] if k >= 2 else None
        pair10 = mats[1] @ mats[0] if k >= 2 else None
        pair12 = mats[1] @ mats[2] if k >= 3 else None
        entry = {
            "singles": [push(m) for m in mats],
            "product": push(product),
            "sum": push(sum(mats[1:], start=mats[0].copy())),
            "trace": float(np.trace(product)) / n,
        }
        if pair01 is not None:
            entry["pair01"] = push(pair01)
            entry["pair10"] = push(pair10)
            word59 = mats[0] @ pair01
            tail = _tail_product(mats, 2)
            entry["word59"] = push(word59 if tail is None else word59 @ tail)
        if pair12 is not None:
            entry["pair12"] = push(pair12)
            entry["word513"] = push(mats[0] @ mats[1] @ pair12)
        layout.append(entry)

    sigma = singular_values(np.array(stack))

    def lp(idx: int, p: float) -> float:
        return _norm_from_sigma(sigma[idx], p)

    checks = 0
    margin = -math.inf
    violations: list[str] = []
    families: dict[str, int] = {}

    def record(family: str, lhs: float, rhs: float, label: str):
        nonlocal checks, margin
        checks += 1
        families[family] = families.get(family, 0) + 1
        margin = max(margin, lhs - rhs)
        if lhs > rhs + slack:
            violations.append(f"{family}: {label}: {lhs!r} > {rhs!r}")

    for i, entry in enumerate(layout):
        singles = entry["singles"]
        holder_rhs = 1.0
        for idx, p in zip(singles, exponents):
            holder_rhs *= lp(idx, p)
        record("holder-trace", abs(entry["trace"]), holder_rhs, f"tuple {i}")
        record("holder-product", lp(entry["product"], 1.0), holder_rhs, f"tuple {i}")

        mink_lhs = lp(entry["sum"], p_minkowski)
        mink_rhs = sum(lp(idx, p_minkowski) for idx in singles)
        record("minkowski", mink_lhs, mink_rhs, f"tuple {i}")

        if "pair01" in entry:
            opn = float(sigma[singles[0]].max())
            xnorm = lp(singles[1], p_minkowski)
            record("ideal", lp(entry["pair01"], p_minkowski), opn * xnorm, f"tuple {i} ax")
            record("ideal", lp(entry["pair10"], p_minkowski), opn * xnorm, f"tuple {i} xa")

            # chain for x_0^2 x_1 x_2 ... x_{k-1}: letter count k+1, d = k
            d = float(k)
            rhs = lp(singles[0], d) * lp(entry["pair01"], d)
            for idx in singles[2:]:
                rhs *= lp(idx, d)
            record("chain-even", lp(entry["word59"], 1.0), rhs, f"tuple {i}")

        if "pair12" in entry:
            rhs = lp(entry["pair01"], 2.0) * lp(entry["pair12"], 2.0)
            record("chain-grouped", lp(entry["word513"], 1.0), rhs, f"tuple {i}")

    return InequalityReport(
        checks=checks,
        violations=tuple(violations),
        max_margin=margin,
        families=families,
    )


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value."""
    from freeconv.matrix_lab import singular_values

    return float(singular_values(matrix).max())


def absolute_moment(mu, alpha: int) -> Fraction:
    """Exact absolute moment of integer order: integral of |x|^alpha d mu."""
    from freeconv.measures import Atomic, DensityGrid, Semicircle, as_fraction
    from freeconv.measures import is_positive_supported, moments

    if alpha < 0:
        raise DomainError("absolute moment order must be >= 0")
    if alpha == 0:
        return Fraction(1)
    if isinstance(mu, Atomic):
        return sum((w * abs(loc) ** alpha for loc, w in mu.atoms), start=Fraction(0))
    if isinstance(mu, Semicircle):
        if is_positive_supported(mu):
            return moments(mu, alpha).m(alpha)
        raise DomainError("exact absolute moments only for positively supported semicircles")
    if isinstance(mu, DensityGrid):
        return as_fraction(float(np.trapezoid(mu.f * np.abs(mu.x) ** alpha, mu.x)))
    raise TypeError(f"not a measure: {mu!r}")


def weight_at(mu, location) -> Fraction:
    """The exact weight of an atomic measure at ``location``, 0 off its atoms."""
    from freeconv.measures import as_fraction

    loc = as_fraction(location)
    return next((w for x, w in mu.atoms if x == loc), Fraction(0))


def psi(mu, z: complex) -> complex:
    """Moment generating transform: integral of z*x/(1 - z*x) d mu(x), a sum
    over the float atoms, behind the library's gate and axis check."""
    from freeconv.measures import AXIS_TOLERANCE, float_measures

    float_measures(mu, support="transform evaluation requires support in [0, inf)",
                   semicircle="transform evaluation is not supported for semicircle measures; "
                   "they participate through moments only")
    z = complex(z)
    if abs(z.imag) <= AXIS_TOLERANCE * abs(z) and z.real >= 0.0:
        raise DomainError(f"evaluation point {z} lies on [0, inf)")
    return sum(w * z * loc / (1.0 - z * loc) for loc, w in mu.float_atoms)


def psi_exact(mu, x) -> Fraction:
    """Exact psi at a rational point off [0, inf), for atomic measures."""
    from freeconv.measures import Atomic, as_fraction, is_positive_supported

    if not isinstance(mu, Atomic):
        raise DomainError("exact transform evaluation needs an atomic measure")
    if not is_positive_supported(mu):
        raise DomainError("transform evaluation requires support in [0, inf)")
    xq = as_fraction(x)
    if xq >= 0:
        raise DomainError(f"evaluation point {xq} lies on [0, inf)")
    return sum((w * xq * loc / (1 - xq * loc) for loc, w in mu.atoms), start=Fraction(0))


def krein_k_exact(mu, x) -> Fraction:
    """Exact Krein transform K = psi / (1 + psi) at a rational point, for
    atomic measures."""
    p = psi_exact(mu, x)
    if p == -1:
        raise DomainError(f"K has a pole at x={x}")
    return p / (1 + p)


@dataclass(frozen=True)
class KreinExpansionReport:
    """Ratio table for |K(-x) - poly_p(x)| / x^p on a dyadic grid."""

    p: int
    xs: tuple[float, ...]
    ratios: tuple[float, ...]
    burn_in: int
    passed: bool


def krein_expansion_check(mu, m, p: int, grid_size: int = 24, burn_in: int = 4):
    """Check that K(-x) matches its boolean-cumulant polynomial to order p.

    Evaluates E(x) = K(-x) - sum_{k<=p} (-1)^k r_k x^k on the grid
    x = 2^-i and requires |E(x)|/x^p to decay monotonically once the
    first ``burn_in`` points are discarded (the expansion is asymptotic,
    so early grid points are uninformative).  Atomic measures are
    evaluated in exact rational arithmetic, so the monotonicity verdict
    is certified rather than estimated.
    """
    from freeconv.measures import Atomic, in_m_plus, krein_k
    from freeconv.transforms import boolean_from_moments

    if p < 1:
        raise DomainError("expansion order must be >= 1")
    if m.order < p:
        raise DomainError(f"need moments to order {p}, got {m.order}")
    if not in_m_plus(mu):
        raise DomainError("expansion check requires a measure in M+")
    if grid_size <= burn_in + 2:
        raise DomainError("grid too short for the burn-in")
    r = boolean_from_moments(m)[:p]
    signed = [(-1) ** k * r[k - 1] for k in range(1, p + 1)]

    xs: list[float] = []
    ratios: list = []
    exact = isinstance(mu, Atomic)
    for i in range(grid_size):
        if exact:
            x = Fraction(1, 2 ** i)
            kval = krein_k_exact(mu, -x)
            poly = sum(signed[k - 1] * x ** k for k in range(1, p + 1))
            ratios.append(abs(kval - poly) / x ** p)
            xs.append(float(x))
        else:
            x = 2.0 ** -i
            if x ** p == 0.0:
                raise ConvergenceError("grid underflow before the ratio decayed")
            kval = krein_k(mu, complex(-x)).real
            poly = sum(float(signed[k - 1]) * x ** k for k in range(1, p + 1))
            ratios.append(abs(kval - poly) / x ** p)
            xs.append(x)

    tail = ratios[burn_in:]
    monotone = all(b <= a for a, b in zip(tail, tail[1:]))
    decayed = tail[-1] == 0 or tail[-1] < tail[0]
    passed = monotone and (decayed or all(t == 0 for t in tail))
    return KreinExpansionReport(
        p=p,
        xs=tuple(xs),
        ratios=tuple(float(t) for t in ratios),
        burn_in=burn_in,
        passed=passed,
    )


def scipy_quad(func, a: float, b: float) -> tuple[float, float]:
    """``scipy.integrate.quad`` (QUADPACK's adaptive Gauss-Kronrod) at the
    tolerances the library once asked of it, for a scalar integrand."""
    from scipy.integrate import quad

    return quad(func, a, b, epsabs=1e-10, epsrel=1e-10, limit=200)


def quad_numpy(func, a: float, b: float, tol: float = 1e-10) -> tuple[float, float]:
    """The tanh-sinh rule over numpy arrays: ``func`` maps an array of nodes
    to an array of values, and each level is one ``np.dot``.  Same nodes,
    levels, stopping rule and error estimate as ``convolution.quad``."""
    from freeconv.convolution import TANH_SINH_LEVELS, TANH_SINH_T

    c, r = 0.5 * (a + b), 0.5 * (b - a)

    def weighted_sum(t: np.ndarray) -> float:
        e = np.exp(-math.pi * np.sinh(t))
        dist = 2.0 * r * e / (1.0 + e)
        weight = 2.0 * math.pi * r * np.cosh(t) * e / (1.0 + e) ** 2
        values = func(np.concatenate((a + dist, b - dist)))
        return float(np.dot(np.concatenate((weight, weight)), values))

    h = 0.5
    total = 0.5 * math.pi * r * float(func(np.array([c]))[0]) + weighted_sum(
        np.arange(1, int(TANH_SINH_T / h) + 1) * h
    )
    value = h * total
    for _ in range(TANH_SINH_LEVELS):
        h *= 0.5
        total += weighted_sum(np.arange(1, int(TANH_SINH_T / h) + 1, 2) * h)
        previous, value = value, h * total
        error = abs(value - previous)
        if not math.isfinite(value):
            return value, math.inf
        if error <= tol:
            break
    return value, error


#: The probe cutoffs, nearest to 0 last.
PROBE_CUTOFFS = (1e-6, 5e-7, 2.5e-7)


def fractional_probes(mu, alpha: float) -> list[float]:
    """The partial integrals of -K(-x) x^(-1-alpha) over [eps, 1] for each
    of ``PROBE_CUTOFFS``, by the library's rule to 1e-10, each with the
    error bound 1e-8 max(1, m_1) that the diagnostics' remainder integral
    keeps."""
    from freeconv.convolution import quad
    from freeconv.measures import _krein

    atoms = mu.float_atoms
    bound = 1e-8 * max(1.0, mu.float_mean)

    def raw(x: float) -> float:
        return -_krein(atoms, -x) * x ** (-1.0 - alpha)

    probes = []
    for eps in PROBE_CUTOFFS:
        value, error = quad(raw, eps, 1.0, 1e-10)
        if not error <= bound:
            raise ConvergenceError(
                f"quadrature error {error:.2e} on [{eps:.3g}, 1] exceeds {bound:.3g}")
        probes.append(value)
    return probes


def probe_verdict(mu, alpha: float) -> str:
    """The verdict rule of the probes: "finite" when the last two probes
    agree within max(1e-6, 2 t), t = m_1 (1e-6)^(1-alpha)/(1-alpha), and
    the diagnostics' integral is finite, else "infinite-indicated"."""
    from freeconv.convolution import fractional_diagnostics

    probes = fractional_probes(mu, alpha)
    tail_scale = mu.float_mean * (1e-6) ** (1.0 - alpha) / (1.0 - alpha)
    stable = abs(probes[2] - probes[1]) <= max(1e-6, 2 * tail_scale)
    finite = math.isfinite(fractional_diagnostics(mu, alpha).integral_value)
    return "finite" if stable and finite else "infinite-indicated"


def krein_on_negative_axis_vectorized(mu):
    """x -> K(-x) of an atomic measure on an array of x > 0, as one float
    expression over all nodes and atoms."""
    locs, weights = np.array(mu.float_atoms).T

    def evaluate(x: np.ndarray) -> np.ndarray:
        spread = 1.0 + np.multiply.outer(x, locs)
        return -x * ((weights * locs) / spread).sum(axis=1) / (weights / spread).sum(axis=1)
    return evaluate


def fit_boolean_cumulants_numpy(mu1, mu2, n_coeffs: int) -> list[float]:
    """The subordination contour fit with its mean taken by numpy over all
    ``FIT_POINTS`` nodes, the lower half mirrored from the solved upper
    half."""
    from freeconv.convolution import FIT_POINTS, FIT_TOL, solve_subordination

    # half the reciprocal of the product of the top atoms, capped at 0.25
    radius = min(0.25, 0.5 / (mu1.float_atoms[-1][0] * mu2.float_atoms[-1][0]))
    upper = []
    for m in range(FIT_POINTS // 2):
        angle = 2.0 * math.pi * (m + 0.5) / FIT_POINTS
        z = radius * complex(math.cos(angle), math.sin(angle))
        upper.append(solve_subordination(mu1, mu2, z, tol=FIT_TOL, max_iter=2000).k_value)
    k_values = np.array(upper + [v.conjugate() for v in reversed(upper)])
    zs = radius * np.exp(2j * math.pi * (np.arange(FIT_POINTS) + 0.5) / FIT_POINTS)
    return [float(np.mean(k_values * zs ** (-k)).real) for k in range(1, n_coeffs + 1)]


def _grid_arrays(grid) -> tuple[np.ndarray, np.ndarray]:
    return np.array(grid.x), np.array(grid.f)


def grid_moments_trapezoid(grid, order: int) -> list[float]:
    """Grid moments m_1..m_order by numpy's composite trapezoid rule."""
    x, f = _grid_arrays(grid)
    return [float(np.trapezoid(f * x ** k, x)) for k in range(1, order + 1)]


def grid_krein_trapezoid(grid, z: complex) -> complex:
    """K(z) = z E[x/(1 - z x)] / E[1/(1 - z x)] of a grid, each mean by the
    trapezoid rule over all its nodes."""
    x, f = _grid_arrays(grid)
    # a node with f = 0 may sit at x = 1/z
    spread = np.where(f > 0, 1.0 - z * x, 1.0)
    return complex(z * np.trapezoid(f * x / spread, x) / np.trapezoid(f / spread, x))


def grid_fractional_moment_trapezoid(grid, alpha: float) -> float:
    x, f = _grid_arrays(grid)
    return float(np.trapezoid(f * np.where(x > 0, x, 0.0) ** alpha, x))


def grid_c_mu_trapezoid(grid) -> float:
    """1 / integral of 1/(1+u) over a grid in M+, by the trapezoid rule."""
    x, f = _grid_arrays(grid)
    # a node with f = 0 may sit at x = -1
    integrand = np.divide(f, 1.0 + x, out=np.zeros_like(f), where=f > 0)
    return float(1.0 / np.trapezoid(integrand, x))


def grid_moment_below_one_trapezoid(grid, alpha: float) -> float:
    """The diagnostics' inner sum: integral of u^alpha over (0, 1)."""
    x, f = _grid_arrays(grid)
    mask = (x > 0) & (x < 1)
    return float(np.trapezoid(f * np.where(mask, np.where(mask, x, 0.0) ** alpha, 0.0), x))


def singular_values_by_gram(matrix: np.ndarray) -> np.ndarray:
    """Ascending singular values as square roots of the symmetric
    eigenvalues of x^T x; a small one is good only to about sqrt(eps)."""
    arr = np.asarray(matrix, dtype=float)
    gram = np.swapaxes(arr, -1, -2) @ arr
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))


def compose(outer, inner) -> tuple[Fraction, ...]:
    """Series composition outer(inner(z)) on coefficient sequences
    c_1..c_D; inner has zero constant term."""
    from freeconv.transforms import fill_power_degree, power_table

    if len(outer) != len(inner):
        raise DomainError(f"series order mismatch: {len(outer)} vs {len(inner)}")
    d = len(outer)
    pw = power_table(d)
    pw[1][1:] = map(Fraction, inner)
    for deg in range(1, d + 1):
        fill_power_degree(pw, deg)
    return tuple(
        sum((c * pw[j][deg] for j, c in enumerate(outer, 1)), start=Fraction(0))
        for deg in range(1, d + 1)
    )


def consistent_with_free(report) -> bool:
    """Whether a DichotomyReport found every deviation zero."""
    return report.verdict == "consistent-with-free"


def _expand_centered_product(centers, trace_of) -> Fraction:
    """Trace of prod_i (W_i - c_i), expanded over subsets of dropped factors.

    ``trace_of(kept)`` returns the trace of the ordered product of the
    factors W_i for i in ``kept`` (never empty).  Factors whose center
    vanishes never contribute a dropped term.
    """
    droppable = [i for i, c in enumerate(centers) if c != 0]
    total = Fraction(0)
    for k in range(len(droppable) + 1):
        for dropped in combinations(droppable, k):
            coeff = Fraction(1)
            for i in dropped:
                coeff *= -centers[i]
            kept = tuple(i for i in range(len(centers)) if i not in dropped)
            total += coeff * (trace_of(kept) if kept else Fraction(1))
    return total


def dichotomy_deviations_by_expansion(spec, marginal, max_word_length):
    """(pattern, deviation) for every alternating pattern: the centered
    trace expanded over the subsets of its centered letters, one
    ``joint_moment`` per uncentered sub-pattern, minus the same centered
    pattern traced in a free pair with the moment sequences of L and Q."""
    from freeconv.characterize import alternating_form_patterns, form_moments, joint_moment
    from freeconv.word_engine import centered_product_moment

    patterns = alternating_form_patterns(max_word_length)
    if not patterns:
        return ()
    centers = {name: joint_moment(spec, marginal, ((name, 1),)) for name in "LQ"}
    max_l = max(sum(1 for n, _ in p if n == "L") for p in patterns)
    max_q = max(sum(1 for n, _ in p if n == "Q") for p in patterns)
    l_moments = form_moments(spec, marginal, "L", max(max_l, 1))
    q_moments = form_moments(spec, marginal, "Q", max(max_q, 1))
    deviations = []
    for pattern in patterns:
        true_value = _expand_centered_product(
            [centers[name] for name, _ in pattern],
            lambda kept: joint_moment(spec, marginal, [pattern[i] for i in kept]),
        )
        letters = tuple((1 if name == "L" else 2, 1) for name, _ in pattern)
        predicted = centered_product_moment((l_moments, q_moments), letters)
        deviations.append((pattern, true_value - predicted))
    return tuple(deviations)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeconv",
        description="moment-level free convolution toolkit",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker cap (falls back to FREECONV_THREADS, then 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("moments", help="moments of a measure")
    p.add_argument("measure")
    p.add_argument("--order", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("cumulants", help="boolean or free cumulants of a measure")
    p.add_argument("measure")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--kind", choices=("boolean", "free"), default="boolean")
    add_output_flags(p)
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("boxplus", help="additive free convolution")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--order", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=cmd_boxplus)

    p = sub.add_parser("boxtimes", help="multiplicative free convolution")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("taylor", "subordination", "oracle", "all"),
        default="taylor",
    )
    add_output_flags(p)
    p.set_defaults(func=cmd_boxtimes)

    p = sub.add_parser("subordinate", help="solve the subordination equations")
    p.add_argument("mu1")
    p.add_argument("mu2")
    p.add_argument("--z", help="evaluation point 're' or 're,im'")
    p.add_argument("--grid", type=int, default=31, help="points z=-10^(-k/10)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=500)
    add_output_flags(p)
    p.set_defaults(func=cmd_subordinate)

    p = sub.add_parser("diagnose", help="fractional moment sandwich")
    p.add_argument("measure")
    p.add_argument("--alpha", type=float, required=True)
    add_output_flags(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("characterize", help="freeness dichotomy for (L, Q)")
    p.add_argument("spec", nargs="?", help="form spec JSON file")
    p.add_argument("marginal", help="marginal measure JSON file")
    p.add_argument("--preset", choices=("mean-variance",))
    p.add_argument("--n", type=int, default=2, help="variable count for the preset")
    p.add_argument("--max-len", type=int, default=8)
    add_output_flags(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("matrixlab", help="Monte Carlo word trace")
    p.add_argument("--word", required=True, help='word text, e.g. "T1 T2 T1 T2"')
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ensemble", choices=("goe", "diagonal"), default="goe")
    p.add_argument("--measure", help="atomic measure JSON for diagonal ensembles")
    add_output_flags(p)
    p.set_defaults(func=cmd_matrixlab)

    return parser
