"""Mixed moments of free families via monochromatic non-crossing partitions.

For free variables T_1..T_m with known marginal moments, the trace of a
word T_{j_1}...T_{j_n} equals the sum over non-crossing partitions of
{1..n} whose blocks are monochromatic in the variable index, of the
product of free cumulants kappa_{|V|} of the block's variable.  The sum
is evaluated by recursing on the block containing the leftmost letter;
partitions are never materialized and per-variable cumulants are reused.

That block is a chain of positions carrying the leftmost letter's
variable, and the letters strictly between two consecutive chain
elements (or after the last one) form an independent gap word.  With m
such positions, a dynamic program over the chain sums, for each
position and chain length s, the gap products of every chain ending
there; closing a chain of length s multiplies by kappa_s and the tail
gap.  A word thus costs O(m^2) gap moments and O(m^3) multiplications
instead of one term per subset of its 2^(m-1) candidate blocks.  A gap
is itself a word, so gap moments share the one word memo, keyed by the
word with its variables relabeled by first occurrence plus their
cumulant ids.  The key names a word's value, not the order in which
its sum is taken, so it needs nothing from the dynamic program.

Results are exact rationals, so a trace that should vanish, such as an
alternating product of centered free variables, comes out exactly 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DomainError, ParseError
from .measures import MomentSequence, Value
from .transforms import free_from_moments

__all__ = [
    "Word",
    "mixed_moment",
    "centered_product_moment",
    "clear_cache",
]


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

_LETTER_RE = re.compile(r"^T(\d+)(?:\^(\d+))?$")


class Word(Value):
    """Word in noncommuting variables, flattened to exponent-1 letters."""

    letters: tuple[int, ...]

    def __init__(self, letters: Iterable[int]):
        ls = tuple(int(l) for l in letters)
        if not ls:
            raise DomainError("a word needs length >= 1")
        if any(l < 1 for l in ls):
            raise DomainError("variable indices are 1-based")
        object.__setattr__(self, "letters", ls)

    @classmethod
    def from_exponents(cls, pairs: Iterable[tuple[int, int]]) -> "Word":
        letters: list[int] = []
        for var, exp in pairs:
            if exp < 1:
                raise DomainError("exponents must be >= 1")
            letters.extend([var] * exp)
        return cls(letters)

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Parse "T1^2 T2 T1" style notation (whitespace-separated)."""
        pairs: list[tuple[int, int]] = []
        for token in text.split():
            match = _LETTER_RE.match(token)
            if not match:
                raise ParseError(f"bad word letter: {token!r}")
            var = int(match.group(1))
            exp = int(match.group(2) or 1)
            if var < 1 or exp < 1:
                raise ParseError(f"bad word letter: {token!r}")
            pairs.append((var, exp))
        if not pairs:
            raise ParseError("empty word")
        return cls.from_exponents(pairs)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.letters)))

    def multiplicity(self, var: int) -> int:
        return sum(1 for l in self.letters if l == var)

    def as_text(self) -> str:
        parts = []
        for var, exp in _run_lengths(self.letters):
            parts.append(f"T{var}" if exp == 1 else f"T{var}^{exp}")
        return " ".join(parts)


def _run_lengths(letters: Sequence[int]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for l in letters:
        if out and out[-1][0] == l:
            out[-1] = (l, out[-1][1] + 1)
        else:
            out.append((l, 1))
    return out


# ---------------------------------------------------------------------------
# the moment engine
# ---------------------------------------------------------------------------

_CUMULANT_CACHE: dict[MomentSequence, int] = {}
_KAPPA_VALUES: list[tuple[Fraction, ...]] = []
_MOMENT_CACHE: dict[tuple, Fraction] = {}


def clear_cache() -> None:
    """Drop all memoized cumulants and word moments."""
    _CUMULANT_CACHE.clear()
    _KAPPA_VALUES.clear()
    _MOMENT_CACHE.clear()


def _cumulants_of(marginal: MomentSequence) -> int:
    """Free-cumulant id of a marginal; memo keys stay small integers.

    Moments and free cumulants of one order determine each other, so
    keying by the marginal already gives equal cumulants one id.
    """
    kid = _CUMULANT_CACHE.get(marginal)
    if kid is None:
        kid = len(_KAPPA_VALUES)
        _KAPPA_VALUES.append(free_from_moments(marginal))
        _CUMULANT_CACHE[marginal] = kid
    return kid


def _canonical(kappa_ids: Sequence[int], letters: Sequence[int]):
    """Relabel variables by first occurrence so equivalent words share cache."""
    mapping: dict[int, int] = {}
    order: list[int] = []
    relabeled = []
    for l in letters:
        if l not in mapping:
            mapping[l] = len(order)
            order.append(l)
        relabeled.append(mapping[l])
    return tuple(kappa_ids[v] for v in order), tuple(relabeled)


def _nc_moment(kappa_ids: tuple[int, ...], letters: tuple[int, ...]) -> Fraction:
    # letters are canonical: variable of letters[0] is 0.  The block of
    # position 0 is a chain same[0] < same[i] < ...; chains[i][s] sums the
    # gap products of every chain ending at same[i] with s elements.  A
    # zero gap is never extended, so the gaps after it are not evaluated.
    if not letters:
        return Fraction(1)
    key = (kappa_ids, letters)
    hit = _MOMENT_CACHE.get(key)
    if hit is not None:
        return hit
    kv = _KAPPA_VALUES[kappa_ids[0]]
    same = [i for i, l in enumerate(letters) if l == 0]
    n = len(letters)
    # no chain grows past the largest block size, at most len(kv), whose
    # cumulant is nonzero
    top = max((s for s in range(1, min(len(same), len(kv)) + 1) if kv[s - 1]), default=0)

    def gap(a: int, b: int) -> Fraction:
        return _nc_moment(*_canonical(kappa_ids, letters[a + 1 : b])) if b > a + 1 else Fraction(1)

    chains: list[dict[int, Fraction]] = [{} for _ in same]
    chains[0][1] = Fraction(1)
    total = Fraction(0)
    for i, start in enumerate(same):
        sums = chains[i]
        closed = sum(kv[s - 1] * w for s, w in sums.items() if kv[s - 1])
        if closed:
            total += closed * gap(start, n)
        growing = [(s + 1, w) for s, w in sums.items() if s < top]
        if not growing:
            continue
        for j in range(i + 1, len(same)):
            between = gap(start, same[j])
            if not between:
                continue
            ahead = chains[j]
            for s, w in growing:
                ahead[s] = ahead[s] + between * w if s in ahead else between * w
    _MOMENT_CACHE[key] = total
    return total


def mixed_moment(marginals: Sequence[MomentSequence], word: Word) -> Fraction:
    """Trace of a word in free variables with the given marginal moments.

    ``marginals[j-1]`` supplies the moments of variable T_j.  Each
    marginal must cover the multiplicity of its variable in the word.
    """
    nvars = max(word.letters)
    if len(marginals) < nvars:
        raise DomainError(f"word uses T{nvars} but only {len(marginals)} marginals given")
    for v in word.variables:
        need = word.multiplicity(v)
        if marginals[v - 1].order < need:
            raise DomainError(
                f"marginal of T{v} has order {marginals[v - 1].order}, need {need}"
            )
    kappa_ids = tuple(_cumulants_of(m) for m in marginals)
    zero_based = tuple(l - 1 for l in word.letters)
    return _nc_moment(*_canonical(kappa_ids, zero_based))


def centered_product_moment(
    marginals: Sequence[MomentSequence],
    letters: Sequence[tuple[int, int]],
) -> Fraction:
    """Trace of a product of centered powers prod_l (T_{j_l}^{p_l} - m_{p_l}).

    Each marginal must cover its variable's multiplicity in the flattened
    product, the sum of that variable's exponents.
    """
    letters = [(int(v), int(p)) for v, p in letters]
    if not letters:
        raise DomainError("empty centered product")
    nvars = max(v for v, _ in letters)
    if len(marginals) < nvars:
        raise DomainError(f"need marginals for T1..T{nvars}")
    need: dict[int, int] = {}
    for v, p in letters:
        if p < 1:
            raise DomainError("exponents must be >= 1")
        need[v] = need.get(v, 0) + p
    for v, total in need.items():
        if marginals[v - 1].order < total:
            raise DomainError(
                f"marginal of T{v} has order {marginals[v - 1].order}, need {total}"
            )
    centers = [marginals[v - 1].m(p) for v, p in letters]
    kappa_ids = tuple(_cumulants_of(m) for m in marginals)
    # Expand over the subsets of dropped factors; a factor whose center
    # vanishes is never dropped.
    droppable = [i for i, c in enumerate(centers) if c != 0]
    total = Fraction(0)
    for k in range(len(droppable) + 1):
        for dropped in combinations(droppable, k):
            coeff = Fraction(1)
            for i in dropped:
                coeff *= -centers[i]
            flat = tuple(
                v - 1 for i, (v, p) in enumerate(letters) if i not in dropped for _ in range(p)
            )
            total += coeff * _nc_moment(*_canonical(kappa_ids, flat))
    return total
