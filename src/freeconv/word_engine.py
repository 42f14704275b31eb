"""Mixed moments of free families via monochromatic non-crossing partitions.

For free variables T_1..T_m with known marginal moments, the trace of a
word T_{j_1}...T_{j_n} equals the sum over non-crossing partitions of
{1..n} whose blocks are monochromatic in the variable index, of the
product of free cumulants kappa_{|V|} of the block's variable.

That is the sum ``noncrossing.prefix_sums`` computes, with one index per
variable of the word.  Position p carries the one-hot weight e_(j_p) of
its variable, every coupling is the all-ones matrix, and index j carries
T_j's free cumulants.  A block then weighs 1 when its positions share a
variable and 0 otherwise, so each partition counts its cumulants exactly
when it is monochromatic.  One build gives the trace of every prefix of
the word, and nothing is kept between calls.

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
from .noncrossing import prefix_sums
from .transforms import free_from_moments

__all__ = [
    "Word",
    "prefix_moments",
    "mixed_moment",
    "centered_product_moment",
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


def _check_orders(marginals: Sequence[MomentSequence], need: dict[int, int]) -> None:
    """Every variable in ``need`` has a marginal covering its multiplicity."""
    nvars = max(need)
    if len(marginals) < nvars:
        raise DomainError(f"word uses T{nvars} but only {len(marginals)} marginals given")
    for v, total in need.items():
        if marginals[v - 1].order < total:
            raise DomainError(
                f"marginal of T{v} has order {marginals[v - 1].order}, need {total}"
            )


def _cumulants(marginals: Sequence[MomentSequence], need: dict[int, int]) -> dict[int, list]:
    """Free cumulants of each variable in ``need``, from its marginal cut
    to the multiplicity ``need`` gives it."""
    _check_orders(marginals, need)
    return {
        v: free_from_moments(MomentSequence(marginals[v - 1].moments[:k])) for v, k in need.items()
    }


def _traces(kappas: dict[int, list], letters: Sequence[int]) -> list[Fraction]:
    """Traces of the prefixes of ``letters``, each variable's free
    cumulants read from ``kappas``, which may hold variables absent from
    ``letters``."""
    n = len(kappas)
    one_hot = {v: [int(i == j) for i in range(n)] for j, v in enumerate(kappas)}
    return prefix_sums(
        [one_hot[l] for l in letters], [[[1] * n] * n] * (len(letters) - 1), list(kappas.values())
    )


def prefix_moments(marginals: Sequence[MomentSequence], word: Word) -> list[Fraction]:
    """Traces of the prefixes of a word in free variables, shortest first.

    ``marginals[j-1]`` supplies the moments of variable T_j.  Each
    marginal must cover the multiplicity of its variable in the word.
    """
    need = {v: word.multiplicity(v) for v in word.variables}
    return _traces(_cumulants(marginals, need), word.letters)


def mixed_moment(marginals: Sequence[MomentSequence], word: Word) -> Fraction:
    """Trace of a word in free variables with the given marginal moments.

    ``marginals[j-1]`` supplies the moments of variable T_j.  Each
    marginal must cover the multiplicity of its variable in the word.
    """
    return prefix_moments(marginals, word)[-1]


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
    need: dict[int, int] = {}
    for v, p in letters:
        if p < 1:
            raise DomainError("exponents must be >= 1")
        need[v] = need.get(v, 0) + p
    kappas = _cumulants(marginals, need)  # once for every subword
    centers = [marginals[v - 1].m(p) for v, p in letters]
    # Expand over the subsets of dropped factors; a factor whose center
    # vanishes is never dropped.  Fewer dropped factors come first, and one
    # build traces every prefix of its subword, so a subword that is a
    # prefix of one traced before is read off it.
    droppable = [i for i, c in enumerate(centers) if c != 0]
    traced: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    total = Fraction(0)
    for k in range(len(droppable) + 1):
        for dropped in combinations(droppable, k):
            coeff = Fraction(1)
            for i in dropped:
                coeff *= -centers[i]
            kept = tuple(v for i, (v, p) in enumerate(letters) if i not in dropped for _ in range(p))
            if kept not in traced:
                for t, value in enumerate(_traces(kappas, kept), 1):
                    traced[kept[:t]] = value
            total += coeff * traced[kept]
    return total
