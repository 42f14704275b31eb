"""Non-crossing sums of free cumulants by one interval recursion.

The exact word traces and the (L, Q) joint moments are the same sum: free
cumulants multiplied over the blocks of every non-crossing partition of a
word's positions, with coefficients contracted along the word.  This
module computes it for every prefix of the word from one set of tables.

Put an index i_p in 0..n-1 on each of the d positions.  Position p
carries an int weight vector w_p, and positions p and p + 1 are coupled
by an int n x n matrix C_p.  A non-crossing partition pi of the positions
contributes the product over its blocks V of kappa^(i)_|V|, the free
cumulant of the index i that every position of V carries, summed with
prod_p w_p[i_p] C_p[i_p, i_(p+1)] over the indices constant on each
block.  F[s][t] is the n x n matrix of the sum over the non-crossing
partitions of positions s..t, with i_s and i_t fixed.  The block of s is
a chain s = e_0 < e_1 < ... < e_(k-1), tracked by its length k.  What
lies between consecutive elements e < e' is a non-crossing partition of
the gap, which contributes diag(C_e F[e+1][e'-1] C_(e'-1)), or diag(C_e)
when the gap is empty.  Closed[s][e] sums the chains that end at e, each
of length k times kappa_k of its index; a chain longer than every
index's last nonzero kappa_k never closes, so it is not kept.  Every
other block lies inside a gap or right of the chain's last element e, so

    F[s][t] = diag(Closed[s][t]) + sum_(e<t) diag(Closed[s][e]) C_e F[e+1][t],

and the sum over positions 0..t is the sum of the entries of F[0][t].
F[s][t] never looks past position t, so one set of tables gives every
prefix.  The tables hold ints: each index's cumulants are dilated
(``measures.dilate``) to one common c, the lcm of the indices' own
factors, so kappa_k becomes c^k kappa_k and prefix t is divided once, by
c^(t+1).  They cost O(d^4 n + d^3 n^2 + d^2 n^3).

This is the M_n-valued moment-cumulant recursion of D = diag(T_1, ..., T_n),
with the coupling matrices between its factors.  D's entries are free, so
D is R-cyclic: a cumulant of its entries vanishes unless every index
agrees (Nica, Shlyakhtenko & Speicher, J. Funct. Anal. 188 (2002);
Nica & Speicher, Lectures on the Combinatorics of Free Probability,
Lecture 11).

A dropped position s skips the block {s, s + 1}.  It is the one chain of
s that ends at s + 1, so Closed[s][s+1] is zeroed there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import cycle
from operator import add, mul
from typing import Collection, Sequence

from .measures import dilate

__all__ = ["prefix_sums"]


def prefix_sums(
    weight: Sequence[Sequence[int]],
    coupling: Sequence[Sequence[Sequence[int]]],
    kappas: Sequence[Sequence[Fraction]],
    drop: Collection[int] = (),
) -> list[Fraction]:
    """The non-crossing sum over positions 0..t, for t = 0..d-1.

    ``weight[p]`` is w_p, ``coupling[p]`` is C_p for p < d - 1, and
    ``kappas[i]`` holds kappa_1, kappa_2, ... of index i; a block longer
    than its index's list counts 0.  Each position s in ``drop`` (with
    s < d - 1) skips every partition with the block {s, s + 1}.  See the
    module docstring.
    """
    d, n = len(weight), len(kappas)
    dilated = [dilate(kv[:d]) for kv in kappas]
    c = math.lcm(*(ci for ci, _ in dilated))
    # kap[i][k - 1] = c^k kappa_k of index i
    kap = [[v * (c // ci) ** k for k, v in enumerate(ks, 1)] for ci, ks in dilated]
    # chains longer than the last nonzero cumulant never close
    longest = max((k for ks in kap for k, v in enumerate(ks, 1) if v), default=1)
    columns = [[list(col) for col in zip(*cp)] for cp in coupling]
    zeros = [0] * n

    f: list[list] = [[None] * d for _ in range(d)]  # F[s][t]
    g: list[list] = [[None] * d for _ in range(d)]  # C_s F[s + 1][t]
    gap: list[list] = [[None] * d for _ in range(d)]  # gap[e][e'] for e < e'
    for s in reversed(range(d)):
        if s + 1 < d:
            cs = coupling[s]
            gap[s][s + 1] = [cs[i][i] for i in range(n)]
            for t in range(s + 1, d):
                f_cols = list(zip(*f[s + 1][t]))
                g[s][t] = gst = [[sum(map(mul, row, col)) for col in f_cols] for row in cs]
                if t + 1 < d:
                    ct_cols = columns[t]
                    gap[s][t + 1] = [sum(map(mul, gst[i], ct_cols[i])) for i in range(n)]

        # chains[e - s][(k - 1) n + i]: the block of s as a chain of k
        # elements s = e_0 < ... < e_(k-1) = e with index i, its gaps
        # summed, kappa_k not applied; [] when every entry is 0
        chains = [weight[s] if any(weight[s]) else []]
        for e2 in range(s + 1, d):
            size = n * min(e2 - s + 1, longest)
            acc = [0] * size
            for e in range(s, e2):
                if ch := chains[e - s][: size - n]:
                    end = n + len(ch)
                    acc[n:end] = map(add, acc[n:end], map(mul, ch, cycle(gap[e][e2])))
            acc = list(map(mul, acc, cycle(weight[e2])))
            chains.append(acc if any(acc) else [])
        closed = [[sum(map(mul, ch[i::n], ks)) for i, ks in enumerate(kap)] for ch in chains]
        if s in drop:
            closed[1] = zeros  # {s, s + 1} is the one chain of s that ends at s + 1

        for t in range(s, d):
            rows = []
            for i in range(n):
                row = [0] * n
                row[i] = closed[t - s][i]
                for e in range(s, t):
                    if w := closed[e - s][i]:
                        row = [x + w * y for x, y in zip(row, g[e][t][i])]
                rows.append(row)
            f[s][t] = rows

    return [Fraction(sum(map(sum, f[0][t])), c ** (t + 1)) for t in range(d)]
