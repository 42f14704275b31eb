import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from freeconv import characterize, noncrossing, word_engine
from freeconv.characterize import freeness_dichotomy, joint_moment, preset_sample_mean_variance
from freeconv.errors import DomainError, ParseError
from freeconv.measures import Atomic, MomentSequence, Semicircle, catalan, moments
from freeconv.word_engine import (
    Word,
    centered_product_moment,
    mixed_moment,
    prefix_moments,
)
from freeconv.transforms import free_from_moments
from oracles import (
    mixed_moment_bruteforce,
    nc_blocks,
    nc_moment_by_block_subsets,
    nc_moment_by_chains,
    nc_partitions,
)

rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
)

# moments to order 12 of laws whose cumulants vanish in different ways:
# odd ones (Rademacher), all past the second (semicircle), none (a skew
# three-atom law)
LAWS = [
    moments(law, 12).moments
    for law in (
        Atomic([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]),
        Semicircle(0, 2),
        Atomic([(Fraction(1, 2), Fraction(1, 4)), (1, Fraction(1, 4)), (3, Fraction(1, 2))]),
    )
]


@st.composite
def words_and_marginals(draw):
    """A word over 1-3 variables of up to 12 letters, and one marginal per
    variable cut to the variable's multiplicity in the word."""
    nvars = draw(st.integers(1, 3))
    word = draw(st.lists(st.integers(1, nvars), min_size=1, max_size=12))
    laws = st.one_of(st.sampled_from(LAWS), st.lists(rationals, min_size=12, max_size=12))
    marginals = [
        MomentSequence(draw(laws)[: max(1, word.count(v))]) for v in range(1, nvars + 1)
    ]
    return word, marginals


def canonical(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def alternating_products(n_vars, max_len, exponents):
    """Every centered product T_{j_1}^{p_1} ... with j_1 != j_2 != ... over
    {1..n_vars}, up to max_len letters, p_l drawn cyclically from exponents."""
    return [
        tuple((j, exponents[l % len(exponents)]) for l, j in enumerate(idx))
        for length in range(1, max_len + 1)
        for idx in product(range(1, n_vars + 1), repeat=length)
        if all(a != b for a, b in zip(idx, idx[1:]))
    ]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 14), (6, 132)])
    def test_counts_match_catalan(self, n, count):
        parts = list(nc_blocks(tuple(range(1, n + 1))))
        assert len(parts) == count == catalan(n)

    def test_each_produced_once(self):
        parts = [canonical(p) for p in nc_blocks(tuple(range(1, 6)))]
        assert len(parts) == len(set(parts)) == catalan(5)

    def test_agrees_with_bruteforce_filter(self):
        ours = {canonical(p) for p in nc_blocks(tuple(range(1, 7)))}
        brute = {canonical(p) for p in nc_partitions(6)}
        assert ours == brute

    @pytest.mark.parametrize("zero_size", [1, 2, 3])
    def test_zero_cumulant_drops_exactly_its_block_size(self, zero_size):
        kappa = [Fraction(1)] * 6
        kappa[zero_size - 1] = Fraction(0)
        ours = [canonical(p) for p in nc_blocks(tuple(range(1, 7)), kappa)]
        brute = {
            canonical(p) for p in nc_partitions(6) if all(len(b) != zero_size for b in p)
        }
        assert len(ours) == len(set(ours)) and set(ours) == brute


class TestWord:
    def test_text_round_trip(self):
        w = Word.from_text("T1^2 T2 T1 T3^3")
        assert w.letters == (1, 1, 2, 1, 3, 3, 3)
        assert w.as_text() == "T1^2 T2 T1 T3^3"

    def test_from_exponents(self):
        assert Word.from_exponents([(2, 3)]).letters == (2, 2, 2)

    def test_parse_errors(self):
        for bad in ("", "X2", "T0", "T1^0", "T1 ^2"):
            with pytest.raises(ParseError):
                Word.from_text(bad)

    def test_multiplicity(self):
        w = Word((1, 2, 1, 2))
        assert w.multiplicity(1) == 2
        assert w.variables == (1, 2)


class TestMixedMoment:
    def test_singleton_factorization(self):
        a = MomentSequence([Fraction(2, 3)])
        b = MomentSequence([Fraction(-1, 5)])
        assert mixed_moment((a, b), Word((1, 2))) == Fraction(-2, 15)

    def test_alternating_bernoulli_word(self, bernoulli):
        m = moments(bernoulli, 4)
        assert mixed_moment((m, m), Word((1, 2, 1, 2))) == Fraction(3, 16)

    def test_centered_alternating_vanishes(self):
        centered = MomentSequence([0, 1, 0, 2])
        assert mixed_moment((centered, centered), Word((1, 2, 1, 2))) == 0

    @given(st.lists(rationals, min_size=6, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_single_variable_recovers_moments(self, ms):
        marginal = MomentSequence(ms)
        for k in range(1, 7):
            assert mixed_moment((marginal,), Word((1,) * k)) == marginal.m(k)

    def test_matches_bruteforce_on_random_words(self):
        rngs = [
            MomentSequence([Fraction(1, 2)] * 6),
            MomentSequence([Fraction(k, 3) for k in (1, 2, 1, 2, 1, 2)]),
            MomentSequence([Fraction(k, 5) for k in (2, 3, -1, 4, 0, 2)]),
        ]
        words = [
            (1, 2, 1, 2),
            (1, 2, 3, 2, 1),
            (2, 2, 1, 3),
            (3, 1, 1, 2, 2, 1),
            (1, 1, 1, 1, 1, 1),
        ]
        for w in words:
            expected = mixed_moment_bruteforce(
                {1: list(rngs[0]), 2: list(rngs[1]), 3: list(rngs[2])}, w
            )
            assert mixed_moment(rngs, Word(w)) == expected

    def test_matches_block_subset_oracle_on_random_words(
        self, rademacher, standard_semicircle
    ):
        # T1 Rademacher (odd kappa vanish), T2 semicircle (only kappa_2),
        # T3 a three-atom law cut at its letter count, so that a block of
        # every T3 letter sits exactly at the len(kappa) cap
        third = Atomic([(Fraction(1, 2), Fraction(1, 4)), (1, Fraction(1, 4)), (3, Fraction(1, 2))])
        fixed = [moments(rademacher, 14), moments(standard_semicircle, 14)]
        rng = random.Random(20)
        for _ in range(120):
            word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 14)))
            marginals = [*fixed, moments(third, max(1, word.count(3)))]
            kappas = [free_from_moments(m) for m in marginals]
            want = nc_moment_by_block_subsets(kappas, [l - 1 for l in word])
            assert mixed_moment(marginals, Word(word)) == want, word

    def test_trace_invariance_under_cyclic_shifts(self, bernoulli, two_point):
        m1 = moments(bernoulli, 6)
        m2 = moments(two_point, 6)
        for length in range(1, 7):
            for word in product((1, 2), repeat=length):
                base = mixed_moment((m1, m2), Word(word))
                for shift in range(1, length):
                    rotated = word[shift:] + word[:shift]
                    assert mixed_moment((m1, m2), Word(rotated)) == base

    def test_order_shortfall_raises(self, bernoulli):
        short = moments(bernoulli, 2)
        with pytest.raises(DomainError):
            mixed_moment((short, short), Word((1, 1, 1)))

    def test_missing_marginal_raises(self, bernoulli):
        with pytest.raises(DomainError):
            mixed_moment((moments(bernoulli, 2),), Word((1, 2)))

    def test_no_module_level_memo_grows(self, bernoulli, rademacher):
        # every call starts from its own tables: no module-level dict, list
        # or set of the engines changes size across calls
        modules = (word_engine, noncrossing, characterize)

        def sizes():
            return {
                (module.__name__, name): len(value)
                for module in modules
                for name, value in vars(module).items()
                if isinstance(value, (dict, list, set))
            }

        before = sizes()
        m = moments(bernoulli, 6)
        mixed_moment((m, m), Word((1, 2, 1, 2)))
        prefix_moments((m, m), Word((1, 2, 2, 1, 1, 2)))
        spec, r = preset_sample_mean_variance(3), moments(rademacher, 8)
        joint_moment(spec, r, "LQQL")
        freeness_dichotomy(spec, r, 8)
        assert before and sizes() == before


class TestPrefixMoments:
    @given(words_and_marginals())
    @settings(max_examples=60, deadline=None)
    def test_every_prefix_matches_both_oracles(self, case):
        word, marginals = case
        kappas = [free_from_moments(m) for m in marginals]
        letters = [l - 1 for l in word]
        chains = [nc_moment_by_chains(kappas, letters[:k]) for k in range(1, len(word) + 1)]
        subsets = [nc_moment_by_block_subsets(kappas, letters[:k]) for k in range(1, len(word) + 1)]
        assert prefix_moments(marginals, Word(word)) == chains == subsets


class TestCenteredProducts:
    def test_expansion_matches_manual(self, bernoulli, two_point):
        # tau((T1 - 1/2)(T2 - 3/2)) = tau(T1 T2) - (1/2)tau(T2)
        #   - (3/2)tau(T1) + 3/4 for these marginals
        m1 = moments(bernoulli, 2)
        m2 = moments(two_point, 2)
        got = centered_product_moment((m1, m2), [(1, 1), (2, 1)])
        manual = (
            mixed_moment((m1, m2), Word((1, 2)))
            - Fraction(1, 2) * Fraction(3, 2)
            - Fraction(3, 2) * Fraction(1, 2)
            + Fraction(1, 2) * Fraction(3, 2)
        )
        assert got == manual == 0

    def test_centered_squares(self, bernoulli):
        m = moments(bernoulli, 4)
        # single centered square: tau(T^2 - m_2) = 0
        assert centered_product_moment((m,), [(1, 2)]) == 0

    def test_cumulants_taken_once_per_variable(self, bernoulli, two_point, monkeypatch):
        # tau(a b b a) = tau(a^2) tau(b^2) for centered free a and b; its 16
        # subwords share the two variables' cumulants
        m1, m2 = moments(bernoulli, 4), moments(two_point, 4)
        variances = (m1.m(2) - m1.m(1) ** 2) * (m2.m(2) - m2.m(1) ** 2)
        calls = []

        def counted(seq):
            calls.append(seq)
            return free_from_moments(seq)

        monkeypatch.setattr(word_engine, "free_from_moments", counted)
        got = centered_product_moment((m1, m2), [(1, 1), (2, 1), (2, 1), (1, 1)])
        assert got == variances != 0
        assert len(calls) == 2

    def test_rejects_empty(self, bernoulli):
        with pytest.raises(DomainError):
            centered_product_moment((moments(bernoulli, 2),), [])

    def test_order_shortfall_raises(self):
        # tau((T - 1/2)^2) is a variance that an order-1 marginal leaves open
        short = MomentSequence([Fraction(1, 2)])
        with pytest.raises(DomainError):
            centered_product_moment((short,), [(1, 1), (1, 1)])


class TestAlternatingChecks:
    def test_first_powers_vanish(self, bernoulli, two_point):
        marginals = (moments(bernoulli, 4), moments(two_point, 4))
        words = alternating_products(2, 4, (1,))
        assert len(words) == sum(2 * 1 ** (l - 1) for l in range(1, 5))
        assert all(centered_product_moment(marginals, w) == 0 for w in words)

    def test_centered_squares_vanish(self, bernoulli, two_point):
        marginals = (moments(bernoulli, 8), moments(two_point, 8))
        words = alternating_products(2, 4, (2,))
        assert all(centered_product_moment(marginals, w) == 0 for w in words)

    def test_three_variables_mixed_exponents(self, bernoulli, two_point):
        third = Atomic([(Fraction(1, 2), Fraction(1, 3)), (2, Fraction(2, 3))])
        marginals = (
            moments(bernoulli, 10),
            moments(two_point, 10),
            moments(third, 10),
        )
        words = alternating_products(3, 5, (1, 2))
        assert all(centered_product_moment(marginals, w) == 0 for w in words)
