"""Coherent pairs: validation, absolute coherence, composition, optimality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelflow.errors import DomainMismatchError, IncoherentPairError
from kernelflow.finite import (
    FiniteDistribution,
    FiniteSpace,
    StochasticKernel,
    dirac,
    kernel_apply,
    kleisli_compose,
    pushforward,
    uniform,
)
from kernelflow.pairs import (
    CoherentPair,
    compose_pairs,
    disintegration_pair,
    identity_pair,
    is_absolutely_coherent,
    is_optimal,
    singleton_pair,
    validate_coherent,
)

from helpers import rand_coherent_pair, rand_composable_pairs, rand_distribution

seeds = st.integers(0, 2**32 - 1)

AB = FiniteSpace(("a", "b"))
UV = FiniteSpace(("u", "v"))


def coin_pair():
    """Two independent fair-coin tosses observed through the first toss,
    with the conditional second-toss forecasts (2/3, 1/3) and (1/3, 2/3)."""
    toss = FiniteSpace(("H", "T"))
    pairs = FiniteSpace(("HH", "HT", "TH", "TT"))
    p = uniform(pairs)
    f = {"HH": "H", "HT": "H", "TH": "T", "TT": "T"}
    s = StochasticKernel(
        toss,
        pairs,
        {
            "H": FiniteDistribution(pairs, {"HH": Fraction(2, 3), "HT": Fraction(1, 3)}),
            "T": FiniteDistribution(pairs, {"TH": Fraction(1, 3), "TT": Fraction(2, 3)}),
        },
    )
    return CoherentPair(f, s, p, uniform(toss))


class TestValidateCoherent:
    def test_identity_is_coherent(self):
        p = rand_distribution(AB, random.Random(0))
        pair = identity_pair(p)
        assert validate_coherent(pair.f, pair.s, pair.p, pair.q) == ()

    def test_coin_setup_is_coherent(self):
        pair = coin_pair()
        assert validate_coherent(pair.f, pair.s, pair.p, pair.q) == ()
        assert is_absolutely_coherent(pair)

    def test_fiber_violation_is_named(self):
        p = uniform(AB)
        f = {"a": "u", "b": "v"}
        # row at u leaks onto b, which lives over v
        s = StochasticKernel(UV, AB, {"u": dirac("b", AB), "v": dirac("b", AB)})
        violations = validate_coherent(f, s, p, uniform(UV))
        assert any("'u'" in v and "'b'" in v for v in violations)
        with pytest.raises(IncoherentPairError):
            CoherentPair(f, s, p, uniform(UV))

    def test_pushforward_mismatch(self):
        p = uniform(AB)
        f = {"a": "u", "b": "u"}
        s = StochasticKernel(UV, AB, {"u": uniform(AB), "v": uniform(AB)})
        violations = validate_coherent(f, s, p, uniform(UV))
        assert any("pushforward mismatch" in v for v in violations)


class TestMapOnX:
    """Map entries at points outside X are not part of the pair."""

    HT = FiniteSpace(("H", "T"))

    def test_extra_entries_change_neither_equality_nor_hash(self):
        s = StochasticKernel(self.HT, AB, {"H": dirac("a", AB), "T": dirac("b", AB)})
        a = CoherentPair({"a": "H", "b": "T"}, s, uniform(AB))
        b = CoherentPair({"a": "H", "b": "T", "zz": "H"}, s, uniform(AB))
        assert b.f == {"a": "H", "b": "T"}
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_extra_entry_does_not_hide_an_empty_fiber(self):
        x = FiniteSpace(("a",))
        s = StochasticKernel(self.HT, x, {"H": dirac("a", x), "T": dirac("a", x)})
        f = {"a": "H", "zz": "T"}
        want = ("the fiber over 'T' is empty; no hypothesis row can be coherent",)
        assert validate_coherent(f, s, dirac("a", x)) == want
        with pytest.raises(IncoherentPairError) as err:
            CoherentPair(f, s, dirac("a", x))
        assert err.value.violations == want


class TestEquality:
    def test_rows_over_null_fibers_change_neither_equality_nor_hash(self):
        x = FiniteSpace(("a", "b", "c", "d"))
        y = FiniteSpace(("u", "v", "w"))
        f = {"a": "u", "b": "v", "c": "w", "d": "w"}
        p = FiniteDistribution(x, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        rows = {"u": dirac("a", x), "v": dirac("b", x)}
        # q(w) = 0, so the row at w is a witness, not data
        s1 = StochasticKernel(y, x, {**rows, "w": dirac("c", x)})
        s2 = StochasticKernel(y, x, {**rows, "w": dirac("d", x)})
        first, second = CoherentPair(f, s1, p), CoherentPair(f, s2, p)
        assert s1 != s2
        assert first == second
        assert hash(first) == hash(second)

    def test_equality_with_another_type_is_false(self):
        pair = coin_pair()
        assert (pair == object()) is False
        assert pair != object()


class TestShapes:
    def test_misaligned_shapes(self):
        f = {"a": "u", "b": "v"}
        s = StochasticKernel(UV, AB, {"u": dirac("a", AB), "v": dirac("b", AB)})
        for p, q in ((uniform(UV), None), (uniform(AB), uniform(AB))):
            with pytest.raises(DomainMismatchError) as err:
                CoherentPair(f, s, p, q)
            assert str(err.value) == "pair shapes do not align with the kernel"

    def test_singleton_hypothesis_on_another_space(self):
        with pytest.raises(DomainMismatchError) as err:
            singleton_pair(uniform(AB), uniform(UV))
        assert str(err.value) == "hypothesis lives on the wrong space"


class TestAbsoluteCoherence:
    def test_disintegration_is_absolutely_coherent(self):
        rng = random.Random(1)
        pair = rand_coherent_pair(rng, optimal=True)
        assert is_absolutely_coherent(pair)
        assert pair.hypothesis_pushforward() == pair.p

    def test_support_violation(self):
        pair = singleton_pair(uniform(AB), dirac("a", AB))
        assert not is_absolutely_coherent(pair)

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_fiber_reading_matches_the_reconstruction(self, seed):
        # the test reads s_{f x}(x) off the fiber; it must answer as the
        # reconstruction s applied to q does, rows with zero masses included
        pair = rand_coherent_pair(random.Random(seed))
        reconstructed = kernel_apply(pair.s, pair.q)
        assert is_absolutely_coherent(pair) == all(reconstructed(x) > 0 for x in pair.p.support())

    def test_full_support_dominates(self):
        rng = random.Random(2)
        for _ in range(20):
            pair = rand_coherent_pair(rng, absolutely=True)
            assert is_absolutely_coherent(pair)


class TestComposition:
    def test_identity_laws(self):
        rng = random.Random(3)
        pair = rand_coherent_pair(rng)
        left = compose_pairs(identity_pair(pair.p), pair)
        right = compose_pairs(pair, identity_pair(pair.q))
        assert left == pair
        assert right == pair

    def test_composite_kernel_is_kleisli(self):
        rng = random.Random(4)
        first, second = rand_composable_pairs(rng)
        composite = compose_pairs(first, second)
        assert composite.s == kleisli_compose(first.s, second.s)
        assert composite.f == {x: second.f[first.f[x]] for x in first.p.space}

    def test_middle_mismatch(self):
        rng = random.Random(5)
        first = rand_coherent_pair(rng)
        other = rand_coherent_pair(rng)
        if first.q != other.p:
            with pytest.raises(DomainMismatchError):
                compose_pairs(first, other)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_coherence_closure(self, seed):
        rng = random.Random(seed)
        first, second = rand_composable_pairs(rng)
        composite = compose_pairs(first, second)  # construction re-validates
        assert validate_coherent(composite.f, composite.s, composite.p, composite.q) == ()

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_absolute_coherence_closure(self, seed):
        rng = random.Random(seed)
        first, second = rand_composable_pairs(rng, absolutely=True)
        assert is_absolutely_coherent(compose_pairs(first, second))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_absolute_continuity_propagation(self, seed):
        # support(s applied to q) grows with support(q)
        rng = random.Random(seed)
        pair = rand_coherent_pair(rng)
        s, q = pair.s, pair.q
        support = [y for y in q.space if q(y) > 0]
        if len(support) < 2:
            return
        # shrink q's support: all mass onto one point of it
        q_small = FiniteDistribution(q.space, {support[0]: Fraction(1)})
        small = kernel_apply(s, q_small)
        big = kernel_apply(s, q)
        assert set(small.support()) <= set(big.support())


class TestOptimality:
    def test_disintegration_hypothesis_is_optimal(self):
        rng = random.Random(6)
        space = FiniteSpace(("a", "b", "c"))
        p = rand_distribution(space, rng)
        pair = disintegration_pair(p, {"a": "u", "b": "u", "c": "v"}, UV)
        assert is_optimal(pair)

    def test_perturbed_hypothesis_is_not_optimal(self):
        pair = singleton_pair(
            uniform(AB), FiniteDistribution(AB, {"a": Fraction(1, 4), "b": Fraction(3, 4)})
        )
        assert not is_optimal(pair)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_optimal_pairs_compose_to_optimal(self, seed):
        rng = random.Random(seed)
        first, second = rand_composable_pairs(rng, optimal=True)
        assert is_optimal(first) and is_optimal(second)
        assert is_optimal(compose_pairs(first, second))
