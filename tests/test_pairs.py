"""Coherent pairs: validation, absolute coherence, composition, optimality."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelflow.entropy import re_fin
from kernelflow.errors import DomainMismatchError, IncoherentPairError, KernelflowError
from kernelflow.finite import (
    FiniteDistribution,
    FiniteSpace,
    StochasticKernel,
    deterministic_kernel,
    dirac,
    disintegrate,
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

from helpers import labels, rand_coherent_pair, rand_composable_pairs, rand_distribution, rand_map

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


def disintegration_of_random_p(rng):
    """The disintegration pair of a random p, full support or not, along a
    map onto a smaller space, so that some fiber has two points."""
    xs = FiniteSpace(labels(rng.randint(2, 8), "x"))
    ys = FiniteSpace(labels(rng.randint(1, len(xs) - 1), "y"))
    p = rand_distribution(xs, rng, full=rng.random() < 0.5)
    return disintegration_pair(p, rand_map(rng, xs, ys, onto=True), ys)


def nudged(pair, rng, share):
    """pair with share of s_y(a) moved to b, for two points a and b of one
    fiber with s_y(a) > 0: not optimal unless q(y) = 0."""
    fibers = {}
    for x, y in pair.f.items():
        fibers.setdefault(y, []).append(x)
    y = rng.choice([y for y, xs in fibers.items() if len(xs) >= 2])
    row = dict(pair.s(y).mass)
    a = rng.choice(list(row))
    b = rng.choice([x for x in fibers[y] if x != a])
    eps = row[a] * share
    row[a] -= eps
    row[b] = row.get(b, 0) + eps
    rows = {**pair.s.rows, y: FiniteDistribution(pair.p.space, row)}
    return CoherentPair(pair.f, StochasticKernel(pair.q.space, pair.p.space, rows), pair.p, pair.q)


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


def drawn_distribution(draw, space):
    """A distribution on space from small int weights, zeros kept as entries."""
    weights = draw(st.lists(st.integers(0, 3), min_size=len(space), max_size=len(space)).filter(any))
    return FiniteDistribution(space, {x: Fraction(w, sum(weights)) for x, w in zip(space, weights)})


@st.composite
def exact_layer_inputs(draw):
    """(X, Y, f, p, s, q), shaped or not: f may miss points of X or send
    them outside Y, s may land on a space other than X, q may be absent."""
    xs = FiniteSpace(draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True)))
    ys = FiniteSpace(draw(st.lists(st.sampled_from("uvw"), min_size=1, max_size=3, unique=True)))
    images = draw(st.lists(st.sampled_from(ys.points * 3 + ("zz", None)),
                           min_size=len(xs), max_size=len(xs)))
    f = {x: y for x, y in zip(xs, images) if y is not None}
    p = drawn_distribution(draw, xs)
    target = draw(st.one_of(st.just(xs), st.lists(
        st.sampled_from("abcd"), min_size=1, max_size=4, unique=True).map(FiniteSpace)))
    s = StochasticKernel(ys, target, {y: drawn_distribution(draw, target) for y in ys})
    q = drawn_distribution(draw, ys) if draw(st.booleans()) else None
    return xs, ys, f, p, s, q


def outcome(call):
    """(value, None) or (None, the KernelflowError call raised); any other
    exception propagates and fails the test."""
    try:
        return call(), None
    except KernelflowError as exc:
        return None, exc


AC = FiniteSpace(("a", "c"))
U = FiniteSpace(("u",))


class TestMisShapedInput:
    """Every exact-layer call on drawn, possibly mis-shaped, input returns or
    raises a KernelflowError; the map and pair checks each answer one way."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(exact_layer_inputs())
    # a kernel onto {a, c} with p on {a, b}
    @example((AB, U, {"a": "u", "b": "u"}, uniform(AB),
              StochasticKernel(U, AC, {"u": dirac("c", AC)}), None))
    # a map undefined at b
    @example((AB, U, {"a": "u"}, uniform(AB), StochasticKernel(U, AB, {"u": uniform(AB)}), None))
    def test_each_call_ends_in_a_result_or_a_typed_error(self, case):
        xs, ys, f, p, s, q = case
        _, push_err = outcome(lambda: pushforward(p, f, ys))
        _, det_err = outcome(lambda: deterministic_kernel(f, xs, ys))
        assert (push_err is None) == (det_err is None)
        if push_err is not None:
            assert type(det_err) is DomainMismatchError and str(det_err) == str(push_err)
        _, dis_err = outcome(lambda: disintegrate(p, f, ys))
        assert (dis_err is None) == (push_err is None)
        _, pair_err = outcome(lambda: CoherentPair(f, s, p, q))
        if pair_err is None:
            assert validate_coherent(f, s, p, q) == ()
        elif isinstance(pair_err, IncoherentPairError):
            assert validate_coherent(f, s, p, q) == pair_err.violations
        else:
            assert type(pair_err) is DomainMismatchError
            with pytest.raises(DomainMismatchError) as err:
                validate_coherent(f, s, p, q)
            assert str(err.value) == str(pair_err)


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

    @given(seeds, st.sampled_from(["random", "optimal", "near-optimal"]), st.integers(1, 15))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_built_reconstruction(self, seed, kind, digits):
        # hypothesis_pushforward builds s . q with kernel_apply; is_optimal
        # reads it off the fibers and only on p's support
        rng = random.Random(seed)
        if kind == "random":
            pair = rand_coherent_pair(rng, absolutely=rng.choice([True, False, None]))
        else:
            pair = disintegration_of_random_p(rng)
            if kind == "near-optimal":
                pair = nudged(pair, rng, Fraction(1, 10**digits))
        assert is_optimal(pair) == (pair.hypothesis_pushforward() == pair.p)
        if is_optimal(pair):
            assert re_fin(pair).value == 0.0
