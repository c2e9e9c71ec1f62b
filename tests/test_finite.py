"""Exact core: distributions, kernels, monad operations, disintegration."""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelflow.errors import DomainMismatchError
from kernelflow.finite import (
    FiniteDistribution,
    FiniteSpace,
    StochasticKernel,
    deterministic_kernel,
    dirac,
    disintegrate,
    flatten,
    kernel_apply,
    kleisli_compose,
    pushforward,
    uniform,
)

from helpers import (
    dense_kernel_apply,
    fraction_pushforward,
    rand_distribution,
    rand_fiber_kernel,
    rand_map,
    rand_space,
    unlimited_str,
)

AB = FiniteSpace(("a", "b"))
UV = FiniteSpace(("u", "v"))


def dist(space, **masses):
    return FiniteDistribution(space, {k: Fraction(v) for k, v in masses.items()})


# --- seeded-random instances for the exact laws ----------------------------

seeds = st.integers(0, 2**32 - 1)


def random_instance(seed):
    rng = random.Random(seed)
    space = rand_space(rng, 8, "x")
    return rng, space


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@st.composite
def mass_lists(draw):
    """Nonnegative masses over pairwise coprime denominators, or over
    denominators sharing a factor; often completed to sum to 1, sometimes
    missing it by one part in the product of the denominators."""
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        dens = draw(st.lists(st.sampled_from(PRIMES), min_size=k, max_size=k, unique=True))
    else:
        shared = draw(st.integers(2, 12))
        dens = [shared * draw(st.integers(1, 12)) for _ in range(k)]
    # at most 1/k each, so the first k - 1 leave room for the last
    masses = [Fraction(draw(st.integers(0, d // k)), d) for d in dens]
    if draw(st.booleans()):
        nudge = Fraction(draw(st.sampled_from((0, 0, 1, -1))))
        for d in dens:
            nudge /= d
        masses[-1] = 1 - sum(masses[:-1], Fraction(0)) + nudge
    return masses


class TestSpacesAndDistributions:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(DomainMismatchError):
            FiniteSpace(("a", "a"))

    def test_rejects_bad_mass_sum(self):
        with pytest.raises(DomainMismatchError):
            FiniteDistribution(AB, {"a": Fraction(1, 2)})

    def test_rejects_negative_mass(self):
        with pytest.raises(DomainMismatchError):
            FiniteDistribution(AB, {"a": Fraction(3, 2), "b": Fraction(-1, 2)})

    def test_support_is_exact(self):
        d = dist(AB, a="1/3", b="2/3")
        assert d.support() == ("a", "b")
        assert dirac("a", AB).support() == ("a",)

    def test_explicit_zeros_equal_omitted_ones(self):
        sp = FiniteSpace(("a", "b", "c"))
        given_zeros = dist(sp, a="1/2", b="0", c="1/2")
        omitted = dist(sp, a="1/2", c="1/2")
        assert given_zeros == omitted
        assert hash(given_zeros) == hash(omitted)
        assert given_zeros("b") == 0
        assert given_zeros.support() == ("a", "c")
        assert list(given_zeros.items()) == [("a", Fraction(1, 2)), ("c", Fraction(1, 2))]
        assert dist(sp, a="1") != dist(sp, b="1")

    def test_support_keeps_canonical_order(self):
        sp = FiniteSpace(("c", "a", "b"))
        d = FiniteDistribution(sp, {"b": Fraction(1, 2), "c": Fraction(1, 4), "a": Fraction(1, 4)})
        assert d.support() == ("c", "a", "b")
        assert [x for x, _ in d.items()] == ["c", "a", "b"]

    def test_bad_sum_message(self):
        with pytest.raises(DomainMismatchError) as err:
            dist(AB, a="1/2", b="2/3")
        assert str(err.value) == "masses sum to 7/6, not 1"
        with pytest.raises(DomainMismatchError) as err:
            dist(AB, a="0", b="0")
        assert str(err.value) == "masses sum to 0/1, not 1"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_integer_sum_check_matches_fraction_sum(self, data):
        # the check sums numerators over one common denominator; it must
        # accept and reject exactly as a plain Fraction sum does
        masses = data.draw(mass_lists())
        space = FiniteSpace(tuple(f"x{i}" for i in range(len(masses))))
        raw = dict(zip(space, masses))
        total = sum(masses, Fraction(0))
        if total == 1:
            d = FiniteDistribution(space, raw)
            assert d.mass == {x: m for x, m in raw.items() if m}
        else:
            with pytest.raises(DomainMismatchError) as err:
                FiniteDistribution(space, raw)
            assert str(err.value) == f"masses sum to {unlimited_str(total)}, not 1"

    @pytest.mark.parametrize(
        "points, message",
        [
            ((), "a finite space needs at least one point"),
            (("a", ""), "invalid point label ''"),
            (("a", 3), "invalid point label 3"),
            (("a", "b", "a"), "duplicate point label 'a'"),
            # the labels are checked in order: the duplicate comes first
            (("a", "a", ""), "duplicate point label 'a'"),
        ],
    )
    def test_rejects_empty_space_and_bad_labels(self, points, message):
        with pytest.raises(DomainMismatchError) as err:
            FiniteSpace(points)
        assert str(err.value) == message

    def test_space_is_slotted_and_its_index_is_derived(self):
        # the label -> index map is built with the space and is no part of
        # its value: equal points make equal spaces with equal hashes
        sp = FiniteSpace(["x", "y", "z"])
        assert not hasattr(sp, "__dict__")
        assert sp._index == {"x": 0, "y": 1, "z": 2}
        assert repr(sp) == "FiniteSpace(points=('x', 'y', 'z'))"
        twin = FiniteSpace(("x", "y", "z"))
        assert twin == sp and hash(twin) == hash(sp)
        assert FiniteSpace(("x", "z", "y")) != sp
        with pytest.raises(FrozenInstanceError):
            sp.points = ("x",)
        for copied in (pickle.loads(pickle.dumps(sp)), copy.deepcopy(sp)):
            assert copied == sp and hash(copied) == hash(sp)
            assert copied._index == sp._index and "y" in copied and "w" not in copied

    @pytest.mark.parametrize("mass", [0.5, "1/2"], ids=["float", "str"])
    def test_mass_must_be_fraction_or_int(self, mass):
        with pytest.raises(TypeError) as err:
            FiniteDistribution(AB, {"a": mass, "b": Fraction(1, 2)})
        assert str(err.value) == f"expected an exact rational, got {type(mass).__name__}"

    @pytest.mark.parametrize(
        "mass, error, message",
        [
            ({"a": Fraction(-1, 2), "z": Fraction(3, 2)}, DomainMismatchError,
             "negative mass -1/2 at point 'a'"),
            ({"z": Fraction(3, 2), "a": Fraction(-1, 2)}, DomainMismatchError,
             "mass assigned to unknown point 'z'"),
            ({"a": Fraction(-1, 2), "b": 0.5}, DomainMismatchError,
             "negative mass -1/2 at point 'a'"),
            ({"a": 0.5, "b": Fraction(-1, 2)}, TypeError, "expected an exact rational, got float"),
            ({"z": 0.5, "a": 1}, DomainMismatchError, "mass assigned to unknown point 'z'"),
            ({"a": Fraction(1, 3), "b": 0, "c": Fraction(1, 3)}, DomainMismatchError,
             "masses sum to 2/3, not 1"),
            ({"a": Fraction(0, 7), "b": Fraction(1, 2), "c": Fraction(1, 3)}, DomainMismatchError,
             "masses sum to 5/6, not 1"),
        ],
        ids=["negative-then-unknown", "unknown-then-negative", "negative-then-float",
             "float-then-negative", "unknown-then-int", "bad-sum-with-int-zero",
             "bad-sum-with-fraction-zero"],
    )
    def test_first_failed_check_raises(self, mass, error, message):
        # the checks run point by point in the mapping's order, and the sum
        # is checked after every point, so two faults report the first
        with pytest.raises(error) as err:
            FiniteDistribution(FiniteSpace(("a", "b", "c")), mass)
        assert str(err.value) == message

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_frozen_slotted_and_copyable(self, seed):
        rng = random.Random(seed)
        d = rand_distribution(rand_space(rng, 6, "x"), rng)
        assert not hasattr(d, "__dict__")
        for name in ("space", "mass"):
            with pytest.raises(FrozenInstanceError):
                setattr(d, name, None)
        # a name that is no field is refused too, with CPython's TypeError
        # from a slotted frozen dataclass's __setattr__
        with pytest.raises((AttributeError, TypeError)):
            d.other = None
        for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert twin == d and hash(twin) == hash(d)
            assert list(twin.items()) == list(d.items())

    def test_unknown_label_raises(self):
        sp = FiniteSpace(("a", "b", "c"))
        assert "z" not in sp
        with pytest.raises(DomainMismatchError):
            uniform(sp)("z")
        with pytest.raises(DomainMismatchError):
            FiniteDistribution(sp, {"a": Fraction(1, 2), "z": Fraction(1, 2)})
        with pytest.raises(DomainMismatchError):
            FiniteDistribution(sp, {"a": Fraction(1), "z": Fraction(0)})


class TestPushforward:
    def test_constant_map_collapses(self):
        d = uniform(AB)
        f = {"a": "u", "b": "u"}
        assert pushforward(d, f, UV) == dirac("u", UV)

    def test_identity(self):
        d = dist(AB, a="1/3", b="2/3")
        assert pushforward(d, {"a": "a", "b": "b"}, AB) == d

    def test_fiber_sums(self):
        # hand sum: 1/6 + 1/3 = 1/2 on u, 1/2 on v
        sp = FiniteSpace(("a", "b", "c"))
        d = dist(sp, a="1/6", b="1/3", c="1/2")
        out = pushforward(d, {"a": "u", "b": "u", "c": "v"}, UV)
        assert out == dist(UV, u="1/2", v="1/2")

    def test_map_outside_target_is_error(self):
        with pytest.raises(DomainMismatchError):
            pushforward(uniform(AB), {"a": "w", "b": "u"}, UV)

    def test_map_undefined_at_a_point_is_error(self):
        with pytest.raises(DomainMismatchError) as err:
            pushforward(uniform(AB), {"a": "u"}, UV)
        assert str(err.value) == "map undefined at point 'b'"


    @given(seeds, st.sampled_from(["total", "undefined", "outside"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_sum(self, seed, fault):
        # p has zero masses; the map is total, misses a point, or sends a
        # point outside the target, and the int sums must give the Fraction
        # sums or the same error as the plain Fraction reference
        rng = random.Random(seed)
        xs = rand_space(rng, 10, "x")
        ys = rand_space(rng, 4, "y")
        p = rand_distribution(xs, rng)
        f = rand_map(rng, xs, ys)
        if fault == "undefined":
            del f[rng.choice(xs.points)]
        elif fault == "outside":
            f[rng.choice(xs.points)] = "w"
        try:
            want = fraction_pushforward(p, f, ys)
        except DomainMismatchError as exc:
            with pytest.raises(DomainMismatchError) as err:
                pushforward(p, f, ys)
            assert str(err.value) == str(exc)
            return
        out = pushforward(p, f, ys)
        assert [out(y) for y in ys] == [want[y] for y in ys]
        assert out.support() == tuple(y for y in ys if want[y] > 0)


class TestDiracAndFlatten:
    def test_dirac_definition(self):
        d = dirac("a", AB)
        assert d("a") == 1 and d("b") == 0

    def test_dirac_outside_space(self):
        with pytest.raises(DomainMismatchError):
            dirac("z", AB)

    def test_dirac_naturality(self):
        f = {"a": "v", "b": "u"}
        assert pushforward(dirac("a", AB), f, UV) == dirac("v", UV)

    def test_flatten_mixture(self):
        # hand evaluation of the mixture sum
        out = flatten([(Fraction(1, 2), dirac("a", AB)), (Fraction(1, 2), dirac("b", AB))])
        assert out == uniform(AB)

    def test_flatten_degenerate(self):
        d = dist(AB, a="1/3", b="2/3")
        assert flatten([(1, d)]) == d

    def test_flatten_rejects_mixed_spaces(self):
        with pytest.raises(DomainMismatchError):
            flatten([(Fraction(1, 2), uniform(AB)), (Fraction(1, 2), uniform(UV))])

    def test_flatten_rejects_empty_and_unnormalized_mixtures(self):
        with pytest.raises(DomainMismatchError) as err:
            flatten([])
        assert str(err.value) == "cannot flatten an empty mixture"
        with pytest.raises(DomainMismatchError) as err:
            flatten([(Fraction(1, 2), uniform(AB)), (Fraction(1, 4), dirac("a", AB))])
        assert str(err.value) == "outer weights: masses sum to 3/4, not 1"

    def test_flatten_rejects_negative_weights(self):
        # both mixtures' weights sum to 1; the first would even give a
        # distribution, the second a negative mass at b
        for first, second in ((uniform(AB), uniform(AB)), (dirac("a", AB), dirac("b", AB))):
            with pytest.raises(DomainMismatchError) as err:
                flatten([(Fraction(3, 2), first), (Fraction(-1, 2), second)])
            assert str(err.value) == "outer weights: negative mass -1/2 at point '1'"

    def test_flatten_messages_print_weights_past_the_int_to_str_limit(self):
        # each message holds more digits than str() converts by default;
        # it must still be the typed error, with every digit
        tiny = Fraction(1, 10**4400)
        total = Fraction(1, 2) + tiny
        assert len(unlimited_str(total).partition("/")[2]) > 4300
        with pytest.raises(DomainMismatchError) as err:
            flatten([(Fraction(1, 2), uniform(AB)), (tiny, dirac("a", AB))])
        assert str(err.value) == f"outer weights: masses sum to {unlimited_str(total)}, not 1"
        negative = Fraction(-(10**4400) - 1, 3)
        assert len(unlimited_str(negative).partition("/")[0]) > 4300
        with pytest.raises(DomainMismatchError) as err:
            flatten([(1 - negative, uniform(AB)), (negative, dirac("a", AB))])
        assert str(err.value) == f"outer weights: negative mass {unlimited_str(negative)} at point '1'"

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_monad_unit_laws(self, seed):
        rng, space = random_instance(seed)
        d = rand_distribution(space, rng)
        # flatten of dirac-of-d is d
        assert flatten([(1, d)]) == d
        # flatten of pointwise diracs weighted by d is d
        assert flatten([(d(x), dirac(x, space)) for x in space]) == d

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_flatten_associativity(self, seed):
        rng, space = random_instance(seed)
        inner = [
            [(w, rand_distribution(space, rng)) for w in [Fraction(1, 2), Fraction(1, 2)]]
            for _ in range(2)
        ]
        outer = [Fraction(1, 3), Fraction(2, 3)]
        # flatten the outer mixture of mixtures two ways
        left = flatten([(w, flatten(mix)) for w, mix in zip(outer, inner)])
        right = flatten(
            [(w * wi, d) for w, mix in zip(outer, inner) for wi, d in mix]
        )
        assert left == right


class TestKernels:
    def test_kleisli_sum_example(self):
        # direct evaluation of the Kleisli sum
        z = FiniteSpace(("z",))
        t = StochasticKernel(z, UV, {"z": uniform(UV)})
        s = StochasticKernel(UV, AB, {"u": dirac("a", AB), "v": dirac("b", AB)})
        st_ = kleisli_compose(s, t)
        assert st_("z") == uniform(AB)

    def test_dirac_kernel_relabels(self):
        z = FiniteSpace(("z1", "z2"))
        t = StochasticKernel(z, UV, {"z1": dirac("u", UV), "z2": uniform(UV)})
        s = deterministic_kernel({"u": "a", "v": "b"}, UV, AB)
        out = kleisli_compose(s, t)
        assert out("z1") == dirac("a", AB)
        assert out("z2") == uniform(AB)

    def test_space_mismatch(self):
        s = deterministic_kernel({"u": "a", "v": "b"}, UV, AB)
        with pytest.raises(DomainMismatchError):
            kleisli_compose(s, s)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({"u": uniform(AB)}, "kernel has no row for source point 'v'"),
            ({"u": uniform(AB), "v": uniform(UV)}, "row at 'v' lives on the wrong space"),
            (
                {"u": uniform(AB), "v": uniform(AB), "w": uniform(AB), "x": uniform(AB)},
                "rows given for unknown points ['w', 'x']",
            ),
        ],
        ids=["missing", "wrong-space", "unknown"],
    )
    def test_rows_must_match_the_spaces(self, rows, message):
        with pytest.raises(DomainMismatchError) as err:
            StochasticKernel(UV, AB, rows)
        assert str(err.value) == message

    def test_unknown_source_point_and_wrong_input_space(self):
        s = deterministic_kernel({"u": "a", "v": "b"}, UV, AB)
        with pytest.raises(DomainMismatchError) as err:
            s("a")
        assert str(err.value) == "'a' is not a source point"
        with pytest.raises(DomainMismatchError) as err:
            kernel_apply(s, uniform(AB))
        assert str(err.value) == "distribution space does not match kernel source"

    def test_equal_kernels_hash_equally(self):
        rows = {"a": dirac("b", AB), "b": uniform(AB)}
        k1 = StochasticKernel(AB, AB, rows)
        k2 = StochasticKernel(AB, AB, dict(reversed(rows.items())))
        assert k1 == k2
        assert hash(k1) == hash(k2)
        assert len({k1, k2}) == 1

    def test_equality_with_another_type_is_not_implemented(self):
        d = uniform(AB)
        s = deterministic_kernel({"u": "a", "v": "b"}, UV, AB)
        assert d.__eq__(AB) is NotImplemented and s.__eq__(d) is NotImplemented
        assert d != AB and s != d
        assert s == deterministic_kernel({"u": "a", "v": "b"}, UV, AB)
        assert s != deterministic_kernel({"u": "b", "v": "a"}, UV, AB)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_kleisli_associativity(self, seed):
        rng = random.Random(seed)
        sp = [rand_space(rng, 5, p) for p in "xyzw"]
        kernels = [
            StochasticKernel(
                sp[i + 1], sp[i], {y: rand_distribution(sp[i], rng) for y in sp[i + 1]}
            )
            for i in range(3)
        ]
        s, t, u = kernels
        assert kleisli_compose(kleisli_compose(s, t), u) == kleisli_compose(
            s, kleisli_compose(t, u)
        )


class TestKernelApply:
    def test_deterministic_kernel_is_pushforward(self):
        f = {"u": "a", "v": "b"}
        s = deterministic_kernel(f, UV, AB)
        q = dist(UV, u="1/4", v="3/4")
        assert kernel_apply(s, q) == pushforward(q, f, AB)

    def test_unit_law(self):
        s = StochasticKernel(UV, AB, {"u": dist(AB, a="1/3", b="2/3"), "v": uniform(AB)})
        assert kernel_apply(s, dirac("u", UV)) == s("u")

    def test_hand_mixture(self):
        # 1/4 * 1 + 3/4 * 1/3 = 1/2
        s = StochasticKernel(
            UV, AB, {"u": dirac("a", AB), "v": dist(AB, a="1/3", b="2/3")}
        )
        q = dist(UV, u="1/4", v="3/4")
        assert kernel_apply(s, q) == uniform(AB)


class TestDisintegration:
    def test_hand_ratio(self):
        sp = FiniteSpace(("a", "b", "c", "d"))
        f = {"a": "u", "b": "u", "c": "v", "d": "v"}
        dis = disintegrate(uniform(sp), f, UV)
        assert dis("u") == dist(sp, a="1/2", b="1/2")
        assert dis("v") == dist(sp, c="1/2", d="1/2")

    def test_identity_fibers_are_dirac(self):
        d = dist(AB, a="1/3", b="2/3")
        dis = disintegrate(d, {"a": "a", "b": "b"}, AB)
        assert dis("a") == dirac("a", AB)
        assert dis("b") == dirac("b", AB)

    def test_null_fiber_flagging(self):
        d = dirac("a", AB)
        dis = disintegrate(d, {"a": "u", "b": "v"}, UV)
        assert dis("v") == dirac("b", AB)  # uniform on the singleton fiber

    def test_empty_fiber_uniform_fallback(self):
        d = uniform(AB)
        dis = disintegrate(d, {"a": "u", "b": "u"}, UV)
        assert dis("v") == uniform(AB)

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, seed):
        rng, space = random_instance(seed)
        target = rand_space(rng, 4, "y")
        f = rand_map(rng, space, target)
        p = rand_distribution(space, rng)
        dis = disintegrate(p, f, target)
        assert kernel_apply(dis, pushforward(p, f, target)) == p


class TestSparseAgainstDenseReference:
    """kernel_apply visits only supports; the reference sums every entry."""

    @staticmethod
    def fiber_instance(rng):
        xs = rand_space(rng, 12, "x")
        ys = rand_space(rng, min(5, len(xs)), "y")
        f = rand_map(rng, xs, ys, onto=True)
        return xs, ys, f, rand_fiber_kernel(rng, ys, xs, f)

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_kernel_apply_matches_reference(self, seed):
        rng = random.Random(seed)
        xs, ys, _, s = self.fiber_instance(rng)
        q = rand_distribution(ys, rng)  # zero entries included
        out = kernel_apply(s, q)
        want = dense_kernel_apply(s, q)
        assert [out(x) for x in xs] == [want[x] for x in xs]
        assert out.support() == tuple(x for x in xs if want[x] > 0)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_kernel_apply_with_overlapping_rows_matches_reference(self, seed):
        # rows that are not fiber-supported share points, so a point gets
        # a product from several rows and the first one is not the total
        rng = random.Random(seed)
        xs = rand_space(rng, 8, "x")
        ys = rand_space(rng, 5, "y")
        s = StochasticKernel(ys, xs, {y: rand_distribution(xs, rng) for y in ys})
        q = rand_distribution(ys, rng)
        out = kernel_apply(s, q)
        want = dense_kernel_apply(s, q)
        assert [out(x) for x in xs] == [want[x] for x in xs]
        assert out.support() == tuple(x for x in xs if want[x] > 0)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_kleisli_compose_matches_reference(self, seed):
        rng = random.Random(seed)
        xs, ys, _, s = self.fiber_instance(rng)
        zs = rand_space(rng, min(4, len(ys)), "z")
        g = rand_map(rng, ys, zs, onto=True)
        t = rand_fiber_kernel(rng, zs, ys, g)
        st_ = kleisli_compose(s, t)
        for z in zs:
            want = dense_kernel_apply(s, t(z))
            assert [st_(z)(x) for x in xs] == [want[x] for x in xs]
