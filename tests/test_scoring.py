"""Forecast scoring: log loss, KL score, conditional and sequential scoring."""

import copy
import math
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelflow.entropy import INF, convex_decompose, re_fin
from kernelflow.errors import DomainMismatchError, IndeterminateScoreError
from kernelflow.finite import (
    FiniteDistribution,
    FiniteSpace,
    StochasticKernel,
    dirac,
    disintegrate,
    pushforward,
    uniform,
)
from kernelflow.pairs import CoherentPair, singleton_pair
from kernelflow.scoring import (
    ForecastRecord,
    empirical_log_score,
    kl_score,
    properness_audit,
    sequential_scores,
)

from helpers import rand_distribution, rand_space

seeds = st.integers(0, 2**32 - 1)

COIN = FiniteSpace(("H", "T"))


def coin(h):
    return FiniteDistribution(COIN, {"H": Fraction(h), "T": 1 - Fraction(h)})


class TestEmpiricalLogScore:
    def test_certainty_vindicated(self):
        rec = ForecastRecord(1, "alice", dirac("H", COIN), "H")
        report = empirical_log_score([rec])
        assert report.per_round == ((1, 0.0),)
        assert report.total == 0.0

    def test_two_thirds(self):
        rec = ForecastRecord(1, "alice", coin("2/3"), "H")
        report = empirical_log_score([rec])
        assert report.per_round[0][1] == pytest.approx(-math.log(2 / 3), abs=1e-12)

    def test_zero_mass_blowup(self):
        rec = ForecastRecord(1, "alice", dirac("H", COIN), "T")
        assert empirical_log_score([rec]).total == INF

    def test_locality_mutation_invariance(self):
        # changing mass on non-realized outcomes (holding the realized
        # outcome's mass fixed) must not move the score
        space = FiniteSpace(("a", "b", "c"))
        base = FiniteDistribution(
            space, {"a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 4)}
        )
        mutated = FiniteDistribution(
            space, {"a": Fraction(1, 2), "b": Fraction(1, 2), "c": Fraction(0)}
        )
        s1 = empirical_log_score([ForecastRecord(1, "f", base, "a")]).total
        s2 = empirical_log_score([ForecastRecord(1, "f", mutated, "a")]).total
        assert s1 == s2

    def test_additivity(self):
        recs = [
            ForecastRecord(1, "f", coin("2/3"), "H"),
            ForecastRecord(2, "f", coin("1/3"), "H"),
        ]
        partial = empirical_log_score(recs[:1]).total
        full = empirical_log_score(recs).total
        new = empirical_log_score(
            [ForecastRecord(2, "f", coin("1/3"), "H")]
        ).total
        assert full == pytest.approx(partial + new, abs=1e-15)

    def test_outcome_outside_space(self):
        with pytest.raises(DomainMismatchError):
            ForecastRecord(1, "f", coin("2/3"), "X")

    def test_record_is_frozen_slotted_and_copyable(self):
        rec = ForecastRecord(3, "f", coin("2/3"), "T")
        assert not hasattr(rec, "__dict__")
        for name in ("round", "forecaster", "forecast", "outcome"):
            with pytest.raises(FrozenInstanceError):
                setattr(rec, name, None)
        for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
            assert twin == rec and hash(twin) == hash(rec)

    def test_rejects_mixed_forecasters(self):
        recs = [
            ForecastRecord(1, "f", coin("2/3"), "H"),
            ForecastRecord(2, "g", coin("2/3"), "H"),
        ]
        with pytest.raises(DomainMismatchError):
            empirical_log_score(recs)

    def test_rejects_duplicate_round(self):
        recs = [
            ForecastRecord(1, "f", coin("2/3"), "H"),
            ForecastRecord(1, "f", coin("1/3"), "T"),
        ]
        with pytest.raises(DomainMismatchError):
            empirical_log_score(recs)

    def test_rejects_empty_log(self):
        with pytest.raises(DomainMismatchError):
            empirical_log_score([])


class TestKlScore:
    def test_perfect_forecast(self):
        assert kl_score(coin("1/3"), coin("1/3")) == 0.0

    def test_hand_value(self):
        got = kl_score(coin("1/2"), coin("1/4"))
        assert got == pytest.approx(0.5 * math.log(4 / 3), abs=1e-9)

    def test_absolute_continuity_failure(self):
        assert kl_score(coin("1/2"), dirac("H", COIN)) == INF

    def test_space_mismatch(self):
        with pytest.raises(DomainMismatchError):
            kl_score(coin("1/2"), uniform(FiniteSpace(("a", "b"))))
        # the same labels in another order make another space
        with pytest.raises(DomainMismatchError):
            sequential_scores(coin("1/2"), [coin("1/3"), uniform(FiniteSpace(("T", "H")))])

    def test_equal_but_distinct_space_scores(self):
        # the scorer settles a shared space by identity, and an equal space
        # that is another object by equality
        twin = FiniteSpace(("H", "T"))
        assert twin is not COIN
        forecast = FiniteDistribution(twin, {"H": Fraction(1, 4), "T": Fraction(3, 4)})
        assert kl_score(coin("1/2"), forecast) == kl_score(coin("1/2"), coin("1/4"))
        assert sequential_scores(coin("1/2"), [coin("1/3"), forecast]) == sequential_scores(
            coin("1/2"), [coin("1/3"), coin("1/4")]
        )

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_re_fin(self, seed):
        rng = random.Random(seed)
        space = rand_space(rng, 6, "x")
        truth = rand_distribution(space, rng)
        forecast = rand_distribution(space, rng)
        direct = re_fin(singleton_pair(truth, forecast)).value
        assert kl_score(truth, forecast) == direct  # bit-identical


def coin_joint_pair():
    """Fair p x p coin seen through the first toss, with the posterior-mean
    conditional forecasts (2/3, 1/3) and (1/3, 2/3)."""
    both = FiniteSpace(("HH", "HT", "TH", "TT"))
    f = {"HH": "H", "HT": "H", "TH": "T", "TT": "T"}
    s = StochasticKernel(
        COIN,
        both,
        {
            "H": FiniteDistribution(both, {"HH": Fraction(2, 3), "HT": Fraction(1, 3)}),
            "T": FiniteDistribution(both, {"TH": Fraction(1, 3), "TT": Fraction(2, 3)}),
        },
    )
    return CoherentPair(f, s, uniform(both), uniform(COIN))


def forecaster_pair(joint, rows):
    """A forecaster who sees which candidate forecast g was issued: X holds
    the points (x, g) of outcome x and candidate g, f projects each to g,
    p is joint on X, and the row at g is the distribution rows[g] on COIN,
    placed on g's fibre."""
    xs = FiniteSpace(tuple(f"{x},{g}" for x in COIN for g in rows))
    f = {f"{x},{g}": g for x in COIN for g in rows}
    s = StochasticKernel(
        FiniteSpace(tuple(rows)),
        xs,
        {g: FiniteDistribution(xs, {f"{x},{g}": r(x) for x in COIN}) for g, r in rows.items()},
    )
    return CoherentPair(f, s, FiniteDistribution(xs, joint))


# outcome and candidate forecast correlated: P(H | gH) = 3/4, P(H | gT) = 1/4
CORRELATED = {
    "H,gH": Fraction(3, 8),
    "T,gH": Fraction(1, 8),
    "H,gT": Fraction(1, 8),
    "T,gT": Fraction(3, 8),
}


class TestConditionalScore:
    def test_coin_example(self):
        dec = convex_decompose(coin_joint_pair())
        # both locals are KL((1/2,1/2) || (2/3,1/3)) by symmetry
        local = 0.5 * math.log(3 / 4) + 0.5 * math.log(3 / 2)
        for _, weight, l in dec.entries:
            assert weight == Fraction(1, 2)
            assert l == pytest.approx(local, abs=1e-12)
        assert dec.total == pytest.approx(local, abs=1e-12)
        assert dec.total == pytest.approx(
            re_fin(coin_joint_pair()).value, abs=1e-12
        )

    def test_optimal_conditionals_score_zero(self):
        both = FiniteSpace(("HH", "HT", "TH", "TT"))
        f = {"HH": "H", "HT": "H", "TH": "T", "TT": "T"}
        p = uniform(both)
        pair = CoherentPair(f, disintegrate(p, f, COIN), p, pushforward(p, f, COIN))
        dec = convex_decompose(pair)
        assert dec.total == 0.0
        assert all(l == 0.0 for _, _, l in dec.entries)

    @pytest.mark.parametrize(
        "joint, rows, want, tol",
        [
            # the true conditionals score zero
            (CORRELATED, {"gH": coin("3/4"), "gT": coin("1/4")}, 0.0, 0.0),
            # ignoring the forecast: E_q KL(p_g || r) for the constant row r
            (
                CORRELATED,
                {"gH": coin("1/2"), "gT": coin("1/2")},
                0.5 * kl_score(coin("3/4"), coin("1/2")) + 0.5 * kl_score(coin("1/4"), coin("1/2")),
                1e-12,
            ),
            # a single candidate reduces to the KL score
            (
                {"H,g": Fraction(1, 2), "T,g": Fraction(1, 2)},
                {"g": coin("1/4")},
                kl_score(coin("1/2"), coin("1/4")),
                0.0,
            ),
        ],
        ids=["true-conditionals", "ignores-forecast", "single-candidate"],
    )
    def test_forecaster_of_a_forecaster(self, joint, rows, want, tol):
        pair = forecaster_pair(joint, rows)
        assert abs(convex_decompose(pair).total - want) <= tol
        assert abs(re_fin(pair).value - want) <= tol


class TestSequentialScores:
    def test_second_forecaster_perfect(self):
        truth = coin("1/2")
        q1 = coin("1/4")
        out = sequential_scores(truth, [q1, truth])
        assert out[0] == kl_score(truth, q1)
        assert out[1] == pytest.approx(kl_score(truth, q1), abs=1e-15)

    def test_constant_forecasts_score_zero(self):
        truth = coin("1/2")
        q = coin("1/3")
        out = sequential_scores(truth, [q, q, q])
        assert out[1] == 0.0 and out[2] == 0.0

    def test_signed_deltas(self):
        truth = coin("1/2")
        out = sequential_scores(truth, [coin("1/2"), coin("1/4")])
        assert out[1] < 0  # the newcomer is worse: negative reward

    def test_infinite_then_finite(self):
        truth = coin("1/2")
        out = sequential_scores(truth, [dirac("H", COIN), coin("1/2")])
        assert out[0] == INF and out[1] == INF  # infinite credit for the rescue

    def test_finite_then_infinite(self):
        truth = coin("1/2")
        out = sequential_scores(truth, [coin("1/2"), dirac("H", COIN)])
        assert out[1] == -INF

    def test_indeterminate_increment(self):
        truth = coin("1/2")
        with pytest.raises(IndeterminateScoreError) as err:
            sequential_scores(truth, [dirac("H", COIN), dirac("T", COIN)])
        assert err.value.positions == (1, 2)
        assert "forecasts 1 and 2 (positions in the given list)" in str(err.value)

    def test_empty(self):
        with pytest.raises(DomainMismatchError):
            sequential_scores(coin("1/2"), [])

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_telescoping(self, seed):
        rng = random.Random(seed)
        space = rand_space(rng, 5, "x")
        truth = rand_distribution(space, rng)
        forecasts = [rand_distribution(space, rng, full=True) for _ in range(5)]
        out = sequential_scores(truth, forecasts)
        lhs = math.fsum(out[1:])
        rhs = kl_score(truth, forecasts[0]) - kl_score(truth, forecasts[-1])
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPropernessAudit:
    def test_kl_score_is_proper(self):
        space = FiniteSpace(("a", "b", "c", "d"))
        assert properness_audit(space, trials=1000, seed=2024) == ()

    def test_exhaustive_two_point_grid(self):
        # every p, q on the 1/64 grid of a 2-point space
        grid = [Fraction(k, 64) for k in range(65)]
        for ph in grid:
            p = FiniteDistribution(COIN, {"H": ph, "T": 1 - ph})
            assert kl_score(p, p) == 0.0
            for qh in grid:
                q = FiniteDistribution(COIN, {"H": qh, "T": 1 - qh})
                s = kl_score(p, q)
                if ph == qh:
                    assert s == 0.0
                else:
                    assert s > 0.0

    def test_negated_kl_is_caught(self):
        improper = lambda p, q: -kl_score(p, q)
        assert properness_audit(COIN, trials=50, seed=7, scorer=improper)  # sensitivity check

    def test_constant_scorer_violations_are_named(self):
        # S(p, p) = 1 is not 0, and S(p, q) = S(p, p) has no strict gap
        violations = properness_audit(COIN, trials=1, seed=7, scorer=lambda p, q: 1.0)
        assert violations == (
            "trial 0: S(p,p) = 1.0, not 0",
            "trial 0: no strict gap although p != q",
        )

    @pytest.mark.parametrize("size", [65, 300])
    def test_spaces_beyond_the_grid_denominator(self, size):
        # the denominator is drawn from |space| to max(64, |space|), so a
        # space with more than 64 points still gets a nonempty range
        space = FiniteSpace([f"x{i}" for i in range(size)])
        assert properness_audit(space, trials=1, seed=0) == ()

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(DomainMismatchError):
            properness_audit(COIN, trials=0, seed=1)
