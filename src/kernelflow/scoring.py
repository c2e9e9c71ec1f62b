"""Proper scoring of probabilistic forecasts.

The canonical score is the relative entropy KL(truth || forecast): the
loss of forecasting q about a system behaving as p.  It is the score
induced by viewing a forecast as a hypothesis on a singleton-target
morphism, which makes it strictly proper, additive under composition and
zero exactly on perfect forecasts.  Raw log loss is provided separately
for outcome-only data; its expectation exceeds the KL score by the
truth's Shannon entropy, a constant in the forecast.

All scores are losses: smaller is better.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .entropy import (
    INF,
    LocalReDecomposition,
    _ln_fraction,
    convex_decompose,
    kl_divergence,
    re_fin,
)
from .errors import DomainMismatchError, IndeterminateScoreError
from .finite import FiniteDistribution, FiniteSpace, StochasticKernel
from .pairs import CoherentPair


@dataclass(frozen=True)
class ForecastRecord:
    round: int
    forecaster: str
    forecast: FiniteDistribution
    outcome: str

    def __post_init__(self):
        if self.outcome not in self.forecast.space:
            raise DomainMismatchError(
                f"round {self.round}: outcome {self.outcome!r} is not in the forecast space"
            )


@dataclass(frozen=True)
class ScoreReport:
    forecaster: str
    per_round: tuple[tuple[int, float], ...]

    @property
    def total(self) -> float:
        return math.fsum(s for _, s in self.per_round)


def empirical_log_score(log: Sequence[ForecastRecord]) -> ScoreReport:
    """Log loss per round: -ln of the mass given to the realized outcome.

    Depends only on probabilities of events that occurred, and is additive
    across rounds.
    """
    if not log:
        raise DomainMismatchError("empty forecast log")
    names = {r.forecaster for r in log}
    if len(names) != 1:
        raise DomainMismatchError("log mixes forecasters; score them separately")
    seen = set()
    rows = []
    for rec in sorted(log, key=lambda r: r.round):
        if rec.round in seen:
            raise DomainMismatchError(f"duplicate round {rec.round}")
        seen.add(rec.round)
        mass = rec.forecast(rec.outcome)
        score = INF if mass == 0 else -_ln_fraction(mass)
        rows.append((rec.round, score))
    return ScoreReport(next(iter(names)), tuple(rows))


def kl_score(truth: FiniteDistribution, forecast: FiniteDistribution) -> float:
    """Distributional score: relative entropy of the singleton-target pair.

    That pair's hypothesis applied to the point mass on its one target
    point is the forecast itself, so its relative entropy is
    KL(truth || forecast), computed here directly.
    """
    return kl_divergence(truth, forecast)


def conditional_score(joint_pair: CoherentPair) -> LocalReDecomposition:
    """Expected score of per-scenario conditional forecasts, weighted by q.

    Each entry is the score of the hypothesis row s_y against the true
    conditional p_y; the total matches the relative entropy of the joint
    morphism.
    """
    return convex_decompose(joint_pair)


def sequential_scores(
    truth: FiniteDistribution, forecasts: Sequence[FiniteDistribution]
) -> list[float]:
    """Score a chain of forecasters by how much each improved on the last.

    The first entry is the full score of the opening forecast; entry i is
    the signed loss delta score(q_{i-1}) - score(q_i), positive when the
    newcomer is worse; IEEE gives inf - x = inf and x - inf = -inf.  Two
    consecutive infinite scores would make the delta inf - inf and are
    rejected.
    """
    if not forecasts:
        raise DomainMismatchError("need at least one forecast")
    scores = [kl_score(truth, q) for q in forecasts]
    out = [scores[0]]
    for i in range(1, len(scores)):
        prev, cur = scores[i - 1], scores[i]
        if prev == INF and cur == INF:
            raise IndeterminateScoreError(
                f"indeterminate increment: rounds {i} and {i + 1} are both infinite",
                rounds=(i, i + 1),
            )
        out.append(prev - cur)
    return out


def product_space(x_space: FiniteSpace, f_space: FiniteSpace) -> FiniteSpace:
    """Labels "x|g" for each outcome x and candidate forecast g, x-major."""
    return FiniteSpace(tuple(f"{x}|{g}" for x in x_space for g in f_space))


def meta_kernel(
    x_space: FiniteSpace,
    f_space: FiniteSpace,
    rows: dict[str, FiniteDistribution],
) -> StochasticKernel:
    """Lift per-forecast distributions on X to fiber-supported product rows."""
    prod = product_space(x_space, f_space)
    lifted = {}
    for g in f_space:
        row = rows[g]
        if row.space != x_space:
            raise DomainMismatchError(f"row for {g!r} lives on the wrong space")
        lifted[g] = FiniteDistribution(prod, {f"{x}|{g}": row(x) for x in x_space})
    return StochasticKernel(f_space, prod, lifted)


def meta_score(
    joint: FiniteDistribution,
    first_forecaster_marginal: FiniteDistribution,
    second_forecaster: StochasticKernel,
) -> float:
    """Score a forecaster who conditions on another forecaster's output.

    joint is the true distribution on pairs (outcome, first forecast),
    living on a product space whose labels "x|g" end in the forecast
    coordinate g after the last "|".  The second forecaster supplies one
    distribution over the product space per candidate forecast, supported
    on that forecast's fiber.  The score is the expected KL between the
    true conditional and the supplied row.
    """
    f_space = second_forecaster.source
    proj = {}
    for label in joint.space:
        g = label.rpartition("|")[2]
        if g not in f_space:
            raise DomainMismatchError(
                f"joint point {label!r} projects to {g!r}, not a candidate forecast"
            )
        proj[label] = g
    pair = CoherentPair(proj, second_forecaster, joint)
    if pair.q != first_forecaster_marginal:
        raise DomainMismatchError(
            "joint's forecast marginal does not match the first forecaster's marginal"
        )
    return re_fin(pair).value


@dataclass(frozen=True)
class PropernessAudit:
    trials: int
    violations: tuple[str, ...]


def _random_rational_distribution(
    space: FiniteSpace, rng: random.Random, max_denominator: int = 64
) -> FiniteDistribution:
    d = rng.randint(len(space), max_denominator)
    cuts = sorted(rng.randint(0, d) for _ in range(len(space) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    return FiniteDistribution(space, {x: Fraction(k, d) for x, k in zip(space, parts)})


def total_variation(p: FiniteDistribution, q: FiniteDistribution) -> Fraction:
    return sum(abs(p(x) - q(x)) for x in p.space) / 2


def properness_audit(
    space: FiniteSpace,
    trials: int,
    seed: int,
    scorer: Callable[[FiniteDistribution, FiniteDistribution], float] = kl_score,
) -> PropernessAudit:
    """Randomized strict-properness check on exact rational grid points.

    Asserts scorer(p, p) = 0 <= scorer(p, q), strictly whenever p and q
    differ in total variation by more than 1e-9.  The default scorer
    passes at any trial count; a deliberately improper scorer is caught.
    """
    if trials < 1:
        raise DomainMismatchError("trials must be >= 1")
    rng = random.Random(seed)
    violations = []
    for t in range(trials):
        p = _random_rational_distribution(space, rng)
        q = _random_rational_distribution(space, rng)
        self_score = scorer(p, p)
        cross = scorer(p, q)
        if self_score != 0.0:
            violations.append(f"trial {t}: S(p,p) = {self_score!r}, not 0")
        if cross < self_score:
            violations.append(f"trial {t}: S(p,q) = {cross!r} < S(p,p) = {self_score!r}")
        elif float(total_variation(p, q)) > 1e-9 and not cross > self_score:
            violations.append(f"trial {t}: no strict gap although p != q")
    return PropernessAudit(trials, tuple(violations))
