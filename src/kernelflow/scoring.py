"""Proper scoring of probabilistic forecasts.

The canonical score is the relative entropy KL(truth || forecast): the
loss of forecasting q about a system behaving as p.  It is the score
induced by viewing a forecast as a hypothesis on a singleton-target
morphism, which makes it strictly proper, additive under composition and
zero exactly on perfect forecasts.  Raw log loss is provided separately
for outcome-only data; its expectation exceeds the KL score by the
truth's Shannon entropy, a constant in the forecast.  A forecaster who
conditions on another's output is a hypothesis kernel on a morphism, and
entropy.convex_decompose gives its score, in total and per scenario.

All scores are losses: smaller is better.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .entropy import INF, _kl
from .errors import DomainMismatchError, IndeterminateScoreError
from .finite import ZERO, FiniteDistribution, FiniteSpace


@dataclass(frozen=True, slots=True)
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
    if len({r.forecaster for r in log}) != 1:
        raise DomainMismatchError("log mixes forecasters; score them separately")
    seen = set()
    rows = []
    for rec in sorted(log, key=lambda r: r.round):
        if rec.round in seen:
            raise DomainMismatchError(f"duplicate round {rec.round}")
        seen.add(rec.round)
        mass = rec.forecast(rec.outcome)
        # -ln q(outcome) is the KL of the point mass at the outcome against q
        rows.append((rec.round, _kl(((1, 1, mass.numerator, mass.denominator),))))
    return ScoreReport(tuple(rows))


def kl_score(truth: FiniteDistribution, forecast: FiniteDistribution) -> float:
    """KL(truth || forecast) in nats, for two distributions on one space.

    This is the relative entropy of the singleton-target pair: its
    hypothesis applied to the point mass on its one target point is the
    forecast itself, so the KL is computed here directly.
    """
    return _kl_scorer(truth)(forecast)


def _kl_scorer(truth: FiniteDistribution) -> Callable[[FiniteDistribution], float]:
    """kl_score(truth, .), with truth split into ints once for all forecasts."""
    space = truth.space
    split = [(x, t.numerator, t.denominator) for x, t in truth.items()]

    def score(forecast: FiniteDistribution) -> float:
        # a parsed log's forecasts share one space object: "is" settles
        # them without the dataclass __eq__
        if forecast.space is not space and forecast.space != space:
            raise DomainMismatchError("distributions live on different spaces")
        mass = forecast.mass
        rows = []
        for x, tn, td in split:
            m = mass.get(x, ZERO)
            rows.append((tn, td, m.numerator, m.denominator))
        return _kl(rows)

    return score


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
    score = _kl_scorer(truth)
    scores = [score(q) for q in forecasts]
    out = [scores[0]]
    for i in range(1, len(scores)):
        prev, cur = scores[i - 1], scores[i]
        if prev == INF and cur == INF:
            raise IndeterminateScoreError(
                f"indeterminate increment: forecasts {i} and {i + 1} "
                f"(positions in the given list) are both infinite",
                positions=(i, i + 1),
            )
        out.append(prev - cur)
    return out


def _random_rational_distribution(space: FiniteSpace, rng: random.Random) -> FiniteDistribution:
    """Masses k/d summing to 1, for a random d from |space| to max(64, |space|)."""
    d = rng.randint(len(space), max(64, len(space)))
    cuts = sorted(rng.randint(0, d) for _ in range(len(space) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    return FiniteDistribution(space, {x: Fraction(k, d) for x, k in zip(space, parts)})


def properness_audit(
    space: FiniteSpace,
    trials: int,
    seed: int,
    scorer: Callable[[FiniteDistribution, FiniteDistribution], float] = kl_score,
) -> tuple[str, ...]:
    """Randomized strict-properness check on exact rational grid points.

    Asserts scorer(p, p) = 0 <= scorer(p, q), strictly whenever the total
    variation sum(|p(x) - q(x)|) / 2, rounded to a float, exceeds 1e-9,
    and returns every violation found, an empty tuple when there is none.
    The default scorer passes at any trial count; a deliberately improper
    scorer is caught.
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
        elif float(sum(abs(p(x) - q(x)) for x in space) / 2) > 1e-9 and not cross > self_score:
            violations.append(f"trial {t}: no strict gap although p != q")
    return tuple(violations)
