"""Score probabilistic forecasts with the relative-entropy machinery.

Shows three views of the same scoring rule: the empirical log score of a
forecast log, sequential scoring where each forecaster is charged only
for the change relative to the previous forecast, and a properness audit
confirming that truthful reporting is the unique optimum.
"""

import random
from fractions import Fraction

from kernelflow import (
    FiniteDistribution,
    FiniteSpace,
    ForecastRecord,
    empirical_log_score,
    kl_score,
    properness_audit,
    sequential_scores,
)


def main() -> None:
    outcomes = FiniteSpace(("H", "T"))

    def forecast(h):
        return FiniteDistribution(outcomes, {"H": Fraction(h), "T": 1 - Fraction(h)})

    print("== empirical log score ==")
    log = [
        ForecastRecord(1, "alice", forecast("2/3"), "H"),
        ForecastRecord(2, "alice", forecast("1/2"), "T"),
        ForecastRecord(3, "alice", forecast("3/4"), "H"),
    ]
    report = empirical_log_score(log)
    for rnd, score in report.per_round:
        print(f"  round {rnd}: {score:.9f}")
    print(f"  total: {report.total:.9f}")

    print("\n== sequential scoring against a known truth ==")
    truth = forecast("3/5")
    chain = [forecast("1/4"), forecast("1/2"), forecast("3/5")]
    deltas = sequential_scores(truth, chain)
    print(f"  opening score: {deltas[0]:.9f}")
    for i, d in enumerate(deltas[1:], start=2):
        sign = "improved" if d > 0 else "worsened"
        print(f"  forecaster {i} {sign} the position by {abs(d):.9f}")
    print(f"  deltas telescope: sum {sum(deltas[1:]):.9f} "
          f"= first {deltas[0]:.9f} - last {kl_score(truth, chain[-1]):.9f}")

    print("\n== properness audit ==")
    trials = 500
    violations = properness_audit(outcomes, trials=trials, seed=7)
    print(f"  {trials} random (p, q) grid pairs, {len(violations)} violations")

    def hedged(p, q):  # deliberately improper: rewards overconfidence
        top = max(q.space, key=q)
        return kl_score(p, FiniteDistribution(q.space, {top: 1}))

    rng = random.Random(7)
    caught = properness_audit(outcomes, trials=50, seed=rng.randint(0, 10**6), scorer=hedged)
    print(f"  deliberately improper scorer: {len(caught)} violations caught")


if __name__ == "__main__":
    main()
