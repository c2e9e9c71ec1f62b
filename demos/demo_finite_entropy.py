"""Walk through the finite relative-entropy functor on a worked example.

Two fair coin tosses are observed; only the first toss is reported.  A
forecaster supplies a hypothesis kernel guessing the full outcome from
the report.  The script validates the pair, evaluates its relative
entropy, decomposes it scenario by scenario, and demonstrates that
composing with a second (optimal) morphism adds entropies exactly.
"""

from fractions import Fraction

from kernelflow import (
    CoherentPair,
    FiniteDistribution,
    FiniteSpace,
    StochasticKernel,
    check_functoriality,
    convex_decompose,
    disintegration_pair,
    is_absolutely_coherent,
    pushforward,
    re_fin,
    uniform,
    validate_coherent,
)


def main() -> None:
    pairs = FiniteSpace(("HH", "HT", "TH", "TT"))
    toss = FiniteSpace(("H", "T"))
    f = {"HH": "H", "HT": "H", "TH": "T", "TT": "T"}
    p = uniform(pairs)
    q = pushforward(p, f, toss)

    s = StochasticKernel(
        toss,
        pairs,
        {
            "H": FiniteDistribution(pairs, {"HH": Fraction(2, 3), "HT": Fraction(1, 3)}),
            "T": FiniteDistribution(pairs, {"TH": Fraction(1, 3), "TT": Fraction(2, 3)}),
        },
    )

    print("== validation ==")
    violations = validate_coherent(f, s, p, q)
    print(f"coherent: {not violations}")

    pair = CoherentPair(f, s, p, q)
    value = re_fin(pair)
    print("\n== relative entropy ==")
    print(f"RE = {value.value:.12f}  (absolutely coherent: {is_absolutely_coherent(pair)})")

    print("\n== scenario decomposition ==")
    decomposition = convex_decompose(pair)
    for y, weight, local in decomposition.entries:
        print(f"  report {y}: weight {weight}, local RE {local:.12f}")
    print(f"  weighted total {decomposition.total:.12f}")

    print("\n== functoriality ==")
    collapse = disintegration_pair(q, {"H": "*", "T": "*"}, FiniteSpace(("*",)))
    check = check_functoriality(pair, collapse)
    print(f"  RE(first) + RE(second) = {check.first + check.second:.12f}")
    print(f"  RE(composite)          = {check.composite:.12f}")
    print(f"  residual               = {check.residual:.3g}")


if __name__ == "__main__":
    main()
