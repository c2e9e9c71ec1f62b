"""The relative-entropy functor on finite morphisms and its law checkers.

Values live in Lawvere's [0, inf], stored as IEEE floats with math.inf
for the infinite branch.  IEEE arithmetic already does the sums
(math.fsum included), differences, comparisons and printing of inf, so
code handles only the two conventions it lacks: inf * 0 = 0 * inf = 0
(ext_mul, where IEEE gives nan) and inf - inf, which has no value and is
rejected where it can arise (scoring.sequential_scores).  Each per-point
term computes the probability ratio exactly as a Fraction before a single
double-precision log, so a morphism with an optimal hypothesis sums
literal zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainMismatchError
from .pairs import CoherentPair, compose_pairs

INF = math.inf


def ext_mul(a: float, b: float) -> float:
    """Multiplication in [0, inf] with the inf * 0 = 0 convention."""
    if a == 0 or b == 0:
        return 0.0
    return a * b


def _ln_fraction(r: Fraction) -> float:
    # log via integer numerator/denominator; exact 0.0 when r == 1 and no
    # overflow for huge exact ratios
    if r == 1:
        return 0.0
    return math.log(r.numerator) - math.log(r.denominator)


def _kl(pairs, m) -> tuple[float, dict[str, float] | None]:
    """KL of the (point, mass) pairs against m, in nats, with its per-point
    terms; (inf, None) when m has no mass at one of the points."""
    terms = {}
    for x, a in pairs:
        mx = m(x)
        if mx == 0:
            return INF, None
        terms[x] = float(a) * _ln_fraction(a / mx)
    return max(0.0, math.fsum(terms.values())), terms


def kl_divergence(p, m) -> float:
    """KL(p || m) for two exact distributions on one space, in nats."""
    if p.space != m.space:
        raise DomainMismatchError("distributions live on different spaces")
    return _kl(p.items(), m)[0]


@dataclass(frozen=True)
class ReValue:
    """Relative entropy of a morphism, with its per-point breakdown."""

    value: float
    absolutely_coherent: bool
    per_point_terms: dict[str, float] | None


def re_fin(pair: CoherentPair) -> ReValue:
    """Relative entropy of a coherent pair: KL of p against s applied to q.

    Infinite exactly when the pair is not absolutely coherent.
    """
    value, terms = _kl(pair.p.items(), pair.hypothesis_pushforward())
    if terms is None:
        return ReValue(INF, False, None)
    return ReValue(value, True, dict.fromkeys(pair.p.space, 0.0) | terms)


@dataclass(frozen=True)
class LocalReDecomposition:
    """Per-fiber relative entropies and their q-weighted total."""

    entries: tuple[tuple[str, Fraction, float], ...]
    total: float


def local_re(pair: CoherentPair, y: str) -> float:
    """Relative entropy of the morphism restricted to the fiber over y.

    Equals KL(p_y || s_y) where p_y is the disintegration row.  Only
    meaningful for q(y) > 0; zero-mass fibers are excluded from totals by
    the inf * 0 convention.
    """
    if y not in pair.q.space:
        raise DomainMismatchError(f"{y!r} is not a point of the observation space")
    qy = pair.q(y)
    if qy == 0:
        raise DomainMismatchError(
            f"local relative entropy at {y!r} is undefined: q({y}) = 0"
        )
    fiber = ((x, px / qy) for x, px in pair.p.items() if pair.f[x] == y)
    return _kl(fiber, pair.s(y))[0]


def convex_decompose(pair: CoherentPair) -> LocalReDecomposition:
    """Split the pair's relative entropy into q-weighted local values.

    The weighted total agrees with re_fin: exactly +inf together, and
    within accumulated log rounding when finite.  p's support is grouped
    into fibers once, so the cost is |supp p| + |Y|, not |X| * |Y|.
    """
    fibers: dict[str, list[tuple[str, Fraction]]] = {}
    for x, px in pair.p.items():
        fibers.setdefault(pair.f[x], []).append((x, px))
    entries = []
    parts = []
    for y, qy in pair.q.items():
        local = _kl(((x, px / qy) for x, px in fibers[y]), pair.s(y))[0]
        entries.append((y, qy, local))
        parts.append(ext_mul(float(qy), local))
    return LocalReDecomposition(tuple(entries), math.fsum(parts))


@dataclass(frozen=True)
class FunctorialityCheck:
    """Both sides of the composition identity for relative entropy."""

    first: float
    second: float
    composite: float
    residual: float | None          # set when all three values are finite
    infinite_agreement: bool | None  # set when any value is infinite

    def holds(self, tol: float = 1e-10) -> bool:
        if self.residual is not None:
            return abs(self.residual) < tol
        return bool(self.infinite_agreement)


def check_functoriality(first: CoherentPair, second: CoherentPair) -> FunctorialityCheck:
    """Compare RE(second . first) against RE(first) + RE(second)."""
    composite = compose_pairs(first, second)
    a = re_fin(first).value
    b = re_fin(second).value
    c = re_fin(composite).value
    if INF in (a, b, c):
        return FunctorialityCheck(a, b, c, None, c == a + b)
    return FunctorialityCheck(a, b, c, c - a - b, None)


@dataclass(frozen=True)
class LscCheck:
    liminf_est: float
    satisfied: bool


def check_lsc_on_sequence(
    target: CoherentPair, approximants: list[CoherentPair], tol: float = 1e-9
) -> LscCheck:
    """Spot-check lower semicontinuity along a caller-supplied sequence.

    The caller asserts that the approximants converge strongly to the
    target; this only compares the target's value against the minimum over
    the second half of the approximants, which stands in for the liminf,
    so early terms below the target do not count.
    """
    if not approximants:
        raise DomainMismatchError("need at least one approximant")
    tail = approximants[len(approximants) // 2:]
    liminf = min(re_fin(pair).value for pair in tail)
    value = re_fin(target).value
    return LscCheck(liminf, value <= liminf + tol)


def scaled_functor(c: float, pair: CoherentPair) -> float:
    """c times the pair's relative entropy, with inf * 0 = 0."""
    if c < 0:
        raise DomainMismatchError("scale must be nonnegative")
    return ext_mul(c, re_fin(pair).value)
