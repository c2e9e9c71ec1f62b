"""The relative-entropy functor on finite morphisms and its law checkers.

Values live in Lawvere's [0, inf], stored as IEEE floats with math.inf
for the infinite branch.  IEEE arithmetic already does the sums
(math.fsum included), differences, comparisons and printing of inf.  No
code here multiplies inf by 0, where IEEE gives nan: convex_decompose
weights only fibers of positive q(y).  The one convention code handles
is inf - inf, which has no value and is rejected where it can arise
(scoring.sequential_scores).  Each per-point
term forms the probability ratio exactly, as a numerator and denominator
of ints reduced by their gcd (the pair Fraction division would give,
without its overhead), before a single double-precision log, so a
morphism with an optimal hypothesis sums literal zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainMismatchError
from .pairs import CoherentPair, compose_pairs

INF = math.inf
_FUNCTORIALITY_TOL = 1e-10  # |residual| below which the identity holds
_LSC_TOL = 1e-9  # how far the target may sit above the liminf estimate


def _ln_ratio(num: int, den: int) -> float:
    """ln(num / den) for positive ints in lowest terms: a log of each, so
    no overflow for huge exact ratios, and exact 0.0 when they are equal."""
    if num == den:
        return 0.0
    return math.log(num) - math.log(den)


def _kl(pairs, m) -> float:
    """KL of the (point, mass) pairs against m, in nats; inf when m has no
    mass at one of the points."""
    terms = []
    for x, a in pairs:
        mx = m(x)
        mn = mx.numerator
        if mn == 0:
            return INF
        an, ad = a.numerator, a.denominator
        # a / mx in lowest terms, as ints: the pair Fraction would hold
        num = an * mx.denominator
        den = ad * mn
        g = math.gcd(num, den)
        # an / ad is float(a): one correctly rounded int division
        terms.append(an / ad * _ln_ratio(num // g, den // g))
    return max(0.0, math.fsum(terms))


@dataclass(frozen=True)
class ReValue:
    """Relative entropy of a morphism."""

    value: float


def re_fin(pair: CoherentPair) -> ReValue:
    """Relative entropy of a coherent pair: KL of p against s applied to q.

    Infinite exactly when the pair is not absolutely coherent.
    """
    return ReValue(_kl(pair.p.items(), pair.hypothesis_pushforward()))


@dataclass(frozen=True)
class LocalReDecomposition:
    """Per-fiber relative entropies and their q-weighted total."""

    entries: tuple[tuple[str, Fraction, float], ...]
    total: float


def convex_decompose(pair: CoherentPair) -> LocalReDecomposition:
    """Split the pair's relative entropy into q-weighted local values.

    The entry at y is the relative entropy of the morphism restricted to
    the fiber over y, KL(p_y || s_y) for the disintegration row p_y of p.

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
        local = _kl(((x, px / qy) for x, px in fibers[y]), pair.s(y))
        entries.append((y, qy, local))
        # qy > 0, so an infinite local value makes the total infinite even
        # where float(qy) underflows to 0.0
        parts.append(INF if local == INF else float(qy) * local)
    return LocalReDecomposition(tuple(entries), math.fsum(parts))


@dataclass(frozen=True)
class FunctorialityCheck:
    """Both sides of the composition identity for relative entropy."""

    first: float
    second: float
    composite: float
    residual: float | None  # None when any value is infinite

    def holds(self) -> bool:
        if self.residual is None:
            return self.composite == self.first + self.second
        return abs(self.residual) < _FUNCTORIALITY_TOL


def check_functoriality(first: CoherentPair, second: CoherentPair) -> FunctorialityCheck:
    """Compare RE(second . first) against RE(first) + RE(second)."""
    composite = compose_pairs(first, second)
    a = re_fin(first).value
    b = re_fin(second).value
    c = re_fin(composite).value
    return FunctorialityCheck(a, b, c, None if INF in (a, b, c) else c - a - b)


@dataclass(frozen=True)
class LscCheck:
    liminf_est: float
    satisfied: bool


def check_lsc_on_sequence(target: CoherentPair, approximants: list[CoherentPair]) -> LscCheck:
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
    return LscCheck(liminf, value <= liminf + _LSC_TOL)
