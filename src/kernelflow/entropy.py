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
without its overhead), and takes a log of each of the two ints; a point
whose two masses are equal adds no term, so a morphism with an optimal
hypothesis scores exactly 0.0.  One kernel, _kl, takes every such term as
a row of ints, for this module and for scoring.

No hypothesis applied to a distribution is built: pairs._fiber_rows reads
_kl's rows off the fibers, (s . w)(x) = w(f x) s_{f x}(x) for a weight w
on Y, with w = q for re_fin and the composite's w = t . m for
check_functoriality.  convex_decompose weights its rows by p_y, not p, so
it groups p's support by fiber itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainMismatchError
from .finite import ZERO
from .pairs import CoherentPair, _fiber_rows

INF = math.inf
_FUNCTORIALITY_TOL = 1e-10  # |residual| below which the identity holds
_LSC_TOL = 1e-9  # how far the target may sit above the liminf estimate


def _kl(rows) -> float:
    """KL in nats of the weights an / ad against the masses mn / md, given
    as int rows (an, ad, mn, md) with an > 0; inf at the first zero mass.

    Neither fraction need be in lowest terms: the ratio is reduced here,
    and int true division rounds the weight correctly either way.
    """
    terms = []
    for an, ad, mn, md in rows:
        if not mn:
            return INF
        num = an * md
        den = ad * mn
        # equal masses add no term; fsum is exact, so a 0.0 would add nothing
        if num != den:
            # the ratio in lowest terms, the pair Fraction division would
            # give, and a log of each int, so a huge exact ratio cannot
            # overflow; an / ad is the weight's float, correctly rounded
            g = math.gcd(num, den)
            terms.append(an / ad * (math.log(num // g) - math.log(den // g)))
    return max(0.0, math.fsum(terms))


@dataclass(frozen=True)
class ReValue:
    """Relative entropy of a morphism."""

    value: float


def re_fin(pair: CoherentPair) -> ReValue:
    """Relative entropy of a coherent pair: KL of p against s applied to q.

    Infinite exactly when the pair is not absolutely coherent.  The rows
    come from pairs._fiber_rows with w = q.
    """
    return ReValue(_kl(_fiber_rows(pair)))


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
    rows = pair.s.rows
    fibers: dict[str, list[tuple[int, int, int, int]]] = {}
    for x, px in pair.p.items():
        y = pair.f[x]
        sx = rows[y].mass.get(x, ZERO)
        fibers.setdefault(y, []).append((px.numerator, px.denominator, sx.numerator, sx.denominator))
    entries = []
    parts = []
    for y, qy in pair.q.items():
        qn, qd = qy.numerator, qy.denominator
        # p_y(x) = p(x) / q(y) as the ints pn qd over pd qn, not reduced
        local = _kl((pn * qd, pd * qn, sn, sd) for pn, pd, sn, sd in fibers[y])
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
    """Compare RE(second . first) against RE(first) + RE(second).

    The composite (g f, s . t) is not built.  Its hypothesis applied to m
    is s . w for the weight w(y) = m(g y) t_{g y}(y) = (t . m)(y), which is
    the mass column of RE(second)'s rows, so both come from
    pairs._fiber_rows.  The value is re_fin of compose_pairs(first, second),
    bit for bit.
    """
    if first.q != second.p:
        raise DomainMismatchError("middle objects do not match")
    rows = list(_fiber_rows(second))
    weight = {y: (mn, md) for y, (_, _, mn, md) in zip(second.p.mass, rows)}
    a = re_fin(first).value
    b = _kl(rows)
    c = _kl(_fiber_rows(first, weight))
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
