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
without its overhead), before a single double-precision log, and a point
whose two masses are equal adds no term, so a morphism with an optimal
hypothesis scores exactly 0.0.  One kernel, _kl, takes every such term as
a row of ints, for this module and for scoring.

The hypothesis applied to q is never built: (s . q)(x) = q(f x) s_{f x}(x).
The sum over y of q(y) s_y(x) has that one term because the pair is
coherent at every y, so each row s_y lives on the fiber over y and puts
no mass on x unless y = f x.  The identity is exact, not q-almost
everywhere, and re_fin and convex_decompose read the masses off the
fibers.  check_functoriality reads the composite's off both pairs'
fibers the same way, so it builds neither the composite kernel nor the
composite pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainMismatchError
from .finite import ZERO
from .pairs import CoherentPair

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

    Infinite exactly when the pair is not absolutely coherent.  (s . q)(x)
    is read off the fiber as q(f x) s_{f x}(x), without building s . q.
    """
    f, q, rows = pair.f, pair.q.mass, pair.s.rows

    def terms():
        for x, px in pair.p.items():
            y = f[x]
            qy = q[y]
            sx = rows[y].mass.get(x, ZERO)
            yield (px.numerator, px.denominator,
                   qy.numerator * sx.numerator, qy.denominator * sx.denominator)

    return ReValue(_kl(terms()))


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

    The composite (g f, s . t) is not built.  Its hypothesis applied to
    its target distribution m, read off both pairs' fibers, is
    m(z) t_z(f x) s_{f x}(x) at x, with z = g(f x): the composite row
    (s . t)_z(x) sums t_z(y) s_y(x) over y, and only y = f x adds mass.
    The value is re_fin of compose_pairs(first, second), bit for bit.
    """
    if first.q != second.p:
        raise DomainMismatchError("middle objects do not match")
    f, s_rows = first.f, first.s.rows
    g, t_rows, m = second.f, second.s.rows, second.q.mass

    def terms():
        for x, px in first.p.items():
            y = f[x]
            z = g[y]
            mz = m[z]
            ty = t_rows[z].mass.get(y, ZERO)
            sx = s_rows[y].mass.get(x, ZERO)
            yield (px.numerator, px.denominator,
                   mz.numerator * ty.numerator * sx.numerator,
                   mz.denominator * ty.denominator * sx.denominator)

    a = re_fin(first).value
    b = re_fin(second).value
    c = _kl(terms())
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
