"""Shared random-instance generators, independent oracles and law suites
for the exact layer.

The oracles here deliberately avoid the library's own code paths: KL sums
are plain float arithmetic over mass dicts.  The law suites take any
functor F(pair) -> [0, inf] and count the instances on which it breaks
one of the laws that single out c * RE.  Nothing here imports numpy or
kernelflow.borel, so the exact-layer tests run without numpy; the
estimator's oracles are in estimator_helpers.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from fractions import Fraction

from kernelflow.entropy import re_fin
from kernelflow.errors import DomainMismatchError
from kernelflow.finite import (
    FiniteDistribution,
    FiniteSpace,
    StochasticKernel,
    disintegrate,
    flatten,
    pushforward,
)
from kernelflow.pairs import CoherentPair, compose_pairs, disintegration_pair, singleton_pair

INF = math.inf


def ext_mul(a: float, b: float) -> float:
    """Multiplication in [0, inf] with the inf * 0 = 0 convention."""
    if a == 0 or b == 0:
        return 0.0
    return a * b


def labels(count: int, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def rand_space(rng: random.Random, max_size: int, prefix: str) -> FiniteSpace:
    return FiniteSpace(labels(rng.randint(1, max_size), prefix))


def rand_masses(rng: random.Random, count: int, max_den: int = 64, full: bool = False):
    """Random exact masses with a common denominator <= max_den."""
    lo = count if full else 1
    d = rng.randint(max(lo, 2), max(max_den, lo + 1))
    if full:
        # one unit everywhere, spread the rest
        parts = [1] * count
        for _ in range(d - count):
            parts[rng.randrange(count)] += 1
    else:
        parts = [0] * count
        for _ in range(d):
            parts[rng.randrange(count)] += 1
    return [Fraction(k, d) for k in parts]


def rand_distribution(
    space: FiniteSpace, rng: random.Random, max_den: int = 64, full: bool = False
) -> FiniteDistribution:
    masses = rand_masses(rng, len(space), max_den, full)
    return FiniteDistribution(space, dict(zip(space.points, masses)))


def rand_map(
    rng: random.Random, source: FiniteSpace, target: FiniteSpace, onto: bool = False
) -> dict:
    if not onto:
        return {x: rng.choice(target.points) for x in source}
    # surjective: seed one source point per target point, then fill randomly
    if len(source) < len(target):
        raise ValueError("source too small for a surjection")
    xs = list(source.points)
    rng.shuffle(xs)
    f = dict(zip(xs, target.points))
    for x in xs[len(target):]:
        f[x] = rng.choice(target.points)
    return f


def rand_coherent_pair(
    rng: random.Random,
    max_x: int = 8,
    max_y: int = 4,
    absolutely: bool | None = None,
    optimal: bool = False,
    x_space: FiniteSpace | None = None,
    p: FiniteDistribution | None = None,
    prefix: str = "x",
    y_prefix: str = "y",
) -> CoherentPair:
    """A random coherent pair; absolutely=True forces full fiber support,
    absolutely=False forces a genuine support violation (needs a fiber with
    two p-positive points, retried until found)."""
    while True:
        xs = x_space if x_space is not None else rand_space(rng, max_x, prefix)
        ys = rand_space(rng, min(max_y, len(xs)), y_prefix)
        f = rand_map(rng, xs, ys, onto=True)
        pp = p if p is not None else rand_distribution(xs, rng, full=True)
        q = pushforward(pp, f, ys)
        fibers = {y: [x for x in xs if f[x] == y] for y in ys}
        if absolutely is False:
            rich = [
                y
                for y in ys
                if len([x for x in fibers[y] if pp(x) > 0]) >= 2
            ]
            if not rich:
                if x_space is not None:
                    raise ValueError("given space cannot host a support violation")
                continue
        rows = {}
        broken = False
        for y in ys:
            fiber = fibers[y]
            if q(y) == 0:
                rows[y] = FiniteDistribution(xs, {fiber[0]: 1})
                continue
            if optimal:
                rows[y] = FiniteDistribution(xs, {x: pp(x) / q(y) for x in fiber})
                continue
            support = list(fiber)
            if absolutely is False and not broken and y in rich:
                drop = rng.choice([x for x in fiber if pp(x) > 0])
                support = [x for x in fiber if x != drop]
                broken = True
            masses = rand_masses(rng, len(support), full=absolutely is True)
            rows[y] = FiniteDistribution(xs, dict(zip(support, masses)))
        if absolutely is False and not broken:
            continue
        s = StochasticKernel(ys, xs, rows)
        return CoherentPair(f, s, pp, q)


def rand_composable_pairs(
    rng: random.Random,
    absolutely: bool | None = None,
    optimal: bool = False,
    second_absolutely: bool | None = None,
):
    """Two composable coherent pairs (X,p)->(Y,q)->(Z,m)."""
    if second_absolutely is None:
        second_absolutely = absolutely
    while True:
        first = rand_coherent_pair(rng, absolutely=absolutely, optimal=optimal)
        try:
            second = rand_coherent_pair(
                rng,
                max_y=3,
                absolutely=second_absolutely,
                optimal=optimal,
                x_space=first.q.space,
                p=first.q,
                y_prefix="z",
            )
        except ValueError:
            continue  # first.q cannot host the requested violation; redraw
        return first, second


def rand_fiber_kernel(
    rng: random.Random, source: FiniteSpace, target: FiniteSpace, f: dict
) -> StochasticKernel:
    """A kernel whose row at y is supported inside the fiber f^-1(y), given
    with explicit zero entries: some fiber points, and one point outside
    the fiber when there is one, are listed with mass 0."""
    rows = {}
    for y in source:
        fiber = [x for x in target if f[x] == y]
        masses = dict(zip(fiber, rand_masses(rng, len(fiber))))
        outside = [x for x in target if f[x] != y]
        if outside:
            masses[rng.choice(outside)] = Fraction(0)
        rows[y] = FiniteDistribution(target, masses)
    return StochasticKernel(source, target, rows)


def dense_kernel_apply(s: StochasticKernel, q: FiniteDistribution) -> dict:
    """Reference s applied to q: the plain Fraction double sum over every
    source and every target point, zero entries included."""
    out = {x: Fraction(0) for x in s.target.points}
    for y in s.source.points:
        row = s.rows[y]
        for x in s.target.points:
            out[x] += q(y) * row(x)
    return out


def fraction_pushforward(p: FiniteDistribution, f: dict, target: FiniteSpace) -> dict:
    """Reference f_*p: the plain Fraction sum over every point of p's space,
    zero masses included, as the mass at each point of target.  Raises the
    errors pushforward raises, at the first point of p's space that has one."""
    out = {y: Fraction(0) for y in target.points}
    for x in p.space.points:
        if x not in f:
            raise DomainMismatchError(f"map undefined at point {x!r}")
        if f[x] not in out:
            raise DomainMismatchError(f"map sends {x!r} to {f[x]!r}, outside the target space")
        out[f[x]] += p(x)
    return out


def unlimited_str(f: Fraction) -> str:
    """n/d by str(), with CPython's limit on int-to-str digits lifted while
    it runs and restored afterwards: the reference for format_fraction,
    which prints through decimal instead."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return f"{f.numerator}/{f.denominator}"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def ln_fraction(r: Fraction) -> float:
    """ln r for a positive Fraction, one log each of its numerator and
    denominator, and exact 0.0 when r == 1."""
    return 0.0 if r == 1 else math.log(r.numerator) - math.log(r.denominator)


def fraction_kl(pairs, m) -> float:
    """Reference KL of the (point, mass) pairs against m, with each ratio
    formed by Fraction division: float(a) times ln_fraction(a / m(x)), inf
    at the first point m gives no mass.  Reducing a / m(x) to lowest terms
    in ints gives the same numerator and denominator, so the library's
    values must equal these bit for bit."""
    terms = []
    for x, a in pairs:
        mx = m(x)
        if mx == 0:
            return INF
        terms.append(float(a) * ln_fraction(a / mx))
    return max(0.0, math.fsum(terms))


def dense_convex_decompose(pair: CoherentPair):
    """Reference per-fiber decomposition: for each y with q(y) > 0, scan all
    of X for the fiber's points.  Each term is one double-precision log of
    an exact ratio, as the library documents, so the values agree exactly.
    Returns the (y, q(y), local RE) entries and the q-weighted total."""
    entries = []
    for y in pair.q.space.points:
        qy = pair.q(y)
        if qy == 0:
            continue
        terms = []
        for x in pair.p.space.points:
            if pair.f[x] != y or pair.p(x) == 0:
                continue
            p_yx = pair.p(x) / qy
            sx = pair.s(y)(x)
            if sx == 0:
                terms = None
                break
            terms.append(float(p_yx) * ln_fraction(p_yx / sx))
        entries.append((y, qy, INF if terms is None else max(0.0, math.fsum(terms))))
    if any(local == INF for _, _, local in entries):
        total = INF  # each q(y) is positive, even where float(q(y)) is 0.0
    else:
        total = math.fsum(float(qy) * local for _, qy, local in entries)
    return tuple(entries), total


def direct_kl(p_mass: dict, q_mass: dict) -> float:
    """Independent KL oracle: plain float sum over a mass dict."""
    total = 0.0
    for x, px in p_mass.items():
        px = float(px)
        if px == 0:
            continue
        qx = float(q_mass.get(x, 0))
        if qx == 0:
            return INF
        total += px * math.log(px / qx)
    return total


def direct_re(pair: CoherentPair) -> float:
    """Independent relative-entropy oracle: rebuild s applied to q by hand."""
    mix = {x: 0.0 for x in pair.p.space}
    for y in pair.q.space:
        qy = float(pair.q(y))
        if qy == 0:
            continue
        row = pair.s(y)
        for x in pair.p.space:
            mix[x] += qy * float(row(x))
    total = 0.0
    for x in pair.p.space:
        px = float(pair.p(x))
        if px == 0:
            continue
        if mix[x] == 0:
            return INF
        total += px * math.log(px / mix[x])
    return total


def scaled_functor(c: float, pair: CoherentPair) -> float:
    """c times the pair's relative entropy, with inf * 0 = 0."""
    if c < 0:
        raise DomainMismatchError("scale must be nonnegative")
    return ext_mul(c, re_fin(pair).value)


# ---------------------------------------------------------------------------
# Law suites for a functor F(pair) -> [0, inf].  Each draws its instances
# with the generator and seed of acceptance criteria 1-3 and returns how
# many of them break the law.

LAW_TOL = 1e-10  # how far two finite values may differ and still agree


def _apart(a: float, b: float) -> bool:
    # inf agrees only with inf; nan agrees with nothing
    if INF in (a, b):
        return a != b
    return not abs(a - b) <= LAW_TOL


@functools.cache
def _vanishing_instances() -> tuple[CoherentPair, ...]:
    rng = random.Random(101)
    pairs = []
    for _ in range(200):
        xs = rand_space(rng, 8, "x")
        ys = rand_space(rng, min(4, len(xs)), "y")
        f = rand_map(rng, xs, ys, onto=True)
        p = rand_distribution(xs, rng, max_den=64)
        pairs.append(disintegration_pair(p, f, ys))
    return tuple(pairs)


@functools.cache
def _functoriality_instances() -> tuple[tuple[CoherentPair, CoherentPair, CoherentPair], ...]:
    rng = random.Random(202)
    triples = []
    for _ in range(500):
        first, second = rand_composable_pairs(rng, absolutely=True)
        triples.append((first, second, compose_pairs(first, second)))
    return tuple(triples)


@functools.cache
def _convexity_instances() -> tuple[tuple[CoherentPair, tuple], ...]:
    """Pairs with their fibres: (q(y), the singleton pair of p given y
    against the hypothesis row at y) for each y with q(y) > 0."""
    rng = random.Random(303)
    instances = []
    for i in range(300):
        pair = rand_coherent_pair(rng, absolutely=False if i % 5 == 4 else None)
        fibres = []
        for y, qy in pair.q.items():
            given_y = {x: px / qy for x, px in pair.p.items() if pair.f[x] == y}
            p_y = FiniteDistribution(pair.p.space, given_y)
            fibres.append((qy, singleton_pair(p_y, pair.s(y))))
        instances.append((pair, tuple(fibres)))
    return tuple(instances)


def vanishing_failures(functor) -> int:
    """Optimal pairs (hypothesis = the disintegration of p) where F > 0."""
    return sum(not functor(pair) <= LAW_TOL for pair in _vanishing_instances())


def functoriality_failures(functor) -> int:
    """Composable pairs where F(second . first) != F(first) + F(second)."""
    return sum(
        _apart(functor(composite), functor(first) + functor(second))
        for first, second, composite in _functoriality_instances()
    )


def convexity_failures(functor) -> int:
    """Pairs where F(pair) != sum over y of q(y) * F(fibre at y), with
    inf * 0 = 0."""
    return sum(
        _apart(functor(pair), math.fsum(ext_mul(float(qy), functor(fibre)) for qy, fibre in fibres))
        for pair, fibres in _convexity_instances()
    )


LAW_SUITES = {
    "vanishing": vanishing_failures,
    "functoriality": functoriality_failures,
    "convexity": convexity_failures,
}


# ---------------------------------------------------------------------------
# Lower semicontinuity, F(target) <= liminf F(approximants), along sequences
# that converge to their target.  A finite sequence only estimates the
# liminf, so the suite states what it checks.  At a finite F(target): the
# target is at most the tail's minimum, within LAW_TOL, where the tail is
# the second half of the sequence, as in check_lsc_on_sequence.  At an
# infinite F(target) no finite tail reaches the limit, so the criterion is
# that the tail climbs: each term is inf or strictly above the one before.
# Along the suite's sequences c * RE is strictly monotone, toward its
# target from above, so it meets both.  A functor that is continuous but
# approaches a finite target from below fails the first criterion without
# breaking the law: a failure here says the sequences do not show the law,
# not that the functor is proven not lower semicontinuous.


def _mixed(pair: CoherentPair, t: Fraction) -> CoherentPair:
    """pair with each hypothesis row over q(y) > 0 replaced by
    (1 - t) s_y + t p_y, p_y being the disintegration row of p at y.

    Its reconstruction is (1 - t) s(q) + t p, so RE(mixed(t)) is convex in
    t and 0 at t = 1, hence strictly falling on [0, 1] unless s(q) = p."""
    exact = disintegrate(pair.p, pair.f, pair.q.space)
    rows = {
        y: flatten([(1 - t, pair.s(y)), (t, exact(y))]) if pair.q(y) > 0 else pair.s(y)
        for y in pair.q.space
    }
    return CoherentPair(pair.f, StochasticKernel(pair.q.space, pair.p.space, rows), pair.p, pair.q)


@functools.cache
def _lsc_instances() -> tuple[tuple[CoherentPair, tuple[CoherentPair, ...]], ...]:
    """200 (target, approximants) sequences, 20 approximants each: 100 pairs
    that are not absolutely coherent (RE = inf) approached by mixed(1/n),
    n = 2..21, and 100 random pairs at mixed(1/2) approached by
    mixed(1/2 - 1/(2n))."""
    rng = random.Random(404)
    ns = range(2, 22)
    sequences = []
    for _ in range(100):
        pair = rand_coherent_pair(rng, absolutely=False)
        sequences.append((pair, tuple(_mixed(pair, Fraction(1, n)) for n in ns)))
        pair = rand_coherent_pair(rng)
        half = Fraction(1, 2)
        sequences.append((_mixed(pair, half), tuple(_mixed(pair, half - half / n) for n in ns)))
    return tuple(sequences)


def lsc_failures(functor) -> int:
    """Sequences on which F breaks the suite's criterion for its target."""
    failures = 0
    for target, approximants in _lsc_instances():
        value = functor(target)
        tail = [functor(pair) for pair in approximants[len(approximants) // 2:]]
        if value == INF:
            holds = all(b == INF or b > a for a, b in zip(tail, tail[1:]))
        else:
            holds = value <= min(tail) + LAW_TOL
        failures += not holds
    return failures
