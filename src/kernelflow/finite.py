"""Exact finite probability spaces, distributions and stochastic kernels.

All masses are `fractions.Fraction`, so every operation here is exact and
equality checks never need tolerances.  Types are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DomainMismatchError

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def format_fraction(f: Fraction) -> str:
    """n/d, exactly, however many digits n and d have: decimal turns an int
    into digits without the limit str() has from Python 3.11 on."""
    return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


@dataclass(frozen=True, slots=True)
class FiniteSpace:
    """A finite set of distinct, nonempty string labels in a fixed order.

    The order given at construction is canonical: all iteration, summation
    and serialization follow it.  Membership lookups go through a label ->
    index map, which construction builds to find duplicate labels, so they
    cost O(1).  The map is derived from points, so equality, hashing and
    repr ignore it.
    """

    points: tuple[str, ...]
    _index: dict[str, int] = field(repr=False, compare=False)

    def __init__(self, points: Iterable[str]):
        pts = tuple(points)
        if not pts:
            raise DomainMismatchError("a finite space needs at least one point")
        index = {}
        for i, label in enumerate(pts):
            if not isinstance(label, str) or not label:
                raise DomainMismatchError(f"invalid point label {label!r}")
            if label in index:
                raise DomainMismatchError(f"duplicate point label {label!r}")
            index[label] = i
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_index", index)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, slots=True)
class FiniteDistribution:
    """An exact probability mass function on a FiniteSpace.

    Only the support is stored: mass maps each point of positive mass to
    it, in canonical order, and every other point of the space has mass 0.
    Explicit zeros given at construction are dropped, so they do not
    affect equality or hashing.
    """

    space: FiniteSpace
    mass: Mapping[str, Fraction]

    def __init__(self, space: FiniteSpace, mass: Mapping[str, Fraction | int]):
        index = space._index
        support = {}
        ordered, last = True, -1  # whether the positive points came in canonical order
        # the masses sum to 1 when their numerators over a common
        # denominator sum to it: one pass keeps num / common equal to the
        # running sum, with int products instead of Fraction additions
        num, common = 0, 1
        for label, value in mass.items():
            i = index.get(label)
            if i is None:
                raise DomainMismatchError(f"mass assigned to unknown point {label!r}")
            m = value if type(value) is Fraction else _as_fraction(value)
            n, d = m.as_integer_ratio()  # one call, not two property reads
            if n < 0:
                raise DomainMismatchError("negative mass")
            if n:
                support[label] = m
                ordered = ordered and last < i
                last = i
                if common % d:
                    lcm = math.lcm(common, d)
                    num *= lcm // common
                    common = lcm
                num += n * (common // d)
        if num != common:
            raise DomainMismatchError(f"masses sum to {format_fraction(Fraction(num, common))}, not 1")
        if not ordered:
            support = dict(sorted(support.items(), key=lambda item: index[item[0]]))
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mass", support)

    def __call__(self, label: str) -> Fraction:
        m = self.mass.get(label)
        if m is not None:
            return m
        if label not in self.space:
            raise DomainMismatchError(f"{label!r} is not a point of the space")
        return ZERO

    def __hash__(self):
        # the generated __eq__ serves, but a generated __hash__ would hash a dict
        return hash((self.space, tuple(self.mass.items())))

    def support(self) -> tuple[str, ...]:
        return tuple(self.mass)

    def items(self):
        """(point, mass) over the support, in canonical order."""
        return self.mass.items()


def uniform(space: FiniteSpace) -> FiniteDistribution:
    w = Fraction(1, len(space))
    return FiniteDistribution(space, {x: w for x in space})


def dirac(x: str, space: FiniteSpace) -> FiniteDistribution:
    """The point mass at x: the unit of the distribution monad."""
    if x not in space:
        raise DomainMismatchError(f"{x!r} is not a point of the space")
    return FiniteDistribution(space, {x: ONE})


def _check_map(f: Mapping[str, str], source: FiniteSpace, target: FiniteSpace) -> None:
    """Raise DomainMismatchError at the first point of source, in its order,
    where f is undefined or lands outside target."""
    index = target._index
    for x in source:
        if x not in f:
            raise DomainMismatchError(f"map undefined at point {x!r}")
        if f[x] not in index:
            raise DomainMismatchError(f"map sends {x!r} to {f[x]!r}, outside the target space")


def pushforward(
    p: FiniteDistribution, f: Mapping[str, str], target: FiniteSpace
) -> FiniteDistribution:
    """The image distribution of p along the point map f.

    f is checked on all of p's space, then only p's support is summed.
    Each target point's masses are summed as ints over a running common
    denominator, as FiniteDistribution checks a sum, and one Fraction is
    built per point of the image of p's support.
    """
    _check_map(f, p.space, target)
    sums: dict[str, tuple[int, int]] = {}  # y -> (num, common), the sum num / common
    for x, m in p.mass.items():
        y = f[x]
        n, d = m.as_integer_ratio()
        acc = sums.get(y)
        if acc is None:
            sums[y] = n, d
            continue
        num, common = acc
        if common % d:
            lcm = math.lcm(common, d)
            num *= lcm // common
            common = lcm
        sums[y] = num + n * (common // d), common
    return FiniteDistribution(target, {y: Fraction(*sums[y]) for y in target if y in sums})


def flatten(pairs: Iterable[tuple[object, FiniteDistribution]]) -> FiniteDistribution:
    """Monad multiplication: mix (weight, distribution) pairs on one space."""
    pairs = [(_as_fraction(w), d) for w, d in pairs]
    if not pairs:
        raise DomainMismatchError("cannot flatten an empty mixture")
    space = pairs[0][1].space
    for w, _ in pairs:
        if w < 0:
            raise DomainMismatchError(f"outer weight {format_fraction(w)} is negative")
    total = sum(w for w, _ in pairs)
    if total != ONE:
        raise DomainMismatchError(f"outer weights sum to {format_fraction(total)}, not 1")
    out = {}
    for w, d in pairs:
        if d.space != space:
            raise DomainMismatchError("mixture components live on different spaces")
        for x, m in d.items():
            out[x] = out.get(x, ZERO) + w * m
    return FiniteDistribution(space, out)


@dataclass(frozen=True)
class StochasticKernel:
    """A source-indexed family of distributions on a common target space."""

    source: FiniteSpace
    target: FiniteSpace
    rows: Mapping[str, FiniteDistribution]

    def __init__(
        self,
        source: FiniteSpace,
        target: FiniteSpace,
        rows: Mapping[str, FiniteDistribution],
    ):
        fixed: dict[str, FiniteDistribution] = {}
        for y in source:
            if y not in rows:
                raise DomainMismatchError(f"kernel has no row for source point {y!r}")
            row = rows[y]
            if row.space != target:
                raise DomainMismatchError(f"row at {y!r} lives on the wrong space")
            fixed[y] = row
        if len(rows) != len(source):
            extra = set(rows) - set(source.points)
            raise DomainMismatchError(f"rows given for unknown points {sorted(extra)}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rows", fixed)

    def __call__(self, y: str) -> FiniteDistribution:
        if y not in self.source:
            raise DomainMismatchError(f"{y!r} is not a source point")
        return self.rows[y]

    def __hash__(self):
        # as for FiniteDistribution: rows is a dict
        return hash((self.source, self.target, tuple(self.rows[y] for y in self.source)))


def deterministic_kernel(
    f: Mapping[str, str], source: FiniteSpace, target: FiniteSpace
) -> StochasticKernel:
    """The kernel whose row at y is the point mass at f(y).  f is checked
    first by the map check pushforward makes, so a point where f is
    undefined or leaves target raises pushforward's message."""
    _check_map(f, source, target)
    return StochasticKernel(source, target, {y: dirac(f[y], target) for y in source})


def kernel_apply(s: StochasticKernel, q: FiniteDistribution) -> FiniteDistribution:
    """q viewed as a kernel from a one-point space, composed with s.

    Only q's support and each used row's support are visited, so the cost
    is the number of nonzero products, not |source| * |target|.
    """
    if q.space != s.source:
        raise DomainMismatchError("distribution space does not match kernel source")
    out: dict[str, Fraction] = {}
    for y, qy in q.items():
        for x, m in s.rows[y].items():
            prev = out.get(x)
            out[x] = qy * m if prev is None else prev + qy * m
    return FiniteDistribution(s.target, out)


def kleisli_compose(s: StochasticKernel, t: StochasticKernel) -> StochasticKernel:
    """(s . t)_z(x) = sum_y t_z(y) s_y(x), exactly."""
    if s.source != t.target:
        raise DomainMismatchError("kernel spaces do not compose")
    rows = {z: kernel_apply(s, t(z)) for z in t.source}
    return StochasticKernel(t.source, s.target, rows)


def disintegrate(
    p: FiniteDistribution, f: Mapping[str, str], target: FiniteSpace
) -> StochasticKernel:
    """Conditional distributions of p given the value of f.

    For y with positive pushforward mass q(y), the row is p restricted to
    the fiber and renormalized, so applying the kernel to q reconstructs
    p exactly.  Rows at the zeros of q are not pinned down by p; they are
    filled deterministically, uniform on the fiber, or uniform on the
    whole source space when the fiber is empty.
    """
    q = pushforward(p, f, target)
    fibers: dict[str, list[str]] = {y: [] for y in target}
    for x in p.space:
        fibers[f[x]].append(x)
    rows: dict[str, FiniteDistribution] = {}
    for y in target:
        qy = q(y)
        if qy > 0:
            rows[y] = FiniteDistribution(
                p.space, {x: p(x) / qy for x in fibers[y]}
            )
        elif fibers[y]:
            w = Fraction(1, len(fibers[y]))
            rows[y] = FiniteDistribution(p.space, {x: w for x in fibers[y]})
        else:
            rows[y] = uniform(p.space)
    return StochasticKernel(target, p.space, rows)
