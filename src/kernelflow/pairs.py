"""Coherent pairs: measure-preserving maps bundled with hypothesis kernels.

A pair (f, s) from (X, p) to (Y, q) is coherent when q is the pushforward
of p along f and every row s_y is supported inside the fiber f^{-1}(y) --
equivalently, pushing s back along f returns each point mass, the diagram
characterization of coherence.  The fiber condition is checked at every y,
not just q-almost everywhere: a kernel row escaping a q-null fiber is
invisible to the pair's own entropy but can corrupt composites, and the
composition and additivity laws are exact only under the pointwise
reading.  In particular a point of Y with an empty fiber admits no
coherent hypothesis at all, so f must hit every point of Y.

f is kept on X: entries of the given map at points outside X are dropped
once f_*p has checked it on X, so they neither hide an empty fiber nor
change equality or hashing.

q is part of the morphism, not extra data: construction derives f_*p once,
takes it as q when none is given, and otherwise reports every point where
the given q differs from it.  validate_coherent is this check: it returns
the violations instead of raising, an empty tuple for a coherent pair, and
raises DomainMismatchError where the spaces or the map do not line up.
Two pairs are equal as morphisms when they agree q-almost everywhere; rows
over q-null fibers are witnesses, not data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import DomainMismatchError, IncoherentPairError
from .finite import (
    ZERO,
    FiniteDistribution,
    FiniteSpace,
    StochasticKernel,
    deterministic_kernel,
    dirac,
    disintegrate,
    format_fraction,
    kernel_apply,
    kleisli_compose,
    pushforward,
)


@dataclass(frozen=True)
class CoherentPair:
    """A validated morphism (f, s): (X, p) -> (Y, q); q defaults to f_*p."""

    f: Mapping[str, str]
    s: StochasticKernel
    p: FiniteDistribution
    q: FiniteDistribution

    def __init__(
        self,
        f: Mapping[str, str],
        s: StochasticKernel,
        p: FiniteDistribution,
        q: FiniteDistribution | None = None,
    ):
        if p.space != s.target or (q is not None and q.space != s.source):
            raise DomainMismatchError("pair shapes do not align with the kernel")
        pushed = pushforward(p, f, s.source)
        f = {x: f[x] for x in p.space}
        if q is None:
            q = pushed
        violations = [
            f"pushforward mismatch at {y!r}: expected {format_fraction(q(y))}, "
            f"got {format_fraction(pushed(y))}"
            for y in q.space
            if pushed(y) != q(y)
        ]
        image = set(f.values())
        for y in q.space:
            if y not in image:
                violations.append(f"the fiber over {y!r} is empty; no hypothesis row can be coherent")
                continue
            for x in s(y).support():
                if f[x] != y:
                    violations.append(f"hypothesis row at {y!r} puts mass on {x!r} outside the fiber")
        if violations:
            raise IncoherentPairError(
                "pair is not coherent: " + "; ".join(violations), tuple(violations)
            )
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __eq__(self, other) -> bool:
        # morphism equality: hypothesis rows only matter q-almost everywhere
        if not isinstance(other, CoherentPair):
            return NotImplemented
        return (
            self.p == other.p
            and self.q == other.q
            and self.f == other.f
            and all(self.s(y) == other.s(y) for y in self.q.mass)
        )

    def __hash__(self):
        rows = tuple(self.s(y) for y in self.q.mass)
        return hash((self.p, self.q, rows, tuple(self.f.items())))

    def hypothesis_pushforward(self) -> FiniteDistribution:
        """s applied to q; the pair's reconstruction of p."""
        return kernel_apply(self.s, self.q)


def validate_coherent(
    f: Mapping[str, str],
    s: StochasticKernel,
    p: FiniteDistribution,
    q: FiniteDistribution | None = None,
) -> tuple[str, ...]:
    """The violations CoherentPair(f, s, p, q) raises, or () when it builds;
    DomainMismatchError where the spaces or the map do not line up."""
    try:
        CoherentPair(f, s, p, q)
    except IncoherentPairError as exc:
        return exc.violations
    return ()


def _fiber_rows(pair: CoherentPair, weight: Mapping[str, tuple[int, int]] | None = None):
    """The int rows (p_n, p_d, m_n, m_d) that entropy._kl takes, one for
    each x in p's support, in order: p(x), then m(x) = (s . w)(x) =
    w(f x) s_{f x}(x) for a weight w on Y given as y -> (num, den), q by
    default, and needed only on q's support, where f sends p's support.

    The sum over y of w(y) s_y(x) has that one term because the pair is
    coherent at every y: each row s_y lives on the fiber over y and puts no
    mass on x unless y = f x.  The identity is exact, not q-almost
    everywhere, so s . w is never built.  No row is reduced.
    """
    if weight is None:
        weight = {y: (m.numerator, m.denominator) for y, m in pair.q.items()}
    f, rows = pair.f, pair.s.rows
    for x, px in pair.p.items():
        y = f[x]
        wn, wd = weight[y]
        sx = rows[y].mass.get(x, ZERO)
        yield px.numerator, px.denominator, wn * sx.numerator, wd * sx.denominator


def is_absolutely_coherent(pair: CoherentPair) -> bool:
    """Whether p is dominated by the reconstruction s applied to q.

    (s . q)(x) = q(f x) s_{f x}(x), as _fiber_rows reads it, and q(f x) >=
    p(x) is positive on p's support, so the test is s_{f x}(x) > 0 there.
    """
    return all(x in pair.s.rows[pair.f[x]].mass for x in pair.p.mass)


def is_optimal(pair: CoherentPair) -> bool:
    """Whether the hypothesis reconstructs p exactly: p(x) = (s . q)(x) on
    p's support, read off _fiber_rows, so s . q, which also sums to 1, puts
    no mass elsewhere."""
    return all(pn * md == pd * mn for pn, pd, mn, md in _fiber_rows(pair))


def compose_pairs(first: CoherentPair, second: CoherentPair) -> CoherentPair:
    """Compose (X,p)->(Y,q) with (Y,q)->(Z,m) to (g.f, s after t).

    Every hypothesis row is fiber-supported, so every composite row lands
    inside its composite fiber: coherence is closed under composition, and
    so is absolute coherence.
    """
    if first.q != second.p:
        raise DomainMismatchError("middle objects do not match")
    gf = {x: second.f[first.f[x]] for x in first.p.space}
    st = kleisli_compose(first.s, second.s)
    return CoherentPair(gf, st, first.p, second.q)


def identity_pair(p: FiniteDistribution) -> CoherentPair:
    ident = {x: x for x in p.space}
    s = deterministic_kernel(ident, p.space, p.space)
    return CoherentPair(ident, s, p, p)


def singleton_pair(p: FiniteDistribution, hypothesis: FiniteDistribution) -> CoherentPair:
    """The morphism (X, p) -> ({"*"}, dirac) with the given hypothesis row.

    This is how a plain forecast about X enters the category: every fiber
    condition is vacuous, so any hypothesis distribution on X is allowed.
    """
    if hypothesis.space != p.space:
        raise DomainMismatchError("hypothesis lives on the wrong space")
    point = FiniteSpace(("*",))
    s = StochasticKernel(point, p.space, {"*": hypothesis})
    f = {x: "*" for x in p.space}
    return CoherentPair(f, s, p, dirac("*", point))


def disintegration_pair(
    p: FiniteDistribution, f: Mapping[str, str], target: FiniteSpace
) -> CoherentPair:
    """The optimal pair whose hypothesis is the exact disintegration of p."""
    return CoherentPair(f, disintegrate(p, f, target), p)
