"""Continuous KL divergence via dyadic level sets of the density ratio.

Two absolutely continuous measures on the real line are given by a base
density (for q) and a pointwise-finite version of the ratio dp/dq.  At
refinement level n the half-line of ratio values is cut into the dyadic
intervals [k 2^-n, (k+1) 2^-n) for k < n 2^n plus the tail [n, inf); the
preimages of those intervals partition x-space, and the discrete KL of the
per-cell masses is a monotone lower bound converging to the true
divergence as n grows.

Cell masses are computed by integrating indicator-weighted densities over
x-space (level sets need not be intervals, so nothing is inverted).  The
deterministic integrator splits x-space into panels on which the sampled
ratio is monotone and locates every crossing of a cell edge inside them:
starting from the panel's ends, three steps each try a narrow bracket
around the point where the ratio, interpolated linearly between the
bracket's ends, meets the edge, and keep it only where the ratio at its
ends shows the crossing inside; halving then brings the bracket's ends
to adjacent floats.  It integrates q and q * ratio between consecutive
crossings with the 7-point Gauss-Kronrod rule, whose error estimate is
its difference from the 3-point Gauss rule on three of its nodes,
halving an interval only while that difference exceeds a
width-proportional budget or the ratio at its nodes or ends leaves its
cell.  Before the level is returned, the integrals of q and p are
checked against 1, so a model that does not describe two probability
measures fails at level 1.  The Monte Carlo integrator sorts the ratio
at seeded samples from q: every cell is an interval of ratio values, so
its samples are one run of the sorted sample, and its masses are the
run's length and sum.  Both are deterministic given their IntegratorSpec.
A level with more than _MAX_CELLS cells is refused before anything is
allocated.

The refinement ladder (estimate_kl) carries work from level n - 1 to
level n.  Level n - 1's cell edge h 2^-(n-1) is level n's edge 2h 2^-n,
the same float, and bracketing a crossing depends only on the panel, the
ratio at its ends and the edge.  A panel is accepted as monotone at every
level alike, and one that stays in one level-n cell stays in one
level-(n - 1) cell, so, the panel lists being built by order-preserving
filters, every level-(n - 1) panel with a crossing is a level-n panel,
in the same relative order, and any other level-n panel lies, as far as
samples show, inside one level-(n - 1) cell.  Level n - 1's crossings are
therefore, in order, level n's crossings of even edges 2h <= (n - 1) 2^n
(the even edges above lay inside level n - 1's tail cell).  Level n
copies their right bracket ends and error terms and brackets only the
rest; if its panels with such crossings are not level n - 1's panels
with crossings, it brackets every crossing.  The Monte Carlo sample is
drawn, its ratio checked and sorted, and its runs found at the ladder's
top level once per ladder; each level merges those runs, which gives the
runs a fresh level finds.  Every level is bit-identical to bin_masses run
from scratch.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainMismatchError, IntegrationToleranceError

INF = math.inf

_MODEL_VALIDATION_TOL = 1e-6
_MAX_CELLS = 1 << 25  # cells a level may hold in memory, so n <= 20
_MC_SAMPLES = 1_000_000  # Monte Carlo sample drawn once per ladder
_EXACT_TERMS = 1 << 26  # terms _exact_sum adds exactly; levels hold at most _MAX_CELLS

# Quadrature layout.  Every constant is fixed, so a level's masses depend
# only on the model and n.
_TOL = 1e-8  # error budget, spread over the working interval by width
_ERR_CEILING = 1e-6  # a level whose error estimate exceeds this fails
_PANELS = 4096  # initial panels over the working interval
# ratio samples per panel: both ends, three inside and one a quarter
# panel beyond each end, so a turn just past an end sample is seen
_SAMPLES = np.linspace(-0.25, 1.25, 7)
_MONOTONE_DEPTH = 40  # halvings of a panel whose samples are not monotone
# before halving, each crossing's bracket is narrowed three times around
# the guess that interpolates the ratio linearly between its ends, to this
# share of its width on each side of the guess
_NARROW = (2e-3, 1e-5, 1e-6)
_BISECT_ROUNDS = 64  # bracket halvings per cell-edge crossing
_MAX_HALVINGS = 48  # halvings of an interval between crossings
_LIVE_PER_CELL = 4  # live panels, crossings or intervals per cell and panel
_CHUNK = 1 << 15  # crossings bracketed per block
_GAUSS_BLOCK = 1 << 14  # intervals per block of Gauss nodes
# The 7-point Gauss-Kronrod rule on [-1, 1] (Kronrod 1965; QUADPACK,
# Piessens et al. 1983), exact to degree 11, and the 3-point Gauss-Legendre
# rule on its odd-numbered nodes, exact to degree 5.  The midpoint is node 3.
_K7_X = np.array([
    -0.960491268708020283423507092629080, -0.774596669241483377035853079956480,
    -0.434243749346802558002071502844628, 0.0,
    0.434243749346802558002071502844628, 0.774596669241483377035853079956480,
    0.960491268708020283423507092629080,
])
_K7_W = np.array([
    0.104656226026467265193823857192073, 0.268488089868333440728569280666710,
    0.401397414775962222905051818618432, 0.450916538658474142345110087045571,
    0.401397414775962222905051818618432, 0.268488089868333440728569280666710,
    0.104656226026467265193823857192073,
])
_G3_W = np.array([5 / 9, 8 / 9, 5 / 9])


@dataclass(frozen=True)
class DensityModel:
    """p and q on an interval, given as q's density and the ratio dp/dq.

    base_density and ratio must act elementwise on numpy arrays of any
    shape, returning finite, nonnegative values of the same shape, and q
    and p must both integrate to 1; bin_masses raises DomainMismatchError
    where they do not (Monte Carlo checks only the ratio at its samples).
    The quadrature calls them on 2-D arrays with one row per node or sample
    and one column per interval or panel, as well as on 1-D ones.  For
    quadrature on an unbounded support a truncation interval capturing all
    but <= 1e-10 of both masses must be supplied; each measure's leftover
    is folded into the cell of the ratio at the truncation's upper end if
    the support extends past it, else at its lower end, and reported on
    the level.  breaks lists points where the densities may jump; the
    quadrature's panels start at those inside the working interval.

    Known limit: the quadrature sees the ratio only at its panel samples
    and, in each interval between crossings, at its 7 Gauss-Kronrod nodes,
    its lower end and the float below its upper end, so a spike narrower
    than their spacing goes unseen unless its ends are among the breaks.
    Masses and err_est are certified only for ratios those samples
    resolve.
    """

    name: str
    base_density: Callable[[np.ndarray], np.ndarray]
    ratio: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    truncation: tuple[float, float] | None = None
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    breaks: tuple[float, ...] = ()

    def __post_init__(self):
        # dataclasses.replace runs this again, so a new truncation is checked
        lo, hi = self.support
        if not lo < hi:
            raise DomainMismatchError(f"model {self.name!r}: support [{lo}, {hi}] is empty")
        if self.truncation is not None:
            lo, hi = self.truncation
            if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
                raise DomainMismatchError(
                    f"model {self.name!r}: truncation [{lo}, {hi}] is not a finite interval "
                    "with lo < hi"
                )

    def quad_interval(self) -> tuple[float, float]:
        lo, hi = self.truncation if self.truncation is not None else self.support
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainMismatchError(
                f"model {self.name!r} has unbounded support and no truncation interval"
            )
        if not math.isfinite(hi - lo):
            # the panel grid and the error budget both divide this width
            raise DomainMismatchError(
                f"model {self.name!r}: working interval [{lo}, {hi}] is wider than the largest float"
            )
        if max(abs(lo), abs(hi)) > sys.float_info.max / 2:
            # the quadrature halves an interval [a, b] at 0.5 * (a + b),
            # whose sum must stay finite for any two points of [lo, hi]
            raise DomainMismatchError(
                f"model {self.name!r}: working interval [{lo}, {hi}] has an end beyond half "
                "the largest float, where midpoints overflow"
            )
        return lo, hi


@dataclass(frozen=True)
class IntegratorSpec:
    """Fully explicit integration request; no silent default switching.

    kind "quad" is deterministic quadrature between located cell-edge
    crossings, with the error budget _TOL spread over the working interval
    in proportion to width; kind "mc" bins _MC_SAMPLES samples drawn from
    the model's q-sampler and requires a seed.  Both fields are checked
    when the spec is built.
    """

    kind: str = "quad"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("quad", "mc"):
            raise DomainMismatchError(f"unknown integrator kind {self.kind!r}")
        if self.kind == "mc" and self.seed is None:
            raise DomainMismatchError("Monte Carlo integration requires a seed")
        if self.seed is not None and not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise DomainMismatchError(f"seed must be a nonnegative integer, got {self.seed!r}")


def cell_count(n: int) -> int:
    # k = 0 .. n*2^n - 1 plus the tail [n, inf)
    return n * (1 << n) + 1


def _cell_of(r: np.ndarray, n: int) -> np.ndarray:
    # times 2^n is exact and the cast truncates, so r >= n lands on n 2^n
    return (np.clip(r, 0.0, n) * (1 << n)).astype(np.int64)


def _in_cell(r_min: np.ndarray, r_max: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    """Whether ratio values from r_min to r_max lie in the cells: the least
    is at or above the cell's lower edge and the greatest below the upper
    one, which for finite values is the same test as one comparison per
    value."""
    low = cells * 2.0**-n
    high = np.where(cells == n * (1 << n), INF, low + 2.0**-n)
    return (r_min >= low) & (r_max < high)


@dataclass(frozen=True, eq=False)
class PartitionLevel:
    """Per-cell p and q masses at one dyadic refinement level.  Levels
    compare by identity, since their masses are numpy arrays."""

    n: int
    p_mass: np.ndarray
    q_mass: np.ndarray
    err_est: float = 0.0
    folded_q: float = 0.0
    folded_p: float = 0.0

    def occupied(self) -> int:
        return int(np.count_nonzero((self.p_mass > 0) | (self.q_mass > 0)))


def bin_masses(model: DensityModel, n: int, integrator: IntegratorSpec) -> PartitionLevel:
    """Masses of p and q on each level-n cell of the ratio partition."""
    return _level(model, n, integrator, _Ladder(n))


class _Ladder:
    """What one refinement ladder carries from a level to the next.

    top is the finest level the ladder may reach.  ratio is the Monte Carlo
    sample's ratio, drawn and checked once and then sorted, so that every
    cell of every level is one run of it; starts and cells give the first
    index and the level-top cell of each nonempty run at level top.  For
    the quadrature, n is the last level whose crossings are kept, a and b
    are the ends of its panels with crossings, and cuts and terms hold each
    crossing's right bracket end and error term, in order.
    """

    def __init__(self, top: int):
        self.top = top
        self.ratio = self.starts = self.cells = None
        self.n = 0  # no level kept yet
        self.a = self.b = self.cuts = self.terms = np.empty(0)


def _level(model: DensityModel, n: int, integrator: IntegratorSpec, ladder: _Ladder) -> PartitionLevel:
    """bin_masses at level n of a ladder, reusing what it kept from level n - 1."""
    if n < 1:
        raise DomainMismatchError("refinement level must be >= 1")
    if cell_count(n) > _MAX_CELLS:
        raise IntegrationToleranceError(f"level {n} needs {cell_count(n)} cells, more than {_MAX_CELLS}")
    # floating-point warnings stay off for the whole level: an overflow or a
    # 0 * inf in a model's output shows up as a non-finite value, which
    # _checked turns into a DomainMismatchError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if integrator.kind == "mc":
            return _bin_masses_mc(model, n, integrator, ladder)
        return _bin_masses_quad(model, n, ladder)


def validate_model(model: DensityModel) -> tuple[float, float]:
    """The integrals of q and p over the working interval, before folding,
    from the level-1 quadrature, which raises if the model breaks its contract."""
    level = bin_masses(model, 1, IntegratorSpec())
    return float(level.q_mass.sum()) - level.folded_q, float(level.p_mass.sum()) - level.folded_p


def _bin_masses_mc(model: DensityModel, n: int, spec: IntegratorSpec, ladder: _Ladder) -> PartitionLevel:
    """Level n's masses off the sorted sample's runs.  A level-n cell is the
    union of the level-top cells k with min(k >> (top - n), n << n) equal
    to it, so its run is theirs merged: its q-mass is the run's length / N
    and its p-mass the run's sum / N, the same whatever the ladder's top."""
    if ladder.ratio is None:
        if model.sampler is None:
            raise DomainMismatchError(f"model {model.name!r} has no sampler for Monte Carlo")
        rng = np.random.default_rng(spec.seed)
        xs = np.asarray(model.sampler(rng, _MC_SAMPLES), dtype=float)
        r = np.sort(_checked(model, xs, "ratio", model.ratio(xs)))
        # the finest level this ladder may reach; higher ones are refused
        top = n
        while top < ladder.top and cell_count(top + 1) <= _MAX_CELLS:
            top += 1
        k = _cell_of(r, top)
        starts = np.flatnonzero(np.diff(k, prepend=-1))
        ladder.top, ladder.ratio, ladder.starts, ladder.cells = top, r, starts, k[starts]
    r = ladder.ratio
    cells = np.minimum(ladder.cells >> (ladder.top - n), n << n)
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    starts, cells = ladder.starts[first], cells[first]
    nc = cell_count(n)
    q_mass = np.zeros(nc)
    q_mass[cells] = np.diff(starts, append=r.size) / _MC_SAMPLES
    # added to 0, as bincount's sums are, so a run of -0.0 gives 0.0
    p_mass = np.zeros(nc)
    p_mass[cells] += np.add.reduceat(r, starts)
    p_mass /= _MC_SAMPLES
    err = 1.0 / math.sqrt(_MC_SAMPLES)
    return PartitionLevel(n, p_mass, q_mass, err)


def _bin_masses_quad(model: DensityModel, n: int, ladder: _Ladder) -> PartitionLevel:
    lo, hi = model.quad_interval()
    nc = cell_count(n)
    q_mass = np.zeros(nc)
    p_mass = np.zeros(nc)
    a, b, r_a, r_b, err = _monotone_panels(model, lo, hi, n)
    cuts, cut_err = _crossings(model, a, b, r_a, r_b, n, ladder)
    err += cut_err
    # the panel starts and each panel's cuts come as sorted runs, which a
    # stable sort merges
    breaks = np.sort(np.concatenate([a, [hi], cuts]), kind="stable")
    err += _integrate(model, breaks, n, q_mass, p_mass)

    # q and p are probability measures; a truncation may leave out 1e-10
    tol = _MODEL_VALIDATION_TOL + 1e-10 + err
    for what, mass in (("base density", q_mass), ("ratio * base density", p_mass)):
        total = float(mass.sum())
        if abs(total - 1.0) > tol:
            raise DomainMismatchError(
                f"model {model.name!r}: {what} integrates to {total:.9g}, not 1"
            )

    folded_q = folded_p = 0.0
    s_lo, s_hi = model.support
    if s_lo < lo or s_hi > hi:
        # the mass of each measure beyond the declared truncation (<= 1e-10
        # by contract) goes into the cell of the ratio at hi if the support
        # extends past hi, else into the cell of the ratio at lo
        folded_q = max(0.0, 1.0 - float(q_mass.sum()))
        folded_p = max(0.0, 1.0 - float(p_mass.sum()))
        edge = hi if s_hi > hi else lo
        k = int(_cell_of(model.ratio(np.array([edge])), n)[0])
        q_mass[k] += folded_q
        p_mass[k] += folded_p

    if err > _ERR_CEILING:
        raise IntegrationToleranceError(f"quadrature error estimate {err:.3g} exceeds tolerance at level {n}")
    return PartitionLevel(n, p_mass, q_mass, err, folded_q, folded_p)


def _require_room(live: int, n: int) -> None:
    """Stop a level whose halvings run away.  A monotone piece crosses at
    most cell_count(n) edges, so the cap leaves room for four sweeps of
    the whole ratio range besides the panel grid."""
    cap = _LIVE_PER_CELL * (cell_count(n) + _PANELS)
    if live > cap:
        raise IntegrationToleranceError(f"quadrature needs more than {cap} live intervals at level {n}")


def _monotone_panels(model: DensityModel, lo: float, hi: float, n: int):
    """Panels tiling [lo, hi] on which, as far as samples show, the ratio
    is monotone or stays in one level-n cell, with the ratio at both ends.

    A panel counts as monotone when its samples, the two just beyond its
    ends included, are.  It counts as staying in one cell when the range of
    its samples, widened on each side by its own width, lies in one cell:
    near a smooth extremum between two samples, the ratio overshoots the
    nearest sample by less than that width.
    Other panels are halved, at most _MONOTONE_DEPTH times; the mass of a
    panel still unresolved then is charged to the returned error.
    The samples are laid out sample-major, one row per sample and one
    column per panel, so that each test reduces down the rows; a model
    that fails is checked through the transpose, so the first bad value
    named is the first in (panel, sample) order.
    """
    breaks = np.asarray(model.breaks, dtype=float)
    edges = np.union1d(np.linspace(lo, hi, _PANELS + 1), breaks[(breaks > lo) & (breaks < hi)])
    a, b = edges[:-1], edges[1:]
    done = []
    err = 0.0
    for depth in range(_MONOTONE_DEPTH + 1):
        _require_room(a.size, n)
        xs = np.clip(a + (b - a) * _SAMPLES[:, None], lo, hi)
        xs[1], xs[-2] = a, b
        r = _checked(model, xs.T, "ratio", model.ratio(xs).T).T
        step = np.diff(r, axis=0)
        xs, r = xs[1:-1], r[1:-1]  # the panel's own samples
        r_min, r_max = r.min(axis=0), r.max(axis=0)
        spread = r_max - r_min
        ok = (
            (step >= 0).all(axis=0)
            | (step <= 0).all(axis=0)
            | (_cell_of(r_min - spread, n) == _cell_of(r_max + spread, n))
        )
        if depth == _MONOTONE_DEPTH and not ok.all():
            xs = xs[:, ~ok]
            q = _checked(model, xs.T, "base density", model.base_density(xs).T).T
            err += float(np.sum((b - a)[~ok] * (q * (1.0 + r[:, ~ok])).max(axis=0)))
            ok[:] = True
        done.append((a[ok], b[ok], r[0, ok], r[-1, ok]))
        if ok.all():
            break
        a, b = a[~ok], b[~ok]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    a, b, r_a, r_b = (np.concatenate(col) for col in zip(*done))
    return a, b, r_a, r_b, err


def _crossings(model: DensityModel, a, b, r_a, r_b, n: int, ladder: _Ladder):
    """Where the ratio crosses each level-n cell edge inside the panels.

    The edges crossed in a monotone panel are j 2^-n for j above the lower
    end cell up to the upper one (j = n 2^n is the tail edge n).  Each is
    bracketed by _bisect, from its panel's ends and the ratio there, until
    the bracket ends are adjacent floats, _CHUNK crossings at a time to
    bound memory.  Returns the right bracket ends and, as error, each
    bracket's width times the larger q + p at its ends, summed per block.
    The crossings the ladder kept from level n - 1 are copied, and this
    level's are kept.
    """
    c_a, c_b = _cell_of(r_a, n), _cell_of(r_b, n)
    rising = c_b > c_a
    count = np.abs(c_b - c_a)
    total = int(count.sum())
    _require_room(total, n)
    start = np.cumsum(count) - count
    panel = np.repeat(np.arange(a.size), count)
    first = np.minimum(c_a, c_b) + 1
    j = np.arange(total) + (first - start)[panel]
    cuts = np.empty(total)
    terms = np.empty(total)
    # level n - 1's crossings, in order (see the module docstring): edges
    # j that are even and at most (n - 1) 2^n, so a panel holds one when
    # its least even edge does not pass its greatest edge or that bound
    has = np.minimum(np.maximum(c_a, c_b), (n - 1) << n) >= first + (first & 1)
    new = np.ones(total, dtype=bool)
    if ladder.n == n - 1 and np.array_equal(a[has], ladder.a) and np.array_equal(b[has], ladder.b):
        old = ((j & 1) == 0) & (j <= (n - 1) << n)
        kept = np.flatnonzero(old)
        cuts[kept], terms[kept] = ladder.cuts, ladder.terms
        new = ~old

    # summed per block, then in block order, so err_est's last bits
    # depend on _CHUNK
    err = 0.0
    for s in range(0, total, _CHUNK):
        at, edge, fresh = panel[s:s + _CHUNK], j[s:s + _CHUNK], new[s:s + _CHUNK]
        right, term = cuts[s:s + _CHUNK], terms[s:s + _CHUNK]
        if fresh.any():
            at = at[fresh]
            left, r = _bisect(model, a[at], b[at], r_a[at], r_b[at], edge[fresh] * 2.0**-n, rising[at])
            ends = np.stack([left, r])
            q = _checked(model, ends, "base density", model.base_density(ends))
            p = _checked(model, ends, "ratio * base density", q * model.ratio(ends))
            term[fresh] = (r - left) * (q + p).max(axis=0)
            right[fresh] = r
        err += float(np.sum(term))
    keep = count > 0
    ladder.n, ladder.a, ladder.b = n, a[keep], b[keep]
    ladder.cuts, ladder.terms = cuts, terms
    return cuts, err


def _bisect(model: DensityModel, left, right, r_left, r_right, edge, rising):
    """The brackets [left, right] of the points where the ratio crosses
    each edge, rising or falling, given the ratio r_left and r_right at
    their ends, narrowed until their ends are adjacent floats.  Overwrites
    left and right.

    Each of _NARROW's steps guesses the crossing by interpolating the ratio
    linearly between the bracket's ends (the middle where that is not a
    number) and evaluates the ratio at both ends of a candidate bracket,
    the step's share of the width on each side of the guess and clipped to
    the bracket.  The candidate replaces the bracket only where the ratio
    at its ends shows the crossing inside it, so a guess that misses, at a
    jump say, leaves the bracket as it was.  Halving follows, at most
    _BISECT_ROUNDS times.  The result depends only on the bracket, the
    ratio at its ends and the edge.
    """
    lo, hi, r_lo, r_hi = left, right, r_left, r_right
    for share in _NARROW:
        t = (edge - r_lo) / (r_hi - r_lo)
        t = np.where(np.isfinite(t), np.clip(t, 0.0, 1.0), 0.5)
        guess = lo + t * (hi - lo)
        d = share * (hi - lo)
        ends = np.stack([np.maximum(guess - d, lo), np.minimum(guess + d, hi)])
        r = _checked(model, ends, "ratio", model.ratio(ends))
        past = (r >= edge) == rising
        keep = ((ends[0] == lo) | ~past[0]) & ((ends[1] == hi) | past[1])
        lo, r_lo = np.where(keep, ends[0], lo), np.where(keep, r[0], r_lo)
        hi, r_hi = np.where(keep, ends[1], hi), np.where(keep, r[1], r_hi)
    live = np.arange(left.size)
    for _ in range(_BISECT_ROUNDS):
        mid = 0.5 * (lo + hi)
        moving = (mid > lo) & (mid < hi)
        if not moving.all():
            # brackets whose ends are adjacent floats are final
            left[live], right[live] = lo, hi
            live, lo, hi, mid = live[moving], lo[moving], hi[moving], mid[moving]
            edge, rising = edge[moving], rising[moving]
            if live.size == 0:
                break
        r = _checked(model, mid, "ratio", model.ratio(mid))
        # the crossing is left of mid when mid is already past the edge
        past = (r >= edge) == rising
        lo = np.where(past, lo, mid)
        hi = np.where(past, mid, hi)
    left[live], right[live] = lo, hi
    return left, right


def _integrate(model: DensityModel, breaks, n: int, q_mass, p_mass) -> float:
    """Add the q- and p-mass of each interval between consecutive breaks to
    its cell and return the error: the summed |K7 - G3|, plus the mass of
    every interval that still straddles a cell edge after the last halving.

    An interval's cell is read off the ratio at its midpoint.  It is halved,
    at most _MAX_HALVINGS times, while its Kronrod and Gauss sums differ by
    more than its width's share of _TOL, or while the ratio at one of its
    nodes or ends lies in another cell (a crossing the panel samples
    missed).
    """
    rel_tol = _TOL / (breaks[-1] - breaks[0])
    a, b = breaks[:-1], breaks[1:]
    err = 0.0
    for depth in range(_MAX_HALVINGS + 1):
        _require_room(a.size, n)
        q7, p7, diff, cells, stray = _gauss(model, a, b, n)
        done = (diff <= rel_tol * (b - a)) & ~stray
        if depth == _MAX_HALVINGS:
            err += float(np.sum((q7 + p7)[stray]))
            done[:] = True
        finished = done.all()
        # the same values in the same order, without copying them
        sel = slice(None) if finished else done
        q_mass += np.bincount(cells[sel], weights=q7[sel], minlength=q_mass.size)
        p_mass += np.bincount(cells[sel], weights=p7[sel], minlength=p_mass.size)
        err += float(np.sum(diff[sel]))
        if finished:
            break
        a, b = a[~done], b[~done]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    return err


def _gauss(model: DensityModel, a, b, n: int):
    """7-node Gauss-Kronrod q- and p-integrals over each [a, b], |K7 - G3|
    of q plus that of p, the level-n cell of the ratio at the midpoint, and
    whether the ratio at a node, at a or just inside b lies in another cell.

    G3's nodes are among K7's, so the 7 nodes give both sums and q, the
    ratio and their product are evaluated there only; the midpoint is a
    node too.  A break at a located crossing is the first float past it, so
    the float before b is still on the interval's side.  The model is
    called on _GAUSS_BLOCK intervals at a time, the ratio once per block on
    9 rows: the 7 nodes, each a and the float before each b, one column per
    interval, so every sum and test reduces down the rows.  Summing along
    axis 0 adds the weighted rows in node order, as a sum along one
    interval's row of nodes would, so an interval's sums do not depend on
    the block's shape.  A model that fails is checked through the
    transpose, nodes before ends, so the first bad value named is the first
    in (interval, node) order, or else in (interval, end) order.
    """
    out = np.empty((3, a.size))
    cells = np.empty(a.size, dtype=np.int64)
    stray = np.empty(a.size, dtype=bool)

    for s in range(0, a.size, _GAUSS_BLOCK):
        lo, hi = a[s:s + _GAUSS_BLOCK], b[s:s + _GAUSS_BLOCK]
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        xs = np.empty((9, lo.size))
        nodes = np.multiply(_K7_X[:, None], half, out=xs[:7])
        nodes += mid
        xs[7] = lo
        np.nextafter(hi, lo, out=xs[8])
        r = model.ratio(xs)
        r_min, r_max = r.min(axis=0), r.max(axis=0)
        if not (r_min.min() >= 0 and r_max.max() < INF):  # a NaN fails both
            for rows in (slice(0, 7), slice(7, 9)):
                _checked(model, xs[rows].T, "ratio", r[rows].T)
        c = _cell_of(r[3], n)
        q = _checked(model, nodes.T, "base density", model.base_density(nodes).T).T
        p = q * r[:7]
        if not p.max() < INF:  # finite nonnegative q and r give no NaN
            _checked(model, nodes.T, "ratio * base density", p.T)
        sums = np.empty((7, lo.size))
        q7 = half * np.multiply(q, _K7_W[:, None], out=sums).sum(axis=0)
        p7 = half * np.multiply(p, _K7_W[:, None], out=sums).sum(axis=0)
        q3 = half * np.multiply(q[1::2], _G3_W[:, None], out=sums[:3]).sum(axis=0)
        p3 = half * np.multiply(p[1::2], _G3_W[:, None], out=sums[:3]).sum(axis=0)
        cells[s:s + _GAUSS_BLOCK] = c
        stray[s:s + _GAUSS_BLOCK] = ~_in_cell(r_min, r_max, c, n)
        out[:, s:s + _GAUSS_BLOCK] = q7, p7, np.abs(q7 - q3) + np.abs(p7 - p3)
    q7, p7, diff = out
    return q7, p7, diff, cells, stray


def _checked(model: DensityModel, xs, what: str, values):
    """values, the model's output at xs, after checking that they are finite
    and nonnegative.  A NaN fails the min and max tests too, so the mask
    that finds the first bad value is built only when one is there."""
    values = np.asarray(values)
    if values.size == 0 or (values.min() >= 0 and values.max() < INF):
        return values
    i = int(np.flatnonzero(~(np.isfinite(values) & (values >= 0)))[0])
    x = float(np.broadcast_to(xs, values.shape).flat[i])
    raise DomainMismatchError(
        f"model {model.name!r}: {what} is {values.flat[i]} at x = {x:.9g}, "
        "not a finite nonnegative number"
    )


def discretized_kl(level: PartitionLevel) -> float:
    """Discrete relative entropy of the level's cell masses, in nats.

    Cells with p-mass but no q-mass witness a failure of absolute
    continuity at this resolution and give +inf.  The terms p log(p/q)
    are summed exactly and rounded once, so the value is math.fsum's.  A
    cell whose p/q overflows to inf or underflows to 0 has a finite term
    all the same: its term is computed as p (log p - log q) instead,
    before the one sum.
    """
    p, q = level.p_mass, level.q_mass
    occupied = p > 0
    if np.any(occupied & (q <= 0)):
        return INF
    p, q = p[occupied], q[occupied]
    with np.errstate(over="ignore", divide="ignore"):
        terms = p * np.log(p / q)
    off = ~np.isfinite(terms)
    terms[off] = p[off] * (np.log(p[off]) - np.log(q[off]))
    return max(0.0, _exact_sum(terms))


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()) of a 1-D float array, bit for bit.

    Each term is m 2^(e - 53) with m an integer below 2^53 in magnitude, cut
    into a piece of at most 27 bits and one of 26.  np.bincount adds each
    piece per exponent e, exactly while there are at most _EXACT_TERMS =
    2^26 terms, so that no sum reaches 2^53; Python ints add the
    per-exponent sums, and one division rounds the exact total once.
    fsum's result is that correctly rounded total too.  fsum itself takes
    the arrays this cannot match it on: an empty one, a longer one,
    non-finite terms, totals whose partial sums may overflow, and an exact
    zero, whose sign is fsum's to choose.
    """
    m, e = np.frexp(x)
    if (
        x.size == 0 or x.size > _EXACT_TERMS or not np.isfinite(m).all()
        or int(e.max()) + x.size.bit_length() > 1023
    ):
        return math.fsum(x.tolist())
    m = m * 2.0**53  # exact: integers below 2^53 in magnitude
    high = np.trunc(m * 2.0**-26)
    m -= high * 2.0**26
    low = int(e.min())
    e -= low
    width = int(e.max()) + 1
    total = 0
    for piece, shift in ((high, 26), (m, 0)):
        sums = np.bincount(e, weights=piece, minlength=width).astype(np.int64).tolist()
        total += sum(s << k for k, s in enumerate(sums) if s) << shift
    if total == 0:
        return math.fsum(x.tolist())
    low -= 53
    return float(total << low) if low >= 0 else total / (1 << -low)


@dataclass(frozen=True)
class KlTrace:
    """Level-by-level estimates: (n, kl_n, occupied cells, error estimate)."""

    levels: tuple[tuple[int, float, int, float], ...]
    converged: bool
    final: float


def estimate_kl(
    model: DensityModel,
    n_max: int,
    stop_tol: float,
    integrator: IntegratorSpec,
) -> KlTrace:
    """Run the refinement ladder until the estimate settles or n_max.

    Stops early after two consecutive sub-tolerance increments; the trace
    of lower bounds is nondecreasing up to integration error.  Level 1
    checks the model contract as every level of bin_masses does.  Each
    level reuses level n - 1's crossings or Monte Carlo sample (see the
    module docstring), and every row equals the one a fresh bin_masses
    call gives, err_est included.
    """
    if n_max < 1:
        raise DomainMismatchError("n_max must be >= 1")
    if not 0 < stop_tol < INF:
        raise DomainMismatchError(f"stop_tol must be positive and finite, got {stop_tol!r}")
    rows: list[tuple[int, float, int, float]] = []
    prev = None
    small_steps = 0
    converged = False
    ladder = _Ladder(n_max)
    try:
        for n in range(1, n_max + 1):
            level = _level(model, n, integrator, ladder)
            kl = discretized_kl(level)
            rows.append((n, kl, level.occupied(), level.err_est))
            if prev is not None and math.isfinite(kl) and math.isfinite(prev):
                small_steps = small_steps + 1 if abs(kl - prev) < stop_tol else 0
                if small_steps >= 2:
                    converged = True
                    break
            prev = kl
    except IntegrationToleranceError as exc:
        exc.partial = KlTrace(tuple(rows), False, rows[-1][1] if rows else INF)
        raise
    return KlTrace(tuple(rows), converged, rows[-1][1])


# ---------------------------------------------------------------------------
# Built-in models addressable by name


def _require_finite(**params: float) -> None:
    """Refuse the first non-finite parameter by name: a comparison such as
    sigma <= 0 is false for nan, so a nan or infinite parameter would
    otherwise build a model whose ratio is nan.  An int past the float
    range is not finite either."""
    for name, value in params.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise DomainMismatchError(f"{name} must be finite, got {value!r}")


def gaussian_model(
    mu1: float, sigma1: float, mu2: float, sigma2: float,
    truncation: tuple[float, float] | None = None,
) -> DensityModel:
    """p = Normal(mu1, sigma1) against q = Normal(mu2, sigma2)."""
    _require_finite(mu1=mu1, sigma1=sigma1, mu2=mu2, sigma2=sigma2)
    if sigma1 <= 0 or sigma2 <= 0:
        raise DomainMismatchError("standard deviations must be positive")

    # Both densities are one in-place exp of a polynomial in t = x - mu2.
    # With s = 1 / sigma and d = (mu2 - mu1) s1,
    #   log q = -(ln sigma2 + ln(2 pi) / 2) - (t s2)^2 / 2,
    #   log r = c + t (b + a t),  a = (s2 - s1)(s2 + s1) / 2,  b = -d s1,
    #   c = ln sigma2 - ln sigma1 - d^2 / 2.
    # As the difference of two squares, 0.5 (z2^2 - z1^2), log r would
    # carry a rounding error like x^2 eps even where it is small itself, and
    # the float ratio would not be monotone across consecutive floats.  Here
    # the quadratic coefficient a vanishes with equal sigmas, which makes the
    # exponent exactly linear on its own (t 0 + b is b exactly), every step
    # is then a monotone rounding, and so is the float ratio.  The price is
    # a scale-dependent error: c and log q add logs of the sigmas, so their
    # absolute error is about |ln sigma| eps, and the relative error of r and
    # q grows from about eps at sigma near 1 to about 1e-13 at sigma = 1e300
    # (ln 1e300 is 690.8, whose half-ulp is 5.7e-14).  The coefficients use
    # +, -, *, / and logs of positive floats, which give inf or nan instead
    # of raising for any positive sigma.
    s1, s2 = 1 / sigma1, 1 / sigma2
    delta = (mu2 - mu1) * s1
    a = 0.5 * (s2 - s1) * (s2 + s1)
    b = -delta * s1
    c = (math.log(sigma2) - math.log(sigma1)) - 0.5 * delta * delta
    q_log_norm = -(math.log(sigma2) + 0.5 * math.log(2 * math.pi))

    def q_density(x):
        w = np.subtract(x, mu2, out=np.empty(np.shape(x)))
        w *= s2
        w *= w
        w *= -0.5
        w += q_log_norm
        np.exp(w, out=w)
        return w

    def ratio(x):
        t = np.subtract(x, mu2, out=np.empty(np.shape(x)))
        w = np.multiply(t, a, out=np.empty_like(t))
        w += b
        w *= t
        w += c
        np.exp(w, out=w)
        return w

    def sampler(rng, size):
        return rng.normal(mu2, sigma2, size)

    return DensityModel(
        name=f"gaussian({mu1},{sigma1},{mu2},{sigma2})",
        base_density=q_density,
        ratio=ratio,
        support=(-INF, INF),
        truncation=truncation,
        sampler=sampler,
    )


def gaussian_kl(mu1: float, sigma1: float, mu2: float, sigma2: float) -> float:
    """Closed-form KL(Normal(mu1,sigma1) || Normal(mu2,sigma2))."""
    return (
        math.log(sigma2 / sigma1)
        + (sigma1 * sigma1 + (mu1 - mu2) ** 2) / (2 * sigma2 * sigma2)
        - 0.5
    )


def exponential_model(
    lam1: float, lam2: float, truncation: tuple[float, float] | None = None
) -> DensityModel:
    """p = Exponential(lam1) against q = Exponential(lam2)."""
    _require_finite(lam1=lam1, lam2=lam2)
    if lam1 <= 0 or lam2 <= 0:
        raise DomainMismatchError("rates must be positive")

    # in place, in the order of lam * exp(-lam * clip(x, 0)) and 0 where
    # not x >= 0, so the bits are the plain expressions'
    def scaled_exp(x, rate, scale):
        w = np.clip(x, 0, None, out=np.empty(np.shape(x)))
        w *= rate
        np.exp(w, out=w)
        w *= scale
        np.copyto(w, 0.0, where=~np.greater_equal(x, 0))
        return w

    def q_density(x):
        return scaled_exp(x, -lam2, lam2)

    def ratio(x):
        return scaled_exp(x, lam2 - lam1, lam1 / lam2)

    def sampler(rng, size):
        return rng.exponential(1.0 / lam2, size)

    return DensityModel(
        name=f"exponential({lam1},{lam2})",
        base_density=q_density,
        ratio=ratio,
        support=(0.0, INF),
        truncation=truncation,
        sampler=sampler,
    )


def exponential_kl(lam1: float, lam2: float) -> float:
    """Closed-form KL(Exponential(lam1) || Exponential(lam2))."""
    return math.log(lam1 / lam2) + lam2 / lam1 - 1.0


def uniform_pair_model(a: float, b: float, c: float, d: float) -> DensityModel:
    """p = Uniform[a,b] against q = Uniform[c,d]; requires [a,b] inside [c,d].

    The nonempty pieces among [c, a), [a, b) and [b, d] of a piecewise
    constant model, so x = b belongs to [b, d] when b < d."""
    _require_finite(a=a, b=b, c=c, d=d)
    if not (c <= a < b <= d):
        raise DomainMismatchError("p's interval must sit inside q's for p << q")
    q, r = 1.0 / (d - c), (d - c) / (b - a)
    steps = ((c, a, 0.0), (a, b, r), (b, d, 0.0))
    pieces = [(lo, hi, q, ratio) for lo, hi, ratio in steps if lo < hi]
    model = piecewise_constant_model(pieces, name=f"uniform-pair({a},{b},{c},{d})")
    return replace(model, sampler=lambda rng, size: rng.uniform(c, d, size))


def piecewise_constant_model(
    pieces: list[tuple[float, float, float, float]], name: str = "piecewise"
) -> DensityModel:
    """A model from (lo, hi, q_density, ratio) pieces on disjoint intervals.

    Each piece holds [lo, hi), and the last one its top edge hi as well;
    both densities are 0 everywhere else, gaps between pieces included.
    """
    if not pieces:
        raise DomainMismatchError("need at least one piece")
    for lo, hi, *_ in pieces:
        if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
            raise DomainMismatchError(f"piece [{lo}, {hi}] is not a finite interval with lo < hi")
    pieces = sorted(pieces)
    for (l0, h0, *_), (l1, _h1, *_) in zip(pieces, pieces[1:]):
        if h0 > l1:
            raise DomainMismatchError("pieces overlap")
    # one breakpoint table: segment i is [edges[i], edges[i + 1]) and holds
    # vals[i + 1]; vals[0] lies below the first edge, a gap is a segment of
    # value 0, and the segment one float wide above the top edge is the
    # last piece's, so that edge belongs to it
    edges, vals = [pieces[0][0]], [(0.0, 0.0)]
    for lo, hi, q, r in pieces:
        if lo > edges[-1]:
            edges.append(lo)
            vals.append((0.0, 0.0))
        edges.append(hi)
        vals.append((q, r))
    top = edges[-1]
    edges = np.array(edges + [np.nextafter(top, INF)])
    q_vals, r_vals = np.array(vals + [vals[-1], (0.0, 0.0)], dtype=float).T

    def lookup(x, vals):
        return vals[np.searchsorted(edges, x, side="right")]

    return DensityModel(
        name=name,
        base_density=lambda x: lookup(x, q_vals),
        ratio=lambda x: lookup(x, r_vals),
        support=(float(edges[0]), float(top)),
        breaks=tuple(edges[:-1].tolist()),
    )


MODEL_REGISTRY: dict[str, Callable[..., DensityModel]] = {
    "gaussian": gaussian_model,
    "exponential": exponential_model,
    "uniform-pair": uniform_pair_model,
}
