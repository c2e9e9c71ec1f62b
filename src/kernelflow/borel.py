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
ratio is monotone, locates every crossing of a cell edge inside them by
bisection on the ratio, and integrates q and q * ratio between consecutive
crossings with two Gauss-Legendre orders, halving an interval only while
the orders disagree beyond a width-proportional budget or the ratio at
its nodes or ends leaves its cell.  Before the level is returned, the
integrals of q and p are checked against 1, so a model that does not
describe two probability measures fails at level 1.  The Monte Carlo
integrator bins seeded samples from q.  Both are deterministic given
their full IntegratorSpec.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainMismatchError, IntegrationToleranceError

INF = math.inf

_MODEL_VALIDATION_TOL = 1e-6

# Quadrature layout.  Every constant is fixed, so a level's masses depend
# only on the model, n and the tolerance.
_PANELS = 4096  # initial panels over the working interval
# ratio samples per panel: both ends, three inside and one a quarter
# panel beyond each end, so a turn just past an end sample is seen
_SAMPLES = np.linspace(-0.25, 1.25, 7)
_MONOTONE_DEPTH = 40  # halvings of a panel whose samples are not monotone
_BISECT_ROUNDS = 64  # bracket halvings per cell-edge crossing
_MAX_HALVINGS = 48  # halvings of an interval between crossings
_LIVE_PER_CELL = 4  # live panels, crossings or intervals per cell and panel
_CHUNK = 1 << 15  # crossings bisected per block
_GAUSS_BLOCK = 1 << 12  # intervals per block of Gauss nodes, sized for cache
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_GL_NODES = np.concatenate([_GL16_X, _GL8_X])
_GL_WEIGHTS = np.concatenate([_GL16_W, _GL8_W])


@dataclass(frozen=True)
class DensityModel:
    """p and q on an interval, given as q's density and the ratio dp/dq.

    base_density and ratio must accept numpy arrays and return finite,
    nonnegative values, and q and p must both integrate to 1; bin_masses
    raises DomainMismatchError where they do not (Monte Carlo checks only
    the ratio at its samples).  For quadrature on an unbounded support a
    truncation interval capturing all but <= 1e-10 of both masses must be
    supplied; the leftover is folded into the boundary cell and reported
    on the level.

    Known limit: the quadrature sees the ratio only at its panel samples
    and Gauss nodes, so a spike narrower than their spacing goes unseen.
    Masses and err_est are certified only for ratios those samples resolve.
    """

    name: str
    base_density: Callable[[np.ndarray], np.ndarray]
    ratio: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    truncation: tuple[float, float] | None = None
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None

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
        if self.truncation is not None:
            return self.truncation
        if not all(map(math.isfinite, self.support)):
            raise DomainMismatchError(
                f"model {self.name!r} has unbounded support and no truncation interval"
            )
        return self.support


@dataclass(frozen=True)
class IntegratorSpec:
    """Fully explicit integration request; no silent default switching.

    kind "quad" is deterministic quadrature between located cell-edge
    crossings, with tol the total error budget spread over the working
    interval in proportion to width; kind "mc" bins samples drawn from the
    model's q-sampler and requires a seed.  Every field is checked when
    the spec is built.
    """

    kind: str = "quad"
    tol: float = 1e-8
    seed: int | None = None
    samples: int = 1_000_000

    def __post_init__(self):
        if self.kind not in ("quad", "mc"):
            raise DomainMismatchError(f"unknown integrator kind {self.kind!r}")
        if self.kind == "mc" and self.seed is None:
            raise DomainMismatchError("Monte Carlo integration requires a seed")
        if self.seed is not None and not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise DomainMismatchError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (isinstance(self.samples, numbers.Integral) and self.samples > 0):
            raise DomainMismatchError(f"samples must be a positive integer, got {self.samples!r}")
        if not 0 < self.tol < INF:
            raise DomainMismatchError(f"tol must be positive and finite, got {self.tol!r}")


def cell_count(n: int) -> int:
    # k = 0 .. n*2^n - 1 plus the tail [n, inf)
    return n * (1 << n) + 1


def cell_interval(n: int, k: int) -> tuple[float, float]:
    if k == n * (1 << n):
        return (float(n), INF)
    return (k * 2.0**-n, (k + 1) * 2.0**-n)


def _cell_of(r: np.ndarray, n: int) -> np.ndarray:
    tail = n * (1 << n)
    idx = np.floor(np.clip(r, 0.0, n) * (1 << n)).astype(np.int64)
    return np.where(r >= n, tail, np.minimum(idx, tail))


def _in_cell(r: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    """Whether every ratio value in each row of r lies in that row's cell."""
    low = cells * 2.0**-n
    high = np.where(cells == n * (1 << n), INF, low + 2.0**-n)
    return ((r >= low[:, None]) & (r < high[:, None])).all(axis=1)


@dataclass(frozen=True)
class PartitionLevel:
    """Per-cell p and q masses at one dyadic refinement level."""

    n: int
    p_mass: np.ndarray = field(compare=False)
    q_mass: np.ndarray = field(compare=False)
    err_est: float = 0.0
    folded_q: float = 0.0
    folded_p: float = 0.0

    def occupied(self) -> int:
        return int(np.count_nonzero((self.p_mass > 0) | (self.q_mass > 0)))


def bin_masses(model: DensityModel, n: int, integrator: IntegratorSpec) -> PartitionLevel:
    """Masses of p and q on each level-n cell of the ratio partition."""
    if n < 1:
        raise DomainMismatchError("refinement level must be >= 1")
    # floating-point warnings stay off for the whole level: an overflow or a
    # 0 * inf in a model's output shows up as a non-finite value, which
    # _checked turns into a DomainMismatchError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if integrator.kind == "mc":
            return _bin_masses_mc(model, n, integrator)
        return _bin_masses_quad(model, n, integrator)


def validate_model(model: DensityModel) -> tuple[float, float]:
    """The integrals of q and p over the working interval, before folding,
    from the level-1 quadrature, which raises if the model breaks its contract."""
    level = bin_masses(model, 1, IntegratorSpec())
    return float(level.q_mass.sum()) - level.folded_q, float(level.p_mass.sum()) - level.folded_p


def _bin_masses_mc(model: DensityModel, n: int, spec: IntegratorSpec) -> PartitionLevel:
    if model.sampler is None:
        raise DomainMismatchError(f"model {model.name!r} has no sampler for Monte Carlo")
    rng = np.random.default_rng(spec.seed)
    xs = np.asarray(model.sampler(rng, spec.samples), dtype=float)
    r = _checked(model, xs, "ratio", model.ratio(xs))
    cells = _cell_of(r, n)
    nc = cell_count(n)
    q_mass = np.bincount(cells, minlength=nc).astype(float) / spec.samples
    p_mass = np.bincount(cells, weights=r, minlength=nc) / spec.samples
    err = 1.0 / math.sqrt(spec.samples)
    return PartitionLevel(n, p_mass, q_mass, err)


def _bin_masses_quad(model: DensityModel, n: int, spec: IntegratorSpec) -> PartitionLevel:
    lo, hi = model.quad_interval()
    nc = cell_count(n)
    q_mass = np.zeros(nc)
    p_mass = np.zeros(nc)
    try:
        a, b, r_a, r_b, err = _monotone_panels(model, lo, hi, n)
        cuts, cut_err = _crossings(model, a, b, r_a, r_b, n)
        err += cut_err
        breaks = np.sort(np.concatenate([a, [hi], cuts]))
        err += _integrate(model, breaks, n, spec.tol / (hi - lo), q_mass, p_mass)
    except IntegrationToleranceError as exc:
        # the level was abandoned part way, so its masses are incomplete
        exc.partial = PartitionLevel(n, p_mass, q_mass, INF)
        raise

    np.maximum(q_mass, 0.0, out=q_mass)
    np.maximum(p_mass, 0.0, out=p_mass)
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
        # mass beyond the declared truncation (<= 1e-10 by contract) goes
        # into the cell at the heavier boundary
        folded_q = max(0.0, 1.0 - float(q_mass.sum()))
        folded_p = max(0.0, 1.0 - float(p_mass.sum()))
        edge = hi if s_hi > hi else lo
        k = int(_cell_of(model.ratio(np.array([edge])), n)[0])
        q_mass[k] += folded_q
        p_mass[k] += folded_p

    if err > max(spec.tol * 100.0, 1e-6):
        raise IntegrationToleranceError(
            f"quadrature error estimate {err:.3g} exceeds tolerance at level {n}",
            achieved=err,
            partial=PartitionLevel(n, p_mass, q_mass, err, folded_q, folded_p),
        )
    return PartitionLevel(n, p_mass, q_mass, err, folded_q, folded_p)


def _require_room(live: int, n: int) -> None:
    """Stop a level whose halvings run away.  A monotone piece crosses at
    most cell_count(n) edges, so the cap leaves room for four sweeps of
    the whole ratio range besides the panel grid."""
    cap = _LIVE_PER_CELL * (cell_count(n) + _PANELS)
    if live > cap:
        raise IntegrationToleranceError(
            f"quadrature needs more than {cap} live intervals at level {n}",
            achieved=INF,
        )


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
    """
    edges = np.linspace(lo, hi, _PANELS + 1)
    a, b = edges[:-1], edges[1:]
    done = []
    err = 0.0
    for depth in range(_MONOTONE_DEPTH + 1):
        _require_room(a.size, n)
        xs = np.clip(a[:, None] + (b - a)[:, None] * _SAMPLES, lo, hi)
        xs[:, 1], xs[:, -2] = a, b
        r = _checked(model, xs, "ratio", model.ratio(xs))
        step = np.diff(r, axis=1)
        xs, r = xs[:, 1:-1], r[:, 1:-1]  # the panel's own samples
        r_min, r_max = r.min(axis=1), r.max(axis=1)
        spread = r_max - r_min
        ok = (
            (step >= 0).all(axis=1)
            | (step <= 0).all(axis=1)
            | (_cell_of(r_min - spread, n) == _cell_of(r_max + spread, n))
        )
        if depth == _MONOTONE_DEPTH and not ok.all():
            q = _checked(model, xs[~ok], "base density", model.base_density(xs[~ok]))
            err += float(np.sum((b - a)[~ok] * (q * (1.0 + r[~ok])).max(axis=1)))
            ok[:] = True
        done.append((a[ok], b[ok], r[ok, 0], r[ok, -1]))
        if ok.all():
            break
        a, b = a[~ok], b[~ok]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    a, b, r_a, r_b = (np.concatenate(col) for col in zip(*done))
    return a, b, r_a, r_b, err


def _crossings(model: DensityModel, a, b, r_a, r_b, n: int):
    """Where the ratio crosses each level-n cell edge inside the panels.

    The edges crossed in a monotone panel are j 2^-n for j above the lower
    end cell up to the upper one (j = n 2^n is the tail edge n).  Each is
    bracketed by bisection on the ratio alone until the bracket ends are
    adjacent floats, _CHUNK crossings at a time to bound memory.  Returns
    the right bracket ends and, as error, each bracket's width times the
    larger q + p at its ends.
    """
    c_a, c_b = _cell_of(r_a, n), _cell_of(r_b, n)
    rising = c_b > c_a
    count = np.abs(c_b - c_a)
    total = int(count.sum())
    _require_room(total, n)
    panel = np.repeat(np.arange(a.size), count)
    first = np.minimum(c_a, c_b)[panel] + 1
    j = first + np.arange(total) - np.repeat(np.cumsum(count) - count, count)
    cuts = np.empty(total)
    err = 0.0
    for s in range(0, total, _CHUNK):
        block = panel[s:s + _CHUNK]
        left, right = _bisect(model, a[block], b[block], j[s:s + _CHUNK] * 2.0**-n, rising[block])
        ends = np.stack([left, right])
        q = _checked(model, ends, "base density", model.base_density(ends))
        p = _checked(model, ends, "ratio * base density", q * model.ratio(ends))
        err += float(np.sum((right - left) * (q + p).max(axis=0)))
        cuts[s:s + _CHUNK] = right
    return cuts, err


def _bisect(model: DensityModel, left, right, edge, rising):
    """The brackets [left, right] of the points where the ratio crosses
    each edge, rising or falling, halved until their ends are adjacent
    floats (at most _BISECT_ROUNDS times).  Overwrites left and right."""
    live = np.arange(left.size)
    lo, hi = left, right
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


def _integrate(model: DensityModel, breaks, n: int, rel_tol: float, q_mass, p_mass) -> float:
    """Add the q- and p-mass of each interval between consecutive breaks to
    its cell and return the error: the summed |G16 - G8|, plus the mass of
    every interval that still straddles a cell edge after the last halving.

    An interval's cell is read off the ratio at its midpoint.  It is halved,
    at most _MAX_HALVINGS times, while its two Gauss-Legendre orders differ
    by more than rel_tol times its width, or while the ratio at one of its
    nodes or ends lies in another cell (a crossing the panel samples
    missed).
    """
    a, b = breaks[:-1], breaks[1:]
    err = 0.0
    for depth in range(_MAX_HALVINGS + 1):
        _require_room(a.size, n)
        q16, p16, diff, cells, stray = _gauss(model, a, b, n)
        done = (diff <= rel_tol * (b - a)) & ~stray
        if depth == _MAX_HALVINGS:
            err += float(np.sum((q16 + p16)[stray]))
            done[:] = True
        q_mass += np.bincount(cells[done], weights=q16[done], minlength=q_mass.size)
        p_mass += np.bincount(cells[done], weights=p16[done], minlength=p_mass.size)
        err += float(np.sum(diff[done]))
        if done.all():
            break
        a, b = a[~done], b[~done]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    return err


def _gauss(model: DensityModel, a, b, n: int):
    """16-node Gauss-Legendre q- and p-integrals over each [a, b], |G16 - G8|
    of q plus that of p, the level-n cell of the ratio at the midpoint, and
    whether the ratio at a node, at a or just inside b lies in another cell.

    A break at a located crossing is the first float past it, so the float
    before b is still on the interval's side.  The model is called on
    _GAUSS_BLOCK intervals at a time, so each node array stays in cache.
    """
    out = np.empty((5, a.size))
    for s in range(0, a.size, _GAUSS_BLOCK):
        lo, hi = a[s:s + _GAUSS_BLOCK], b[s:s + _GAUSS_BLOCK]
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        nodes = mid[:, None] + half[:, None] * _GL_NODES
        ends = np.column_stack([lo, np.nextafter(hi, lo), mid])
        r = _checked(model, nodes, "ratio", model.ratio(nodes))
        r_ends = _checked(model, ends, "ratio", model.ratio(ends))
        q = _checked(model, nodes, "base density", model.base_density(nodes))
        p = _checked(model, nodes, "ratio * base density", q * r)
        q, p = q * _GL_WEIGHTS, p * _GL_WEIGHTS
        q16, p16 = half * q[:, :16].sum(axis=1), half * p[:, :16].sum(axis=1)
        q8, p8 = half * q[:, 16:].sum(axis=1), half * p[:, 16:].sum(axis=1)
        cells = _cell_of(r_ends[:, -1], n)
        stray = ~(_in_cell(r, cells, n) & _in_cell(r_ends, cells, n))
        out[:, s:s + _GAUSS_BLOCK] = q16, p16, np.abs(q16 - q8) + np.abs(p16 - p8), cells, stray
    q16, p16, diff, cells, stray = out
    return q16, p16, diff, cells.astype(np.int64), stray > 0


def _checked(model: DensityModel, xs, what: str, values):
    """values, the model's output at xs, after checking that they are finite
    and nonnegative."""
    ok = np.isfinite(values) & (values >= 0)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        x = float(np.broadcast_to(xs, values.shape).flat[i])
        raise DomainMismatchError(
            f"model {model.name!r}: {what} is {values.flat[i]} at x = {x:.9g}, "
            "not a finite nonnegative number"
        )
    return values


def discretized_kl(level: PartitionLevel) -> float:
    """Discrete relative entropy of the level's cell masses, in nats.

    Cells with p-mass but no q-mass witness a failure of absolute
    continuity at this resolution and give +inf.
    """
    p, q = level.p_mass, level.q_mass
    occupied = p > 0
    if np.any(occupied & (q <= 0)):
        return INF
    terms = p[occupied] * np.log(p[occupied] / q[occupied])
    return max(0.0, float(math.fsum(terms)))


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
    checks the model contract as every level of bin_masses does.
    """
    if n_max < 1:
        raise DomainMismatchError("n_max must be >= 1")
    if stop_tol <= 0:
        raise DomainMismatchError("stop_tol must be positive")
    rows: list[tuple[int, float, int, float]] = []
    prev = None
    small_steps = 0
    converged = False
    try:
        for n in range(1, n_max + 1):
            level = bin_masses(model, n, integrator)
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


# midpoint-grid intervals of agreement_check's reference integral
_AGREEMENT_GRID = 1_000_001


def agreement_check(model: DensityModel, level: PartitionLevel) -> float:
    """Max deviation between stored p-masses and the simple-function model.

    The simple function is p_mass/q_mass on each cell; integrating it
    against the base density over the cell must reproduce p_mass, so any
    deviation is integration error.  The reference integral uses an
    independent dense midpoint grid; grid intervals straddling a ratio-cell
    boundary are subdivided so the reference's own binning error stays far
    below the deviations it is meant to expose.
    """
    lo, hi = model.quad_interval()
    nc = cell_count(level.n)
    q_ref = np.zeros(nc)
    edges = np.linspace(lo, hi, _AGREEMENT_GRID + 1)
    edge_cells = _cell_of(model.ratio(edges), level.n)
    straddle = edge_cells[:-1] != edge_cells[1:]
    w = (hi - lo) / _AGREEMENT_GRID
    mids = edges[:-1] + 0.5 * w
    q_mid = model.base_density(mids)
    plain = ~straddle
    np.add.at(q_ref, edge_cells[:-1][plain], q_mid[plain] * w)
    if np.any(straddle):
        sub = 256
        a = edges[:-1][straddle]
        offs = (np.arange(sub) + 0.5)[:, None] * (w / sub)
        xs = a[None, :] + offs
        cells = _cell_of(model.ratio(xs), level.n)
        np.add.at(q_ref, cells.ravel(), model.base_density(xs).ravel() * (w / sub))
    occupied = level.q_mass > 0
    simple = np.zeros(nc)
    simple[occupied] = level.p_mass[occupied] / level.q_mass[occupied]
    return float(np.max(np.abs(level.p_mass - simple * q_ref), initial=0.0))


# ---------------------------------------------------------------------------
# Built-in models addressable by name


def gaussian_model(
    mu1: float, sigma1: float, mu2: float, sigma2: float,
    truncation: tuple[float, float] | None = None,
) -> DensityModel:
    """p = Normal(mu1, sigma1) against q = Normal(mu2, sigma2)."""
    if sigma1 <= 0 or sigma2 <= 0:
        raise DomainMismatchError("standard deviations must be positive")

    def q_density(x):
        z = (x - mu2) / sigma2
        return np.exp(-0.5 * z * z) / (sigma2 * math.sqrt(2 * math.pi))

    def ratio(x):
        z1 = (x - mu1) / sigma1
        z2 = (x - mu2) / sigma2
        return (sigma2 / sigma1) * np.exp(0.5 * (z2 * z2 - z1 * z1))

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
    if lam1 <= 0 or lam2 <= 0:
        raise DomainMismatchError("rates must be positive")

    def q_density(x):
        return np.where(x >= 0, lam2 * np.exp(-lam2 * np.clip(x, 0, None)), 0.0)

    def ratio(x):
        return np.where(x >= 0, (lam1 / lam2) * np.exp((lam2 - lam1) * np.clip(x, 0, None)), 0.0)

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
    """p = Uniform[a,b] against q = Uniform[c,d]; requires [a,b] inside [c,d]."""
    if not (c <= a < b <= d):
        raise DomainMismatchError("p's interval must sit inside q's for p << q")
    r_val = (d - c) / (b - a)

    def q_density(x):
        return np.where((x >= c) & (x <= d), 1.0 / (d - c), 0.0)

    def ratio(x):
        return np.where((x >= a) & (x <= b), r_val, 0.0)

    def sampler(rng, size):
        return rng.uniform(c, d, size)

    return DensityModel(
        name=f"uniform-pair({a},{b},{c},{d})",
        base_density=q_density,
        ratio=ratio,
        support=(c, d),
        sampler=sampler,
    )


def piecewise_constant_model(
    pieces: list[tuple[float, float, float, float]], name: str = "piecewise"
) -> DensityModel:
    """A model from (lo, hi, q_density, ratio) pieces on disjoint intervals."""
    if not pieces:
        raise DomainMismatchError("need at least one piece")
    pieces = sorted(pieces)
    for (l0, h0, *_), (l1, _h1, *_) in zip(pieces, pieces[1:]):
        if h0 > l1:
            raise DomainMismatchError("pieces overlap")
    edges = np.array([p[0] for p in pieces] + [pieces[-1][1]])
    his = np.array([p[1] for p in pieces])
    q_vals = np.array([p[2] for p in pieces])
    r_vals = np.array([p[3] for p in pieces])

    def lookup(x, vals):
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(pieces) - 1)
        inside = (x >= edges[0]) & (x < his[idx]) | np.isclose(x, edges[0]) | (x == edges[-1])
        return np.where(inside, vals[idx], 0.0)

    return DensityModel(
        name=name,
        base_density=lambda x: lookup(x, q_vals),
        ratio=lambda x: lookup(x, r_vals),
        support=(float(edges[0]), float(edges[-1])),
    )


MODEL_REGISTRY: dict[str, Callable[..., DensityModel]] = {
    "gaussian": gaussian_model,
    "exponential": exponential_model,
    "uniform-pair": uniform_pair_model,
}
