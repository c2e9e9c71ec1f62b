"""Oracles and reference kernels for the real-line estimator.

The level-n exponential reference inverts the monotone density ratio and
uses the closed-form CDFs, and agreement_check integrates on its own dense
midpoint grid.  The interval-major quadrature kernels are the estimator's
earlier layout, kept as bit-for-bit references for its node-major one,
and the built-in models' plain expressions as references for their
in-place ones.  These need numpy and kernelflow.borel, which the
exact-layer helpers in helpers.py do not import.
"""

from __future__ import annotations

import math

import numpy as np

from kernelflow import borel
from kernelflow.borel import DensityModel, PartitionLevel, cell_count

INF = math.inf


def exponential_kl_oracle(n: int) -> float:
    """Exact level-n discrete KL for Exp(1) vs Exp(2) via the CDFs.

    The ratio e^x / 2 is increasing, so the level-n cell [a, b) of ratio
    values is the x-interval [ln 2a, ln 2b) clipped to x >= 0.
    """
    terms = []
    for k in range(cell_count(n)):
        a_r, b_r = cell_interval(n, k)
        x_lo = max(0.0, -INF if a_r == 0 else math.log(2 * a_r))
        x_hi = max(0.0, INF if b_r == INF else math.log(2 * b_r))
        if x_hi <= x_lo:
            continue
        p = math.exp(-x_lo) - (0.0 if x_hi == INF else math.exp(-x_hi))
        q = math.exp(-2 * x_lo) - (0.0 if x_hi == INF else math.exp(-2 * x_hi))
        if p > 0 and q > 0:
            terms.append(p * math.log(p / q))
    return math.fsum(terms)


def cell_interval(n: int, k: int) -> tuple[float, float]:
    """The ratio values [lo, hi) of level-n cell k; the last cell is [n, inf)."""
    if k == n * (1 << n):
        return (float(n), INF)
    return (k * 2.0**-n, (k + 1) * 2.0**-n)


def _cell_index(r: np.ndarray, n: int) -> np.ndarray:
    # floor of r 2^n, with every r >= n in the tail cell n 2^n
    tail = n * (1 << n)
    idx = np.floor(np.clip(r, 0.0, n) * (1 << n)).astype(np.int64)
    return np.where(r >= n, tail, np.minimum(idx, tail))


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
    edge_cells = _cell_index(model.ratio(edges), level.n)
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
        cells = _cell_index(model.ratio(xs), level.n)
        np.add.at(q_ref, cells.ravel(), model.base_density(xs).ravel() * (w / sub))
    occupied = level.q_mass > 0
    simple = np.zeros(nc)
    simple[occupied] = level.p_mass[occupied] / level.q_mass[occupied]
    return float(np.max(np.abs(level.p_mass - simple * q_ref), initial=0.0))


def interval_major_gauss(model: DensityModel, a, b, n: int):
    """borel._gauss as one interval-major block: one row of 7 nodes per
    interval, each sum along a row and each test across it."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * borel._K7_X
    ends = np.column_stack([a, np.nextafter(b, a)])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = borel._checked(model, nodes, "ratio", model.ratio(nodes))
        r_ends = borel._checked(model, ends, "ratio", model.ratio(ends))
        q = borel._checked(model, nodes, "base density", model.base_density(nodes))
        p = borel._checked(model, nodes, "ratio * base density", q * r)
    q7, p7 = half * (q * borel._K7_W).sum(axis=1), half * (p * borel._K7_W).sum(axis=1)
    q3, p3 = half * (q[:, 1::2] * borel._G3_W).sum(axis=1), half * (p[:, 1::2] * borel._G3_W).sum(axis=1)
    cells = borel._cell_of(r[:, 3], n)

    def in_cell(r):
        low = cells * 2.0**-n
        high = np.where(cells == n * (1 << n), INF, low + 2.0**-n)
        return ((r >= low[:, None]) & (r < high[:, None])).all(axis=1)

    stray = ~(in_cell(r) & in_cell(r_ends))
    return q7, p7, np.abs(q7 - q3) + np.abs(p7 - p3), cells, stray


def plain_gaussian_model(mu1, sigma1, mu2, sigma2):
    """borel.gaussian_model's q and ratio as the plain expressions it
    evaluates in place, exps of polynomials in t = x - mu2, kept as
    bit-for-bit references."""
    s1, s2 = 1 / sigma1, 1 / sigma2
    delta = (mu2 - mu1) * s1
    a = 0.5 * (s2 - s1) * (s2 + s1)
    b = -delta * s1
    c = (math.log(sigma2) - math.log(sigma1)) - 0.5 * delta * delta

    def q_density(x):
        z = (x - mu2) * s2
        return np.exp(-0.5 * (z * z) + -(math.log(sigma2) + 0.5 * math.log(2 * math.pi)))

    def ratio(x):
        t = x - mu2
        return np.exp(t * (a * t + b) + c)

    return q_density, ratio


def plain_exponential_model(lam1, lam2):
    """borel.exponential_model's q and ratio as plain expressions."""

    def q_density(x):
        return np.where(x >= 0, lam2 * np.exp(-lam2 * np.clip(x, 0, None)), 0.0)

    def ratio(x):
        return np.where(x >= 0, (lam1 / lam2) * np.exp((lam2 - lam1) * np.clip(x, 0, None)), 0.0)

    return q_density, ratio


def interval_major_panels(model: DensityModel, lo: float, hi: float, n: int):
    """borel._monotone_panels with one row of samples per panel."""
    breaks = np.asarray(model.breaks, dtype=float)
    edges = np.union1d(np.linspace(lo, hi, borel._PANELS + 1), breaks[(breaks > lo) & (breaks < hi)])
    a, b = edges[:-1], edges[1:]
    done = []
    err = 0.0
    for depth in range(borel._MONOTONE_DEPTH + 1):
        borel._require_room(a.size, n)
        xs = np.clip(a[:, None] + (b - a)[:, None] * borel._SAMPLES, lo, hi)
        xs[:, 1], xs[:, -2] = a, b
        r = borel._checked(model, xs, "ratio", model.ratio(xs))
        step = np.diff(r, axis=1)
        xs, r = xs[:, 1:-1], r[:, 1:-1]
        r_min, r_max = r.min(axis=1), r.max(axis=1)
        spread = r_max - r_min
        ok = (
            (step >= 0).all(axis=1)
            | (step <= 0).all(axis=1)
            | (borel._cell_of(r_min - spread, n) == borel._cell_of(r_max + spread, n))
        )
        if depth == borel._MONOTONE_DEPTH and not ok.all():
            q = borel._checked(model, xs[~ok], "base density", model.base_density(xs[~ok]))
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
