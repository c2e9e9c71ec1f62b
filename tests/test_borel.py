"""Continuous-KL estimator: dyadic ratio partitions, integration, traces.

Independent oracles: for the model instances checked against exact
masses, every set {ratio >= c} is an interval (the ratio is monotone, or
rises and falls once), so each cell's exact p/q masses follow from the
closed-form CDFs.  The estimator never assumes this structure (it tests
monotonicity panel by panel from ratio samples and integrates the
densities numerically), which keeps the comparison honest.
"""

import dataclasses
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelflow import borel
from kernelflow.borel import (
    MODEL_REGISTRY,
    DensityModel,
    IntegratorSpec,
    KlTrace,
    PartitionLevel,
    bin_masses,
    cell_count,
    discretized_kl,
    estimate_kl,
    exponential_kl,
    exponential_model,
    gaussian_kl,
    gaussian_model,
    piecewise_constant_model,
    uniform_pair_model,
    validate_model,
)
from kernelflow.errors import DomainMismatchError, IntegrationToleranceError

from estimator_helpers import (
    agreement_check,
    cell_interval,
    exponential_kl_oracle,
    interval_major_gauss,
    interval_major_panels,
    plain_exponential_model,
    plain_gaussian_model,
)

INF = math.inf
QUAD = IntegratorSpec()

GAUSS_TRUNC = (-12.0, 13.0)
EXPO_TRUNC = (0.0, 40.0)


def gauss01_11():
    return gaussian_model(0, 1, 1, 1, truncation=GAUSS_TRUNC)


def expo1_2():
    return exponential_model(1, 2, truncation=EXPO_TRUNC)


def norm_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2))


def peak_missed_by_the_panels(monkeypatch):
    """N(mu, 1) || N(mu, 2 + 2^-24) with no panel halvings allowed: the
    panel holding the peak is kept whole and charged to the error, which
    passes the ceiling at level 1 and not at level 2.  Returns the model,
    mu and sigma."""
    monkeypatch.setattr("kernelflow.borel._MONOTONE_DEPTH", 0)
    mu, sigma = -16 + 2090.95 / 128, 2 + 2.0**-24
    return gaussian_model(mu, 1, mu, sigma, truncation=(-16.0, 16.0)), mu, sigma


def alternating_pieces():
    """2,000 pieces with an alternating ratio: levels 1 and 2 finish, and
    resolving the pieces at level 3 needs more intervals than its cap."""
    return piecewise_constant_model(
        [(i / 2000, (i + 1) / 2000, 1.0, 1.5 if i % 2 else 0.5) for i in range(2000)]
    )


def sqrt_model():
    """q = 1 on [0, 1] and ratio 1.5 sqrt(x), whose slope is infinite at 0."""
    return DensityModel("sqrt", np.ones_like, lambda x: 1.5 * np.sqrt(x), (0.0, 1.0))


def jump_inside_a_panel():
    """q = 3/2 on [0, 1/2) and 1/2 on [1/2, 1], and a ratio that jumps from
    3/4 to 5/4 at 1/3, inside a panel and with no declared breaks.  The two
    values lie in different cells at every level, so every level's discrete
    KL is the KL, 3/8 ln 3/4 + 5/8 ln 5/4."""
    return DensityModel(
        "jump", lambda x: np.where(x < 0.5, 1.5, 0.5), lambda x: np.where(x < 1 / 3, 0.75, 1.25), (0.0, 1.0)
    )


def narrow_piece():
    """q = 1 on [0, 1] and a ratio of 50 on a piece 1e-5 wide, declared as
    breaks, and a constant below 1 elsewhere."""
    at, width, peak = 0.50003333, 1e-5, 50.0
    rest = (1 - width * peak) / (1 - width)
    return piecewise_constant_model(
        [(0.0, at, 1.0, rest), (at, at + width, 1.0, peak), (at + width, 1.0, 1.0, rest)]
    )


def fresh_crossings(monkeypatch, model, n, bisect=borel._bisect):
    """bin_masses(model, n) and its crossings: each bracket's ends, its edge
    and direction, and the ratio evaluations the bracketing made.  bisect
    is borel's own, bound when this module loads, so calls may nest."""
    found, evals = [], []

    def spy(model, left, right, r_left, r_right, edge, rising):
        model, calls = counted(model)
        left, right = bisect(model, left, right, r_left, r_right, edge, rising)
        found.append((left, right, edge, rising))
        evals.append(calls[0])
        return left, right

    monkeypatch.setattr(borel, "_bisect", spy)
    level = bin_masses(model, n, QUAD)
    left, right, edge, rising = (np.concatenate(col) for col in zip(*found))
    return level, left, right, edge, rising, sum(evals)


def gaussian_cell_oracle(n):
    """Exact cell masses for N(0,1) vs N(1,1): ratio e^(1/2 - x) is
    monotone, so each ratio cell is an x-interval with CDF-exact masses."""
    nc = cell_count(n)
    p_mass, q_mass = np.zeros(nc), np.zeros(nc)
    for k in range(nc):
        a_r, b_r = cell_interval(n, k)
        x_hi = INF if a_r == 0 else 0.5 - math.log(a_r)
        x_lo = -INF if b_r == INF else 0.5 - math.log(b_r)
        p_mass[k] = norm_cdf(x_hi) - norm_cdf(x_lo)
        q_mass[k] = norm_cdf(x_hi - 1) - norm_cdf(x_lo - 1)
    return p_mass, q_mass


def gaussian_scale_oracle(n, mu, sigma):
    """Exact cell masses for p = N(mu, 1) against q = N(mu, sigma), sigma > 1.

    The ratio sigma e^(-(1 - 1/sigma^2)(x - mu)^2 / 2) rises to sigma at
    x = mu and falls again, so {ratio >= c} is the interval |x - mu| <= s(c)
    and each cell's masses are differences of erf values."""
    shrink = 1 - 1 / sigma**2

    def at_least(c, scale):
        if c == 0:
            return 1.0
        if c >= sigma:
            return 0.0
        s = math.sqrt(2 * math.log(sigma / c) / shrink)
        return math.erf(s / (scale * math.sqrt(2)))

    nc = cell_count(n)
    p_mass, q_mass = np.zeros(nc), np.zeros(nc)
    for k in range(nc):
        a_r, b_r = cell_interval(n, k)
        p_mass[k] = at_least(a_r, 1) - at_least(b_r, 1)
        q_mass[k] = at_least(a_r, sigma) - at_least(b_r, sigma)
    return p_mass, q_mass


class TestPartitionGeometry:
    def test_cells_tile_the_half_line(self):
        for n in (1, 2, 3):
            edges = [cell_interval(n, k) for k in range(cell_count(n))]
            assert edges[0][0] == 0.0
            for (lo, hi), (lo2, _) in zip(edges, edges[1:]):
                assert hi == lo2  # disjoint and exhaustive
            assert edges[-1] == (float(n), INF)

    def test_refinement_nesting(self):
        # every level-n cell is a union of level-(n+1) cells
        n = 3
        for k in range(cell_count(n)):
            lo, hi = cell_interval(n, k)
            fine = [
                cell_interval(n + 1, j)
                for j in range(cell_count(n + 1))
                if cell_interval(n + 1, j)[0] >= lo
                and cell_interval(n + 1, j)[1] <= (hi if hi != INF else INF)
            ]
            assert fine[0][0] == lo
            assert fine[-1][1] == hi

    @pytest.mark.parametrize("n", range(1, 21))
    def test_cell_of_equals_floor_and_cap(self, n):
        # the cell as floor(clip(r, 0, n) 2^n) capped at the tail, with r >= n
        # sent to the tail, against the one clip and truncating cast
        edge = [-INF, -1.0, 0.0, np.nextafter(n, 0), n, INF, 1e300]
        r = np.concatenate([edge, np.random.default_rng(n).exponential(n / 2, 100_000)])
        tail = n * (1 << n)
        floor = np.floor(np.clip(r, 0.0, n) * (1 << n)).astype(np.int64)
        want = np.where(r >= n, tail, np.minimum(floor, tail))
        assert np.array_equal(borel._cell_of(r, n), want)
        assert borel._cell_of(r[:7], n).tolist() == [0, 0, 0, tail - 1, tail, tail, tail]


class TestBinMasses:
    def test_equal_measures_single_cell(self):
        # ratio identically 1: everything lands in the cell containing 1
        model = uniform_pair_model(0, 1, 0, 1)
        for n in (1, 2, 4):
            level = bin_masses(model, n, QUAD)
            k = 1 << n  # cell [1, 1 + 2^-n)
            assert level.p_mass[k] == pytest.approx(1.0, abs=1e-9)
            assert level.q_mass[k] == pytest.approx(1.0, abs=1e-9)
            assert level.occupied() == 1

    def test_gaussian_matches_cdf_oracle(self):
        level = bin_masses(gauss01_11(), 2, QUAD)
        p_ref, q_ref = gaussian_cell_oracle(2)
        assert np.max(np.abs(level.p_mass - p_ref)) < 1e-6
        assert np.max(np.abs(level.q_mass - q_ref)) < 1e-6

    def test_gaussian_matches_midpoint_oracle(self):
        # independent dense-grid Riemann sums over the truncation interval
        model = gauss01_11()
        level = bin_masses(model, 2, QUAD)
        lo, hi = GAUSS_TRUNC
        pts = 10_000_001
        w = (hi - lo) / pts
        xs = lo + (np.arange(pts) + 0.5) * w
        q = model.base_density(xs)
        r = model.ratio(xs)
        cells = np.where(r >= 2, cell_count(2) - 1, np.minimum(
            np.floor(r * 4).astype(int), cell_count(2) - 1))
        q_ref = np.bincount(cells, weights=q, minlength=cell_count(2)) * w
        p_ref = np.bincount(cells, weights=q * r, minlength=cell_count(2)) * w
        assert np.max(np.abs(level.q_mass - q_ref)) < 1e-6
        assert np.max(np.abs(level.p_mass - p_ref)) < 1e-6

    def test_tail_cell_occupied(self):
        # the gaussian ratio exceeds 1 on x < 1/2, a q-positive set
        level = bin_masses(gauss01_11(), 1, QUAD)
        assert level.q_mass[-1] > 0
        assert level.p_mass[-1] > 0

    def test_mass_conservation(self):
        for model in (gauss01_11(), expo1_2()):
            for n in (1, 3, 5):
                level = bin_masses(model, n, QUAD)
                assert float(level.p_mass.sum()) == pytest.approx(1.0, abs=1e-7)
                assert float(level.q_mass.sum()) == pytest.approx(1.0, abs=1e-7)

    def test_level_must_be_positive(self):
        with pytest.raises(DomainMismatchError):
            bin_masses(gauss01_11(), 0, QUAD)

    def test_unbounded_support_needs_truncation(self):
        with pytest.raises(DomainMismatchError):
            bin_masses(gaussian_model(0, 1, 1, 1), 2, QUAD)

    @pytest.mark.parametrize("model", [
        gaussian_model(0, 1, 0, 1, truncation=(-1e308, 1e308)),
        piecewise_constant_model([(-1e308, 0.0, 5e-309, 1.0), (0.0, 1e308, 5e-309, 1.0)]),
    ], ids=["truncation", "support"])
    def test_working_interval_wider_than_a_float_is_refused(self, model):
        # hi - lo overflows: the panel grid held inf and nan, and these
        # ended in "ratio is nan" or in the live-interval cap
        with pytest.raises(DomainMismatchError, match=r"working interval \[-1e\+308, 1e\+308\] is wider "
                           "than the largest float$"):
            bin_masses(model, 1, QUAD)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e308), (-1e308, -1.0)])
    def test_working_interval_whose_midpoints_overflow_is_refused(self, lo, hi):
        # hi - lo is finite, but lo + hi of the top intervals is not: their
        # midpoints were inf, and the level ended in the live-interval cap
        model = uniform_pair_model(lo, hi, lo, hi)
        with pytest.raises(DomainMismatchError) as err:
            bin_masses(model, 1, QUAD)
        assert str(err.value) == (f"model {model.name!r}: working interval [{lo}, {hi}] has an end "
                                  "beyond half the largest float, where midpoints overflow")

    def test_deterministic_bit_identical(self):
        a = bin_masses(gauss01_11(), 4, QUAD)
        b = bin_masses(gauss01_11(), 4, QUAD)
        assert np.array_equal(a.p_mass, b.p_mass)
        assert np.array_equal(a.q_mass, b.q_mass)
        assert a.err_est == b.err_est

    @pytest.mark.parametrize(
        "block, model, err_rel, ladder",
        [
            # each crossing is bisected on its own, so blocks of any size
            # give the same masses; only err_est's summation order may change
            ("_CHUNK", gauss01_11(), 1e-12, False),
            # each interval's Gauss sums are its own, and err_est sums the
            # differences of all intervals at once: nothing may change
            ("_GAUSS_BLOCK", gauss01_11(), 0.0, False),
            ("_GAUSS_BLOCK", gaussian_model(
                -16 + 2090.95 / 128, 1, -16 + 2090.95 / 128, 2 + 2.0**-24,
                truncation=(-16.0, 16.0)), 0.0, False),
            # a ladder copies level n - 1's crossings into blocks that mix
            # them with bisected ones
            ("_CHUNK", gauss01_11(), 1e-12, True),
        ],
        ids=["chunk-gauss", "gauss_block-gauss", "gauss_block-peak", "chunk-gauss-ladder"],
    )
    def test_blocked_bisection_bit_identical(self, monkeypatch, block, model, err_rel, ladder):
        model, calls = counted(model)

        def levels():
            calls[0] = 0
            if not ladder:
                return [bin_masses(model, 6, QUAD)], (), calls[0]
            # the levels estimate_kl computes, as it hands them on
            seen = []

            def spy(level):
                seen.append(level)
                return discretized_kl(level)

            monkeypatch.setattr("kernelflow.borel.discretized_kl", spy)
            return seen, estimate_kl(model, 6, 1e-12, QUAD).levels, calls[0]

        whole, whole_rows, whole_calls = levels()
        monkeypatch.setattr(f"kernelflow.borel.{block}", 7)
        blocked, blocked_rows, blocked_calls = levels()
        assert len(whole) == len(blocked) and len(whole_rows) == len(blocked_rows)
        # blocks split the evaluations among them and add none
        assert blocked_calls == whole_calls
        for w, b in zip(whole, blocked):
            assert np.array_equal(w.p_mass, b.p_mass)
            assert np.array_equal(w.q_mass, b.q_mass)
            assert b.err_est == pytest.approx(w.err_est, rel=err_rel, abs=0.0)
        for w, b in zip(whole_rows, blocked_rows):
            assert w[:3] == b[:3]
            assert b[3] == pytest.approx(w[3], rel=err_rel, abs=0.0)

    def test_mc_deterministic_and_close(self):
        spec = IntegratorSpec(kind="mc", seed=11)
        model = gaussian_model(0, 1, 1, 1)
        a = bin_masses(model, 2, spec)
        b = bin_masses(model, 2, spec)
        assert np.array_equal(a.p_mass, b.p_mass)
        p_ref, q_ref = gaussian_cell_oracle(2)
        assert np.max(np.abs(a.q_mass - q_ref)) < 5e-3
        assert np.max(np.abs(a.p_mass - p_ref)) < 5e-3

    def test_mc_requires_seed(self):
        with pytest.raises(DomainMismatchError):
            IntegratorSpec(kind="mc")

    def test_mc_needs_a_sampler(self):
        model = dataclasses.replace(gauss01_11(), sampler=None)
        with pytest.raises(DomainMismatchError) as err:
            bin_masses(model, 1, IntegratorSpec(kind="mc", seed=0))
        assert str(err.value) == f"model {model.name!r} has no sampler for Monte Carlo"

    def test_unknown_integrator_kind(self):
        with pytest.raises(DomainMismatchError):
            IntegratorSpec(kind="simpson")

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", -1)])
    def test_spec_fields_checked_when_built(self, field, value):
        # a bad seed used to surface later, as numpy's TypeError or ValueError
        with pytest.raises(DomainMismatchError, match=f"^{field} must be"):
            IntegratorSpec(**{"kind": "mc", "seed": 1, field: value})

    @pytest.mark.parametrize("support, truncation", [
        ((1.0, 1.0), None),
        ((0.0, INF), (5.0, 5.0)),
        ((0.0, INF), (13.0, -12.0)),
        ((0.0, INF), (0.0, INF)),
        ((0.0, INF), (0.0, math.nan)),
    ], ids=["empty-support", "empty", "reversed", "infinite", "nan"])
    def test_model_intervals_checked_when_built(self, support, truncation):
        what = "support" if truncation is None else "truncation"
        with pytest.raises(DomainMismatchError, match=f"'m': {what} "):
            DensityModel("m", np.ones_like, np.ones_like, support, truncation)


    def test_live_interval_cap_raises_with_partial_level(self):
        # 100000 periods on [0, 1]: the panels that would resolve them
        # outnumber the level's cap, so the level is abandoned at once.
        # bin_masses attaches nothing, and the ladder its finished levels:
        # none here
        wiggle = DensityModel(
            name="wiggle",
            base_density=lambda x: np.ones_like(x),
            ratio=lambda x: 1.0 + 0.5 * np.sin(2e5 * np.pi * x),
            support=(0.0, 1.0),
        )
        with pytest.raises(IntegrationToleranceError, match="live intervals at level 1$") as info:
            bin_masses(wiggle, 1, QUAD)
        assert info.value.partial is None
        with pytest.raises(IntegrationToleranceError, match="live intervals at level 1$") as info:
            estimate_kl(wiggle, 3, 1e-6, QUAD)
        assert info.value.partial == KlTrace((), False, INF)

    def test_levels_with_different_masses_differ(self):
        # equality used to skip the masses, so these two level-1 results
        # (KL 0.143 and 0.355) compared and hashed equal
        spec = IntegratorSpec(kind="mc", seed=0)
        a = bin_masses(exponential_model(1, 2), 1, spec)
        b = bin_masses(exponential_model(1, 3), 1, spec)
        assert discretized_kl(a) != discretized_kl(b)
        assert a != b
        assert len({a, b}) == 2
        assert a == a

    @pytest.mark.parametrize("n, kind", [(21, "mc"), (64, "quad")])
    def test_level_too_large_to_hold_is_refused(self, n, kind):
        # level 40 used to end in numpy's MemoryError (320 TiB) and level 64
        # in its "maximum allowed dimension" ValueError; one Monte Carlo
        # level took 747 MB at n = 21
        def sampler(rng, size):
            raise AssertionError("sampled a level that cannot be held")

        model, calls = counted(dataclasses.replace(gauss01_11(), sampler=sampler))
        with pytest.raises(IntegrationToleranceError, match=f"^level {n} needs {cell_count(n)} cells"):
            bin_masses(model, n, IntegratorSpec(kind=kind, seed=0))
        assert calls[0] == 0


class TestRatioShapes:
    """Ratios that are not monotone or not continuous, against exact masses."""

    def test_non_monotone_ratio_matches_cdf_oracle(self):
        # N(0,1) || N(0,2): the ratio 2 e^(-3x^2/8) peaks at x = 0 on the
        # cell edge 2.  In floating point it equals 2 exactly for
        # |x| < 1.2e-8, so about 9e-9 of mass lands in the cell starting at
        # 2 instead of the one below it; those two cells are compared merged.
        model = gaussian_model(0, 1, 0, 2, truncation=(-16.0, 16.0))
        for n in range(1, 9):
            level = bin_masses(model, n, QUAD)
            p_ref, q_ref = gaussian_scale_oracle(n, 0.0, 2.0)
            for got, want in ((level.p_mass, p_ref), (level.q_mass, q_ref)):
                got, want = got.copy(), want.copy()
                if n >= 2:
                    top = 2 << n  # cell [2, 2 + 2^-n), or the tail at n = 2
                    assert abs(got[top] - want[top]) < 1e-8
                    got[top - 1] += got[top]
                    want[top - 1] += want[top]
                    got[top] = want[top] = 0.0
                assert np.max(np.abs(got - want)) < 1e-9

    @pytest.mark.parametrize(
        "mu, excess",
        [
            # the peak at 1/3, off the panel grid: the sliver above 2 is
            # 2.3e-3 wide and the samples of its panel rise and fall
            (1 / 3, 2.0**-20),
            # a sliver 8.8e-6 wide: every sample of the panel, and every
            # Gauss node, lies in the cell below 2; only widening the
            # sampled range by its width shows the peak may leave it
            (1 / 3, 2.0**-36),
            # the peak at fraction 0.95 or 0.05 of a panel: all five
            # samples inside it rise (or fall) and lie below 2, and the
            # samples a quarter panel past its ends show the turn
            (-16 + 2090.95 / 128, 2.0**-24),
            (-16 + 2090.95 / 128, 2.0**-36),
            (-16 + 2090.05 / 128, 2.0**-36),
        ],
    )
    def test_peak_just_above_a_cell_edge(self, mu, excess):
        # N(mu, 1) || N(mu, 2 + excess): the ratio peaks at 2 + excess, so
        # only a sliver around mu reaches the cell at 2
        sigma = 2 + excess
        model = gaussian_model(mu, 1, mu, sigma, truncation=(-16.0, 16.0))
        for n in range(1, 9):
            level = bin_masses(model, n, QUAD)
            p_ref, q_ref = gaussian_scale_oracle(n, mu, sigma)
            assert np.max(np.abs(level.p_mass - p_ref)) < 1e-9
            assert np.max(np.abs(level.q_mass - q_ref)) < 1e-9

    def test_nodes_catch_a_missed_crossing(self, monkeypatch):
        # With no panel halvings allowed, the panel holding the peak is kept
        # whole, its edge crossings go unlocated and its mass is charged to
        # the error, past the ceiling.  The ratio at the Gauss nodes inside
        # it still leaves the interval's cell, and halving until each
        # interval's nodes and ends agree puts every cell's mass right, as
        # the level shows once the ceiling is lifted.  Checking the nodes
        # alone leaves a crossing in the gap between the last node and an
        # end: 1.3e-9 of mass in the wrong cell.
        model, mu, sigma = peak_missed_by_the_panels(monkeypatch)
        with pytest.raises(IntegrationToleranceError, match="^quadrature error estimate .* at level 8$"):
            bin_masses(model, 8, QUAD)
        monkeypatch.setattr("kernelflow.borel._ERR_CEILING", INF)
        level = bin_masses(model, 8, QUAD)
        assert level.err_est > 1e-4
        p_ref, q_ref = gaussian_scale_oracle(8, mu, sigma)
        assert np.max(np.abs(level.p_mass - p_ref)) < 1e-11
        assert np.max(np.abs(level.q_mass - q_ref)) < 1e-11

    def test_ratio_with_jumps(self):
        # p = U[1/4, 3/4] against q = U[0, 1]: the ratio jumps 0 -> 2 -> 0
        model = uniform_pair_model(0.25, 0.75, 0, 1)
        for n in (1, 2, 3, 8):
            level = bin_masses(model, n, QUAD)
            top = min(2 << n, cell_count(n) - 1)  # the cell holding ratio 2
            p_ref, q_ref = np.zeros(cell_count(n)), np.zeros(cell_count(n))
            q_ref[0] = q_ref[top] = 0.5
            p_ref[top] = 1.0
            assert np.max(np.abs(level.p_mass - p_ref)) < 1e-12
            assert np.max(np.abs(level.q_mass - q_ref)) < 1e-12
            assert level.occupied() == 2

    @pytest.mark.parametrize("width, peak", [(1e-5, 50.0), (1e-7, 1e3), (1e-9, 1e5), (1e-9, 1e3)])
    def test_piece_narrower_than_the_panel_samples(self, width, peak):
        # q = 1 on [0, 1] and a ratio piece far narrower than the 6.1e-5
        # between panel samples.  The model's edges are its breaks, so panels
        # start at the piece.  Without them the first three ended in "ratio *
        # base density integrates to ...", and the last converged to 0 with
        # err_est 0
        at = 0.50003333
        rest = (1 - width * peak) / (1 - width)
        model = piecewise_constant_model(
            [(0.0, at, 1.0, rest), (at, at + width, 1.0, peak), (at + width, 1.0, 1.0, rest)]
        )
        want = width * peak * math.log(peak) + (1 - width) * rest * math.log(rest)
        trace = estimate_kl(model, 6, 1e-9, QUAD)
        assert trace.converged
        assert trace.final == pytest.approx(want, rel=0.0, abs=trace.levels[-1][3])

    def test_truncation_keeps_the_breaks(self):
        model = piecewise_constant_model([(0.0, 0.5, 1.0, 1.5), (0.5, 1.0, 1.0, 0.5)])
        assert model.breaks == (0.0, 0.5, 1.0)
        assert dataclasses.replace(model, truncation=(-1.0, 2.0)).breaks == model.breaks


class TestKronrodRule:
    """The 7-point Gauss-Kronrod rule and the 3-point Gauss rule on its
    nodes, against the integrals of x^m over [-1, 1]."""

    def test_nodes_and_weights_are_symmetric(self):
        assert np.array_equal(borel._K7_X, -borel._K7_X[::-1])
        assert np.array_equal(borel._K7_W, borel._K7_W[::-1])
        assert borel._K7_X[3] == 0.0
        assert borel._K7_X[5] ** 2 == pytest.approx(3 / 5, rel=1e-15)

    @pytest.mark.parametrize("m", range(12))
    def test_exact_on_monomials(self, m):
        want = 2 / (m + 1) if m % 2 == 0 else 0.0
        assert np.sum(borel._K7_W * borel._K7_X**m) == pytest.approx(want, rel=1e-15, abs=1e-16)
        if m <= 5:
            g3 = np.sum(borel._G3_W * borel._K7_X[1::2] ** m)
            assert g3 == pytest.approx(want, rel=1e-15, abs=1e-16)

    def test_g3_is_not_exact_beyond_degree_5(self):
        # so |K7 - G3| sees a sixth-degree term
        assert np.sum(borel._G3_W * borel._K7_X[1::2] ** 6) == pytest.approx(6 / 25)


# the models whose quadrature kernels are checked against the
# interval-major layout: both bench pairs, the unequal-sigma pair whose
# panels are halved, a peak of test_peak_just_above_a_cell_edge, a ratio
# with an infinite slope and a piecewise model with a narrow piece
LAYOUT_MODELS = {
    "gaussian": gauss01_11,
    "exponential": expo1_2,
    "unequal-sigma": lambda: gaussian_model(0, 1, 0, 2, truncation=(-16.0, 16.0)),
    "peak": lambda: gaussian_model(
        -16 + 2090.95 / 128, 1, -16 + 2090.95 / 128, 2 + 2.0**-24, truncation=(-16.0, 16.0)
    ),
    "sqrt": sqrt_model,
    "piecewise": narrow_piece,
}


class TestNodeMajorLayout:
    """The quadrature lays its nodes and samples out node-major, one row per
    node and one column per interval or panel.  Every output equals, bit for
    bit, the interval-major layout's in tests/helpers.py."""

    @pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("name", LAYOUT_MODELS)
    def test_gauss_matches_interval_major(self, monkeypatch, name, n, block):
        model = LAYOUT_MODELS[name]()
        if block is not None:
            monkeypatch.setattr(borel, "_GAUSS_BLOCK", block)
        calls = []
        gauss = borel._gauss

        def spy(model, a, b, n):
            out = gauss(model, a, b, n)
            calls.append((a, b, out))
            return out

        monkeypatch.setattr(borel, "_gauss", spy)
        bin_masses(model, n, QUAD)
        assert calls
        for a, b, out in calls:
            for got, want in zip(out, interval_major_gauss(model, a, b, n), strict=True):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("name", [*LAYOUT_MODELS, "peak-unresolved"])
    def test_monotone_panels_match_interval_major(self, monkeypatch, name, n):
        if name == "peak-unresolved":
            # no halvings: the peak's panel is charged to the error
            model = peak_missed_by_the_panels(monkeypatch)[0]
        else:
            model = LAYOUT_MODELS[name]()
        lo, hi = model.quad_interval()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got = borel._monotone_panels(model, lo, hi, n)
        want = interval_major_panels(model, lo, hi, n)
        for g, w in zip(got[:4], want[:4], strict=True):
            assert np.array_equal(g, w)
        assert got[4] == want[4]
        assert (got[4] > 0) == (name == "peak-unresolved")

    def test_first_bad_value_in_interval_order(self):
        # two intervals in one block, the ratio negative at node 5 of the
        # first and node 1 of the second: in node-major order node 1 of the
        # second comes first, but the error names the first interval's
        # point, as the interval-major layout did
        a, b = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        first = 0.5 + 0.5 * borel._K7_X[5]
        second = 1.5 + 0.5 * borel._K7_X[1]
        model = DensityModel(
            "two-bad-nodes", np.ones_like,
            lambda x: np.where((x == first) | (x == second), -1.0, 1.0), (0.0, 2.0),
        )
        message = f"model 'two-bad-nodes': ratio is -1.0 at x = {first:.9g}, not a finite nonnegative number"
        for gauss in (borel._gauss, interval_major_gauss):
            with pytest.raises(DomainMismatchError) as info:
                gauss(model, a, b, 1)
            assert str(info.value) == message

    def test_overflowing_product_named_in_interval_order(self):
        # q and the ratio are finite at every node, but their product
        # overflows at node 5 of the first interval and node 1 of the
        # second: the check on q * ratio names the first interval's point
        a, b = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        first = 0.5 + 0.5 * borel._K7_X[5]
        second = 1.5 + 0.5 * borel._K7_X[1]
        huge = lambda x: np.where((x == first) | (x == second), 1e200, 1.0)  # noqa: E731
        model = DensityModel("huge-product", huge, huge, (0.0, 2.0))
        message = (f"model 'huge-product': ratio * base density is inf at x = {first:.9g}, "
                   "not a finite nonnegative number")
        for gauss in (borel._gauss, interval_major_gauss):
            # as inside a level, where the overflow is left to the check
            with pytest.raises(DomainMismatchError) as info, np.errstate(over="ignore"):
                gauss(model, a, b, 1)
            assert str(info.value) == message


class TestCrossings:
    """Each crossing of a cell edge is narrowed around interpolated guesses,
    then halved, to a pair of adjacent floats on either side of its edge."""

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("model", [gauss01_11(), expo1_2(), sqrt_model(), jump_inside_a_panel()],
                             ids=["gauss", "expo", "sqrt", "jump"])
    def test_brackets_are_adjacent_floats_around_their_edge(self, monkeypatch, model, n):
        _, left, right, edge, rising, _ = fresh_crossings(monkeypatch, model, n)
        assert left.size > 0
        assert np.array_equal(right, np.nextafter(left, INF))
        r_left, r_right = model.ratio(left), model.ratio(right)
        up = (r_left < edge) & (r_right >= edge)
        down = (r_left >= edge) & (r_right < edge)
        assert np.where(rising, up, down).all()

    @pytest.mark.parametrize("n", [4, 8])
    def test_a_jump_falls_back_to_halving(self, monkeypatch, n):
        # the jump lies at 1/3 of its panel's width and every guess at
        # levels 4 and 8 at a multiple of 1/128 of it, at least 0.0026 of
        # the width away, so on one side of the jump: every candidate is
        # refused, and the brackets are those of halving alone, after two
        # more evaluations per step and crossing
        model = jump_inside_a_panel()
        level, *narrowed, evals = fresh_crossings(monkeypatch, model, n)
        steps = len(borel._NARROW)
        monkeypatch.setattr(borel, "_NARROW", ())
        _, *halved, halved_evals = fresh_crossings(monkeypatch, model, n)
        for got, want in zip(narrowed, halved):
            assert np.array_equal(got, want)
        assert evals == halved_evals + 2 * steps * narrowed[0].size
        want = 0.375 * math.log(0.75) + 0.625 * math.log(1.25)
        assert discretized_kl(level) == pytest.approx(want, rel=0.0, abs=level.err_est)

    @pytest.mark.parametrize("model", [gauss01_11(), expo1_2()], ids=["gauss", "expo"])
    def test_smooth_ratios_are_narrowed(self, monkeypatch, model):
        # the guesses hit: under a third of the evaluations of halving alone
        evals = fresh_crossings(monkeypatch, model, 8)[-1]
        monkeypatch.setattr(borel, "_NARROW", ())
        assert evals < fresh_crossings(monkeypatch, model, 8)[-1] / 3

    def test_a_level_makes_a_third_of_the_evaluations(self):
        # 900,423 ratio evaluations when each crossing was halved from its
        # panel's ends and each interval took 24 Gauss nodes and 3 end
        # points; 318,954 with the narrowing steps and K7, and 275,007 once
        # the ratio's exponent was linear in x, so that the third narrowing
        # step is rarely refused
        model, calls = counted(gauss01_11())
        bin_masses(model, 10, QUAD)
        assert calls[0] <= 0.33 * 900_423


class TestDiscretizedKl:
    def test_equal_measures_zero(self):
        level = bin_masses(uniform_pair_model(0, 1, 0, 1), 3, QUAD)
        assert discretized_kl(level) == 0.0

    def test_gaussian_level_values(self):
        # CDF-exact oracle values; integration noise well under 1e-9
        for n, want in ((1, 0.34370127896122316), (2, 0.4382908843398073)):
            level = bin_masses(gauss01_11(), n, QUAD)
            assert discretized_kl(level) == pytest.approx(want, abs=1e-9)

    def test_exponential_level_matches_oracle(self):
        level = bin_masses(expo1_2(), 6, QUAD)
        assert discretized_kl(level) == pytest.approx(
            exponential_kl_oracle(6), abs=1e-9
        )
        assert exponential_kl_oracle(6) == pytest.approx(0.28126819967135147, abs=1e-12)

    def test_absolute_continuity_failure(self):
        # p-mass in a cell with no q-mass witnesses p !<< q
        level = bin_masses(uniform_pair_model(0, 1, 0, 1), 2, QUAD)
        p = level.p_mass.copy()
        q = level.q_mass.copy()
        p[0] += 0.1  # inject mass where q has none
        assert discretized_kl(PartitionLevel(2, p, q)) == INF

    @pytest.mark.parametrize("p, q", [
        # p / q overflows to inf in the first cell
        ([0.5, 0.5, 0.0], [1e-320, 1.0 - 1e-320, 0.0]),
        # p / q underflows to 0 in the second cell, whose -inf term would
        # turn the sum into -inf and the KL into 0
        ([0.5, 5e-324, 0.5 - 5e-324], [0.4, 2.0, 0.6]),
        # both, where fsum would meet inf - inf
        ([0.5, 5e-324, 0.5 - 5e-324], [1e-320, 2.0, 0.6]),
    ], ids=["overflow", "underflow", "overflow-and-underflow"])
    def test_ratio_of_masses_out_of_range_gives_a_finite_term(self, p, q):
        level = PartitionLevel(1, np.array(p), np.array(q))
        terms = [a * (math.log(a) - math.log(b)) for a, b in zip(p, q) if a > 0]
        assert discretized_kl(level) == pytest.approx(math.fsum(terms), rel=1e-15)
        if p[1] == 0.5:
            assert discretized_kl(level) == pytest.approx(367.72047, abs=1e-5)

    def test_lower_bound_property(self):
        for n in (1, 2, 4, 6):
            level = bin_masses(gauss01_11(), n, QUAD)
            assert discretized_kl(level) <= gaussian_kl(0, 1, 1, 1) + 1e-6
            level = bin_masses(expo1_2(), n, QUAD)
            assert discretized_kl(level) <= exponential_kl(1, 2) + 1e-6


def fsum(x):
    return math.fsum(x.tolist())


def outcome(sum_, x):
    """The bits of sum_(x), so that the sign of a zero and a NaN's payload
    count, or the type of what it raises."""
    try:
        return np.float64(sum_(x)).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc)


@st.composite
def term_arrays(draw):
    """Float arrays of up to 5,000 terms: mixed signs, subnormals, binary
    exponents from -1074 up to about 1e300, and terms cancelled exactly."""
    size = draw(st.integers(0, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = sorted(draw(st.integers(-1074, 997)) for _ in range(2))
    x = np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(low, high + 1, size))
    x[rng.random(size) < draw(st.floats(0.0, 1.0))] *= -1
    x[rng.random(size) < 0.01] = 0.0
    if draw(st.booleans()):
        x[: size // 2] = -x[size - size // 2:]  # exact cancellation
        rng.shuffle(x)
    return x


class TestExactSum:
    """borel._exact_sum gives math.fsum's value, bit for bit, or raises
    what fsum raises."""

    @settings(max_examples=300, deadline=None)
    @given(term_arrays())
    def test_equals_fsum(self, x):
        assert outcome(borel._exact_sum, x) == outcome(fsum, x)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_equals_fsum_on_any_finite_floats(self, terms):
        # the largest floats included, where fsum's partial sums overflow
        x = np.array(terms, dtype=float)
        assert outcome(borel._exact_sum, x) == outcome(fsum, x)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e300, 1e300), max_size=40),
        st.lists(st.sampled_from([INF, -INF, math.nan]), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_non_finite_terms_as_fsum(self, finite, special, rnd):
        terms = finite + special
        rnd.shuffle(terms)
        x = np.array(terms)
        assert outcome(borel._exact_sum, x) == outcome(fsum, x)

    @pytest.mark.parametrize(
        "terms",
        [[], [0.0], [-0.0], [-0.0, -0.0], [1.0, -1.0], [-1e-320, 1e-320], [5e-324] * 3, [1e300, -1e300, 1e-300]],
    )
    def test_edge_cases(self, terms):
        x = np.array(terms, dtype=float)
        assert outcome(borel._exact_sum, x) == outcome(fsum, x)

    def test_long_arrays_go_to_fsum(self, monkeypatch):
        # at most _EXACT_TERMS terms are added exactly; longer arrays are
        # fsum's, which is shown by lowering the bound
        calls = []

        def spy(terms, fsum=math.fsum):
            calls.append(len(terms))
            return fsum(terms)

        x = np.array([0.1, 0.2, 0.3, 1e-20, -0.6])
        monkeypatch.setattr(math, "fsum", spy)
        borel._exact_sum(x)
        assert calls == []
        monkeypatch.setattr(borel, "_EXACT_TERMS", 4)
        assert outcome(borel._exact_sum, x) == outcome(fsum, x)
        assert calls == [5, 5]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_ladder_levels(self, n):
        for model in (gauss01_11(), expo1_2()):
            level = bin_masses(model, n, QUAD)
            p, q = level.p_mass, level.q_mass
            occupied = p > 0
            terms = p[occupied] * np.log(p[occupied] / q[occupied])
            # positive and finite, so == compares every bit
            assert discretized_kl(level) == max(0.0, fsum(terms)) > 0


class TestMonotoneRefinement:
    def test_merging_fine_level_recovers_coarse(self):
        model = gauss01_11()
        n = 3
        coarse = bin_masses(model, n, QUAD)
        fine = bin_masses(model, n + 1, QUAD)
        # fold level-(n+1) cells into their level-n parents
        nc = cell_count(n)
        merged_p, merged_q = np.zeros(nc), np.zeros(nc)
        for j in range(cell_count(n + 1)):
            lo, _hi = cell_interval(n + 1, j)
            parent = nc - 1 if lo >= n else int(lo * (1 << n))
            merged_p[parent] += fine.p_mass[j]
            merged_q[parent] += fine.q_mass[j]
        assert np.max(np.abs(merged_p - coarse.p_mass)) < 1e-7
        assert np.max(np.abs(merged_q - coarse.q_mass)) < 1e-7
        assert discretized_kl(fine) >= discretized_kl(coarse) - 2 * (
            coarse.err_est + fine.err_est
        )

    def test_trace_nondecreasing(self):
        trace = estimate_kl(gauss01_11(), 6, 1e-6, QUAD)
        kls = [kl for _, kl, _, _ in trace.levels]
        errs = [e for *_, e in trace.levels]
        for (a, b), e in zip(zip(kls, kls[1:]), errs):
            assert b >= a - 2 * e


class TestEstimateKl:
    def test_equal_measures_converges_immediately(self):
        trace = estimate_kl(uniform_pair_model(0, 1, 0, 1), 10, 1e-6, QUAD)
        assert trace.converged
        assert trace.final == 0.0
        assert len(trace.levels) == 3  # two zero increments suffice

    def test_gaussian_climbs_toward_half(self):
        trace = estimate_kl(gauss01_11(), 6, 1e-6, QUAD)
        assert not trace.converged  # still climbing at n=6
        assert trace.final == pytest.approx(0.49304923066570877, abs=1e-9)
        assert all(kl <= 0.5 + 1e-6 for _, kl, _, _ in trace.levels)

    def test_unsettled_trace_is_reported(self):
        # p has a 1/(1+x)^2 tail against q = Exp(1): true KL is infinite
        # and the lower bounds climb forever without settling
        model = DensityModel(
            name="heavy-tail",
            base_density=lambda x: np.where(
                x >= 0, np.exp(-np.clip(x, 0, None)), 0.0
            ),
            ratio=lambda x: np.where(
                x >= 0,
                np.exp(np.clip(x, 0, None)) / (1.0 + np.clip(x, 0, None)) ** 2,
                0.0,
            ),
            support=(0.0, INF),
            sampler=lambda rng, size: rng.exponential(1.0, size),
        )
        spec = IntegratorSpec(kind="mc", seed=20240817)
        trace = estimate_kl(model, 12, 1e-3, spec)
        assert not trace.converged
        kls = [kl for _, kl, _, _ in trace.levels]
        assert all(b > a for a, b in zip(kls, kls[1:]))  # strictly climbing

    def test_input_validation(self):
        with pytest.raises(DomainMismatchError):
            estimate_kl(gauss01_11(), 0, 1e-6, QUAD)
        for stop_tol in (0.0, -1.0, INF, math.nan):
            # a nan tolerance used to run every level and report no convergence
            with pytest.raises(DomainMismatchError, match="^stop_tol must be positive and finite"):
                estimate_kl(gauss01_11(), 4, stop_tol, QUAD)

    def test_deterministic_traces(self):
        a = estimate_kl(gauss01_11(), 4, 1e-6, QUAD)
        b = estimate_kl(gauss01_11(), 4, 1e-6, QUAD)
        assert a.levels == b.levels  # bit-identical

    @pytest.mark.parametrize("failure, finished", [
        ("live-interval-cap", 2), ("error-ceiling", 1), ("cell-cap", 3),
    ])
    def test_failure_carries_the_finished_levels(self, monkeypatch, failure, finished):
        # whichever way a level fails, partial is the trace of the levels
        # before it, the same as a ladder that stops there; the level
        # alone fails the same way and carries nothing
        if failure == "live-interval-cap":
            model = alternating_pieces()
        elif failure == "error-ceiling":
            model = peak_missed_by_the_panels(monkeypatch)[0]
        else:
            monkeypatch.setattr("kernelflow.borel._MAX_CELLS", cell_count(finished))
            model = gauss01_11()
        with pytest.raises(IntegrationToleranceError, match=f"\\blevel {finished + 1}\\b") as ladder:
            estimate_kl(model, 6, 1e-12, QUAD)
        with pytest.raises(IntegrationToleranceError) as alone:
            bin_masses(model, finished + 1, QUAD)
        assert str(alone.value) == str(ladder.value)
        assert alone.value.partial is None
        trace = estimate_kl(model, finished, 1e-12, QUAD)
        assert len(trace.levels) == finished and not trace.converged
        assert ladder.value.partial == trace


def counted(model):
    """The model with its ratio counting evaluations, and the count."""
    calls = [0]

    def ratio(x, inner=model.ratio):
        calls[0] += np.size(x)
        return inner(x)

    return dataclasses.replace(model, ratio=ratio), calls


class TestLadderReuse:
    """estimate_kl reuses level n - 1's crossings and Monte Carlo sample;
    its rows must equal those of fresh bin_masses calls, bit for bit."""

    @pytest.mark.parametrize("model, n_max, spec, share, ceiling", [
        # shares: measured 0.7658, 0.8343, 0.9378, 0.9508 for gauss, expo,
        # peak and sqrt, so a reuse that stops firing (share 1.0) fails.
        # Ceilings: measured 7,303,050, 2,049,589, 782,995, 198,626,
        # 197,125 and 725,255 ratio evaluations, against 24,233,956,
        # 6,198,408, 1,809,887, 420,604, 418,495 and 1,553,054 when each
        # crossing was halved from its panel's ends and each interval took
        # 24 Gauss nodes; a return to either fails some of them.  The gauss
        # share was 0.7255 (8,511,451 of 11,732,375) while the gaussian
        # ratio's exponent was a difference of squares
        (gauss01_11(), 14, QUAD, 0.78, 7_500_000),
        (expo1_2(), 12, QUAD, 0.86, 2_200_000),
        # the peak's panels are split differently at each level
        (gaussian_model(-16 + 2090.95 / 128, 1, -16 + 2090.95 / 128, 2 + 2.0**-24,
                        truncation=(-16.0, 16.0)), 10, QUAD, 0.96, 830_000),
        (uniform_pair_model(0.25, 0.75, 0, 1), 8, QUAD, 1.0, 210_000),
        (piecewise_constant_model([(0.0, 0.5, 1.0, 1.5), (0.5, 1.0, 1.0, 0.5)]), 8, QUAD, 1.0, 210_000),
        # slope infinite at 0
        (sqrt_model(), 10, QUAD, 0.98, 770_000),
        # one sample for the whole ladder
        (expo1_2(), 10, IntegratorSpec(kind="mc", seed=0), 0.2, borel._MC_SAMPLES),
        (expo1_2(), 10, IntegratorSpec(kind="mc", seed=7), 0.2, borel._MC_SAMPLES),
    ], ids=["gauss", "expo", "peak", "uniform-pair", "piecewise", "sqrt", "mc-0", "mc-7"])
    def test_ladder_equals_fresh_levels(self, model, n_max, spec, share, ceiling):
        model, calls = counted(model)
        trace = estimate_kl(model, n_max, 1e-12, spec)
        ladder_calls, calls[0] = calls[0], 0
        rows = []
        for n in range(1, len(trace.levels) + 1):
            level = bin_masses(model, n, spec)
            rows.append((n, discretized_kl(level), level.occupied(), level.err_est))
        assert trace.levels == tuple(rows)
        assert ladder_calls <= share * calls[0]
        assert ladder_calls <= ceiling

    @pytest.mark.parametrize("seed", [0, 3])
    def test_monte_carlo_runs_merge_as_fresh_levels(self, monkeypatch, seed):
        # ratio values on cell edges of every level from 3 up, in the tail
        # of every level below 40 and of none, 0 and -0.0: each level of a
        # ladder equals a fresh level, array for array, and its q-masses
        # are the counts of the samples' cells, as binning them one by one
        # gives them; p-masses are the cells' sums up to rounding
        monkeypatch.setattr(borel, "_MC_SAMPLES", 5_000)
        values = np.array([-0.0, 0.0, 0.125, 0.25, 0.3, 1.0, 1.5, 2.0, 2.875, 3.0, 7.0, 39.0, 1e300])

        def sampler(rng, size):
            return rng.integers(0, values.size, size).astype(float)

        model = DensityModel("edges", np.ones_like, lambda x: values[x.astype(int)], (0.0, 13.0),
                             sampler=sampler)
        spec = IntegratorSpec(kind="mc", seed=seed)
        n_max = 10
        xs = sampler(np.random.default_rng(seed), borel._MC_SAMPLES)
        r = model.ratio(xs)
        ladder = borel._Ladder(n_max)
        for n in range(1, n_max + 1):
            level, fresh = borel._level(model, n, spec, ladder), bin_masses(model, n, spec)
            for got, want in ((level.p_mass, fresh.p_mass), (level.q_mass, fresh.q_mass)):
                assert got.tobytes() == want.tobytes()
            cells = borel._cell_of(r, n)
            count = np.bincount(cells, minlength=cell_count(n))
            assert np.array_equal(level.q_mass, count / borel._MC_SAMPLES)
            sums = np.bincount(cells, weights=r, minlength=cell_count(n)) / borel._MC_SAMPLES
            assert np.all(np.abs(level.p_mass - sums) <= 2 * count * 2.0**-53 * sums)
            assert not np.signbit(level.p_mass).any()
        trace = estimate_kl(model, n_max, 1e-12, spec)
        rows = []
        for n in range(1, len(trace.levels) + 1):
            level = bin_masses(model, n, spec)
            rows.append((n, discretized_kl(level), level.occupied(), level.err_est))
        assert trace.levels == tuple(rows)

    def test_changed_panels_are_bisected_afresh(self, monkeypatch):
        # level 4 halves a panel with level-3 crossings, so its panels with
        # level-3 edges are not level 3's; levels 4 and 5 must bisect every
        # crossing, as bin_masses does.  The evaluation counts show it: a
        # copy would leave the rows alone, since bisecting the whole panel
        # first halves it at the same midpoint
        model, calls = counted(gauss01_11())
        monotone_panels = borel._monotone_panels
        starts = {}

        def halved(model, lo, hi, n):
            starts[n] = calls[0]
            a, b, r_a, r_b, err = monotone_panels(model, lo, hi, n)
            if n == 4:
                i = int(np.argmax(borel._cell_of(r_a, 3) != borel._cell_of(r_b, 3)))
                mid = 0.5 * (a[i] + b[i])
                r_mid = model.ratio(np.array([mid]))[0]
                a, b, r_a, r_b = (np.insert(x, i + 1, v) for x, v in
                                  ((a, mid), (b, b[i]), (r_a, r_mid), (r_b, r_b[i])))
                b[i], r_b[i] = mid, r_mid
            return a, b, r_a, r_b, err

        monkeypatch.setattr(borel, "_monotone_panels", halved)
        trace = estimate_kl(model, 6, 1e-12, QUAD)
        ladder_calls = {n: starts[n + 1] - starts[n] for n in (4, 5)}
        rows = []
        for n in range(1, len(trace.levels) + 1):
            calls[0] = 0
            level = bin_masses(model, n, QUAD)
            rows.append((n, discretized_kl(level), level.occupied(), level.err_est))
            if n in ladder_calls:
                assert ladder_calls[n] == calls[0]
        assert trace.levels == tuple(rows)


class TestPool:
    """borel keeps no thread pool: a level's Gauss and bisection blocks run
    one after another on the calling thread."""

    def test_model_called_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(borel, "_GAUSS_BLOCK", 7)
        monkeypatch.setattr(borel, "_CHUNK", 7)
        threads = set()

        def on_thread(f):
            def call(x):
                threads.add(threading.get_ident())
                return f(x)
            return call

        model = gauss01_11()
        model = dataclasses.replace(model, base_density=on_thread(model.base_density),
                                    ratio=on_thread(model.ratio))
        assert len(estimate_kl(model, 6, 1e-12, QUAD).levels) == 6
        assert threads == {threading.get_ident()}

    def test_workers_keep_floating_point_warnings_off(self, monkeypatch):
        # a valid ratio that overflows inside, in blocks of 7: the level's one
        # error state covers every block, and the suite turns an escaping
        # RuntimeWarning into an error
        monkeypatch.setattr(borel, "_GAUSS_BLOCK", 7)
        monkeypatch.setattr(borel, "_CHUNK", 7)
        model = DensityModel(
            "overflow-inside", np.ones_like,
            lambda x: 2.0 * x + 0.0 * np.minimum(np.exp(800.0 * x), 1.0), (0.0, 1.0),
        )
        assert len(estimate_kl(model, 3, 1e-12, QUAD).levels) == 3

    def test_errors_come_in_block_order(self, monkeypatch):
        # q is negative on two stretches in different Gauss blocks; the
        # error names a point of the first
        first, second = (0.3, 0.31), (0.7, 0.71)

        def base_density(x):
            bad = [(lo < x) & (x < hi) for lo, hi in (first, second)]
            return np.where(bad[0] | bad[1], -1.0, 1.0)

        model = DensityModel("two-bad-stretches", base_density, np.ones_like, (0.0, 1.0))
        monkeypatch.setattr(borel, "_GAUSS_BLOCK", 64)
        with pytest.raises(DomainMismatchError) as info:
            bin_masses(model, 1, QUAD)
        x = float(re.search(r"base density is -1.0 at x = (\S+),", str(info.value))[1])
        assert first[0] < x < first[1]


class TestAgreementCheck:
    def test_quadrature_fidelity(self):
        for model in (gauss01_11(), expo1_2()):
            level = bin_masses(model, 3, QUAD)
            assert agreement_check(model, level) <= 1e-6

    def test_equal_measures(self):
        model = uniform_pair_model(0, 1, 0, 1)
        level = bin_masses(model, 2, QUAD)
        assert agreement_check(model, level) <= 1e-10  # pure accumulation rounding

    def test_mc_fidelity(self):
        spec = IntegratorSpec(kind="mc", seed=3)
        model = gaussian_model(0, 1, 1, 1, truncation=GAUSS_TRUNC)
        level = bin_masses(model, 3, spec)
        assert agreement_check(model, level) <= 3e-3


class TestModels:
    def test_closed_forms(self):
        assert gaussian_kl(0, 1, 1, 1) == pytest.approx(0.5, abs=1e-15)
        assert exponential_kl(1, 2) == pytest.approx(
            math.log(0.5) + 2 - 1, abs=1e-15
        )
        assert exponential_kl(1, 1) == 0.0

    def test_validate_model_accepts_builtins(self):
        q_int, p_int = validate_model(gauss01_11())
        assert q_int == pytest.approx(1.0, abs=1e-8)
        assert p_int == pytest.approx(1.0, abs=1e-8)
        validate_model(expo1_2())

    def test_validate_model_rejects_subnormalized(self):
        broken = DensityModel(
            name="broken",
            base_density=lambda x: np.full_like(x, 0.5),  # integrates to 1/2
            ratio=lambda x: np.ones_like(x),
            support=(0.0, 1.0),
        )
        with pytest.raises(DomainMismatchError):
            validate_model(broken)

    def test_non_finite_model_output_rejected(self):
        # q = N(0, 0.1) underflows to 0 where the ratio against N(0,1)
        # overflows to inf, so q * ratio is NaN there; numpy's overflow
        # warning stays inside bin_masses, and the suite makes it an error
        model = gaussian_model(0, 1, 0, 0.1, truncation=(-40.0, 40.0))
        with pytest.raises(DomainMismatchError, match="not a finite"):
            validate_model(model)
        with pytest.raises(DomainMismatchError, match="not a finite"):
            bin_masses(model, 1, QUAD)
        with pytest.raises(DomainMismatchError, match="not a finite"):
            estimate_kl(model, 2, 1e-6, QUAD)

    def test_negative_model_output_rejected(self):
        reaches_zero = DensityModel(
            name="reaches-zero",
            base_density=lambda x: np.ones_like(x),
            ratio=lambda x: 2.0 - 2.0 * x,  # integrates to 1, zero at x = 1
            support=(0.0, 1.0),
        )
        validate_model(reaches_zero)
        flipped = DensityModel(
            name="flipped",
            base_density=lambda x: np.ones_like(x),
            ratio=lambda x: 4.0 * x - 1.0,  # integrates to 1, negative near 0
            support=(0.0, 1.0),
        )
        with pytest.raises(DomainMismatchError, match="not a finite"):
            validate_model(flipped)
        with pytest.raises(DomainMismatchError, match="not a finite"):
            bin_masses(flipped, 2, QUAD)

    def test_short_truncation_rejected_by_bin_masses(self):
        # (-2, 2) leaves 0.16 of q = N(1, 1) outside, far past the 1e-10
        # allowance; folded into a boundary cell it would give a wrong KL
        model = gaussian_model(0, 1, 1, 1, truncation=(-2.0, 2.0))
        with pytest.raises(DomainMismatchError, match="base density integrates to 0.8399"):
            bin_masses(model, 3, QUAD)
        with pytest.raises(DomainMismatchError, match="base density integrates to 0.8399"):
            validate_model(model)

    def test_validate_model_reports_unfolded_integrals(self):
        # (-6.5, 6.5) leaves 8.0e-11 of q = p = N(0, 1) outside, within the
        # allowance; bin_masses folds it in, validate_model reports it
        model = gaussian_model(0, 1, 0, 1, truncation=(-6.5, 6.5))
        inside = 1.0 - math.erfc(6.5 / math.sqrt(2))
        assert validate_model(model) == pytest.approx((inside, inside), abs=1e-13)
        level = bin_masses(model, 1, QUAD)
        assert level.folded_q == pytest.approx(1.0 - inside, abs=1e-13)

    @pytest.mark.parametrize(
        "bad, shown",
        [(lambda x: np.where(x > 0.5, np.nan, 1.0), "nan"),
         (lambda x: np.where(x > 0.5, -1.0, 3.0), "-1.0")],
        ids=["nan", "negative"],
    )
    def test_mc_rejects_bad_ratio(self, bad, shown):
        model = DensityModel(
            name="bad-ratio",
            base_density=lambda x: np.ones_like(x),
            ratio=bad,
            support=(0.0, 1.0),
            sampler=lambda rng, size: rng.uniform(0.0, 1.0, size),
        )
        spec = IntegratorSpec(kind="mc", seed=5)
        with pytest.raises(DomainMismatchError) as info:
            bin_masses(model, 2, spec)
        # the message names the offending value and a sample where it occurs
        found = re.search(r"ratio is (\S+) at x = (\S+),", str(info.value))
        assert found is not None and found[1] == shown
        assert 0.5 < float(found[2]) < 1.0

    @pytest.mark.parametrize("family, params", [
        ("gaussian", (0, 1, 1, 1)),
        ("gaussian", (0, 1, 0, 2)),
        ("gaussian", (0.3, 1.7, -1.1, 0.2)),
        ("gaussian", (2, 3, -1, 1)),
        ("exponential", (1, 2)),
        ("exponential", (3, 1)),
        ("exponential", (0.7, 0.7)),
    ])
    def test_builtins_match_their_plain_expressions(self, family, params):
        # the built-in models evaluate in place; every output bit equals
        # the plain expressions', on floats and integers, 1-D, 2-D,
        # non-contiguous and 0-d, and the input is left alone
        model = MODEL_REGISTRY[family](*params)
        plain = {"gaussian": plain_gaussian_model, "exponential": plain_exponential_model}[family](*params)
        rng = np.random.default_rng(4)
        inputs = [
            rng.normal(0, 3, 500),
            rng.normal(0, 30, (7, 300)),
            rng.normal(0, 5, (40, 30))[::2, 1::3],
            np.array([-INF, INF, math.nan, -0.0, 0.0, 5e-324, 1e-160, 1e154, 2e154, -1e300]),
            np.arange(-40, 40),
            np.arange(-50, 50).reshape(10, 10)[:, ::3],
            np.array(0.5),
            np.array(-2),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for x in inputs:
                before = x.copy()
                for got, want in zip((model.base_density, model.ratio), plain, strict=True):
                    assert np.asarray(got(x)).tobytes() == np.asarray(want(x)).tobytes()
                assert before.tobytes() == x.tobytes()

    @pytest.mark.parametrize("edge", [2, 8, 13.5])
    def test_equal_sigma_ratio_is_monotone_in_floats(self, edge):
        # N(0, 1) || N(1, 1) has ratio exp(1/2 - x); over 2^17 consecutive
        # floats around its crossing of the edge, the float ratio never
        # rises.  As exp(0.5 (z2^2 - z1^2)) it rose at 3,771, 35,375 and
        # 6,728 of those steps, and the third narrowing step, a bracket of
        # 2e-6 of the width, was refused for 31 % of the bench's crossings
        x0 = 0.5 - math.log(edge)
        bits = np.array([x0]).view(np.int64)[0] + np.arange(-(1 << 16), 1 << 16)
        xs = np.sort(bits.view(np.float64))
        r = gaussian_model(0, 1, 1, 1).ratio(xs)
        assert r[0] > edge > r[-1]
        assert not np.any(np.diff(r) > 0)

    def test_parameter_validation(self):
        with pytest.raises(DomainMismatchError):
            gaussian_model(0, 0, 1, 1)
        with pytest.raises(DomainMismatchError):
            exponential_model(1, -2)
        with pytest.raises(DomainMismatchError):
            uniform_pair_model(0, 2, 1, 3)  # p not inside q

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    @pytest.mark.parametrize("builder, params", [
        (gaussian_model, {"mu1": 0.0, "sigma1": 1.0, "mu2": 0.0, "sigma2": 1.0}),
        (exponential_model, {"lam1": 1.0, "lam2": 2.0}),
        (uniform_pair_model, {"a": 0.0, "b": 1.0, "c": 0.0, "d": 2.0}),
    ])
    def test_non_finite_parameters_are_refused_by_name(self, builder, params, bad):
        # sigma <= 0 and lam <= 0 are false for nan, so these models used
        # to be built and fail at their first level, blaming the ratio; a
        # uniform pair's nan failed its interval check, blaming p and q
        for name in params:
            with pytest.raises(DomainMismatchError, match=f"^{name} must be finite, got {bad!r}$"):
                builder(**{**params, name: bad})

    @pytest.mark.parametrize("params, pieces", [
        ((0.25, 0.75, 0, 1), [(0, 0.25, 1.0, 0.0), (0.25, 0.75, 1.0, 2.0), (0.75, 1, 1.0, 0.0)]),
        ((0.1, 0.3, 0, 1), [(0, 0.1, 1.0, 0.0), (0.1, 0.3, 1.0, 1 / (0.3 - 0.1)), (0.3, 1, 1.0, 0.0)]),
        ((0, 1, 0, 2), [(0, 1, 0.5, 2.0), (1, 2, 0.5, 0.0)]),
        ((1, 2, 0, 2), [(0, 1, 0.5, 0.0), (1, 2, 0.5, 2.0)]),
        ((0, 1, 0, 1), [(0, 1, 1.0, 1.0)]),
    ], ids=["inside", "inexact-ratio", "left", "right", "equal"])
    def test_uniform_pair_is_its_pieces(self, params, pieces):
        # U[a, b] || U[c, d] is the piecewise model of the nonempty pieces
        # among [c, a), [a, b) and [b, d], level for level, bit for bit,
        # with q's sampler for Monte Carlo
        model, explicit = uniform_pair_model(*params), piecewise_constant_model(pieces)
        assert (model.support, model.breaks) == (explicit.support, explicit.breaks)
        for n in range(1, 9):
            got, want = bin_masses(model, n, QUAD), bin_masses(explicit, n, QUAD)
            assert np.array_equal(got.p_mass, want.p_mass)
            assert np.array_equal(got.q_mass, want.q_mass)
            assert got.err_est == want.err_est
        c, d = params[2:]
        draws = model.sampler(np.random.default_rng(0), 1000)
        assert np.all((c <= draws) & (draws <= d))

    def test_uniform_pair_point_b_is_in_the_right_piece(self):
        # x = b < d now lies in [b, d], where the ratio is 0 (it was
        # (d - c) / (b - a) there, a null set); with b = d the last piece
        # holds its top edge
        model = uniform_pair_model(0.25, 0.75, 0, 1)
        assert model.breaks == (0.0, 0.25, 0.75, 1.0)
        xs = np.array([0.0, np.nextafter(0.25, 0), 0.25, np.nextafter(0.75, 0), 0.75, 1.0])
        assert model.ratio(xs).tolist() == [0.0, 0.0, 2.0, 2.0, 0.0, 0.0]
        assert model.base_density(xs).tolist() == [1.0] * 6
        top = uniform_pair_model(1, 2, 0, 2)
        assert top.ratio(np.array([1.0, 2.0, np.nextafter(2.0, 3)])).tolist() == [2.0, 2.0, 0.0]

    def test_uniform_pair_monte_carlo_ladder(self):
        # U[0, 1] || U[0, 2]: the ratio takes the values 2 and 0 only
        trace = estimate_kl(uniform_pair_model(0, 1, 0, 2), 6, 1e-6,
                            IntegratorSpec(kind="mc", seed=1))
        assert trace.converged
        assert all(bins == 2 for _, _, bins, _ in trace.levels)
        assert trace.final == pytest.approx(math.log(2), abs=5e-3)

    def test_piecewise_model(self):
        model = piecewise_constant_model(
            [(0.0, 0.5, 1.0, 1.5), (0.5, 1.0, 1.0, 0.5)]
        )
        validate_model(model)
        trace = estimate_kl(model, 8, 1e-9, QUAD)
        want = 0.5 * 1.5 * math.log(1.5) + 0.5 * 0.5 * math.log(0.5)
        assert trace.final == pytest.approx(want, abs=1e-9)
        assert trace.converged

    def test_piecewise_keeps_its_right_end(self):
        # the last piece is closed at hi as the first is at lo; an open
        # right end dropped q and the ratio to 0 at hi, and the quadrature
        # then bisected a phantom crossing for every edge below 0.5
        model = piecewise_constant_model(
            [(0.0, 0.5, 1.0, 1.5), (0.5, 1.0, 2.0, 0.5)]
        )
        xs = np.array([np.nextafter(1.0, 0.0), 1.0])
        assert model.base_density(xs).tolist() == [2.0, 2.0]
        assert model.ratio(xs).tolist() == [0.5, 0.5]
        beyond = np.array([np.nextafter(1.0, 2.0)])
        assert model.ratio(beyond).tolist() == [0.0]

    def test_piecewise_is_zero_below_its_first_edge(self):
        # a point within np.isclose of the first edge used to count as
        # inside: 999.995 had density 1
        model = piecewise_constant_model([(1000.0, 1001.0, 1.0, 1.0)])
        xs = np.array([999.0, 999.995, np.nextafter(1000.0, 0.0), 1000.0])
        assert model.base_density(xs).tolist() == [0.0, 0.0, 0.0, 1.0]
        assert model.ratio(xs).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_piecewise_gap_after_a_narrow_first_piece(self):
        # the first piece is narrower than np.isclose's 1e-8, and the gap
        # after it used to take its values up to 1e-8
        model = piecewise_constant_model([(0.0, 5e-9, 2.0, 0.5), (0.5, 1.0, 1.0, 1.0)])
        xs = np.array([0.0, 4e-9, 5e-9, 6e-9, 9.9e-9, 1e-6, 0.25, 0.5])
        assert model.base_density(xs).tolist() == [2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert model.ratio(xs).tolist() == [0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]

    def test_piecewise_needs_a_piece(self):
        with pytest.raises(DomainMismatchError) as err:
            piecewise_constant_model([])
        assert str(err.value) == "need at least one piece"

    @pytest.mark.parametrize("pieces, shown", [
        ([(0.0, 1.0, 1.0, 1.0), (2.0, 1.5, 1.0, 1.0)], "[2.0, 1.5]"),
        ([(0.0, 0.5, 1.0, 2.0), (0.5, 0.5, 1.0, 1.0), (0.5, 1.0, 1.0, 0.0)], "[0.5, 0.5]"),
        ([(0.0, math.inf, 1.0, 1.0)], "[0.0, inf]"),
        ([(-math.inf, 0.0, 1.0, 1.0)], "[-inf, 0.0]"),
        ([(math.nan, 1.0, 1.0, 1.0)], "[nan, 1.0]"),
    ], ids=["reversed", "empty", "inf", "-inf", "nan"])
    def test_piecewise_rejects_malformed_pieces(self, pieces, shown):
        # the reversed piece gave KL 0.0 with converged true, and the empty
        # piece was accepted without a word
        with pytest.raises(DomainMismatchError) as err:
            piecewise_constant_model(pieces)
        assert str(err.value) == f"piece {shown} is not a finite interval with lo < hi"

    def test_piecewise_rejects_overlap(self):
        with pytest.raises(DomainMismatchError):
            piecewise_constant_model([(0.0, 0.6, 1.0, 1.0), (0.5, 1.0, 1.0, 1.0)])
