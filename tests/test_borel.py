"""Continuous-KL estimator: dyadic ratio partitions, integration, traces.

Independent oracles: for the model instances checked against exact
masses, every set {ratio >= c} is an interval (the ratio is monotone, or
rises and falls once), so each cell's exact p/q masses follow from the
closed-form CDFs.  The estimator never assumes this structure (it tests
monotonicity panel by panel from ratio samples and integrates the
densities numerically), which keeps the comparison honest.
"""

import math
import re

import numpy as np
import pytest

from kernelflow.borel import (
    DensityModel,
    IntegratorSpec,
    agreement_check,
    bin_masses,
    cell_count,
    cell_interval,
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

from helpers import exponential_kl_oracle

INF = math.inf
QUAD = IntegratorSpec(kind="quad", tol=1e-8)

GAUSS_TRUNC = (-12.0, 13.0)
EXPO_TRUNC = (0.0, 40.0)


def gauss01_11():
    return gaussian_model(0, 1, 1, 1, truncation=GAUSS_TRUNC)


def expo1_2():
    return exponential_model(1, 2, truncation=EXPO_TRUNC)


def norm_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2))


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

    def test_deterministic_bit_identical(self):
        a = bin_masses(gauss01_11(), 4, QUAD)
        b = bin_masses(gauss01_11(), 4, QUAD)
        assert np.array_equal(a.p_mass, b.p_mass)
        assert np.array_equal(a.q_mass, b.q_mass)
        assert a.err_est == b.err_est

    @pytest.mark.parametrize(
        "block, model, err_rel",
        [
            # each crossing is bisected on its own, so blocks of any size
            # give the same masses; only err_est's summation order may change
            ("_CHUNK", gauss01_11(), 1e-12),
            # each interval's Gauss sums are its own, and err_est sums the
            # differences of all intervals at once: nothing may change
            ("_GAUSS_BLOCK", gauss01_11(), 0.0),
            ("_GAUSS_BLOCK", gaussian_model(
                -16 + 2090.95 / 128, 1, -16 + 2090.95 / 128, 2 + 2.0**-24,
                truncation=(-16.0, 16.0)), 0.0),
        ],
        ids=["chunk-gauss", "gauss_block-gauss", "gauss_block-peak"],
    )
    def test_blocked_bisection_bit_identical(self, monkeypatch, block, model, err_rel):
        whole = bin_masses(model, 6, QUAD)
        monkeypatch.setattr(f"kernelflow.borel.{block}", 7)
        blocked = bin_masses(model, 6, QUAD)
        assert np.array_equal(whole.p_mass, blocked.p_mass)
        assert np.array_equal(whole.q_mass, blocked.q_mass)
        assert blocked.err_est == pytest.approx(whole.err_est, rel=err_rel, abs=0.0)

    def test_mc_deterministic_and_close(self):
        spec = IntegratorSpec(kind="mc", seed=11, samples=200_000)
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

    def test_unknown_integrator_kind(self):
        with pytest.raises(DomainMismatchError):
            IntegratorSpec(kind="simpson")

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", -1), ("samples", 0), ("samples", 2.5),
        ("tol", 0.0), ("tol", INF), ("tol", math.nan),
    ])
    def test_spec_fields_checked_when_built(self, field, value):
        # a bad field used to surface later, as a TypeError, a
        # ZeroDivisionError or numpy's seed ValueError
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
        # outnumber the level's cap, so the level is abandoned at once
        wiggle = DensityModel(
            name="wiggle",
            base_density=lambda x: np.ones_like(x),
            ratio=lambda x: 1.0 + 0.5 * np.sin(2e5 * np.pi * x),
            support=(0.0, 1.0),
        )
        with pytest.raises(IntegrationToleranceError) as info:
            bin_masses(wiggle, 1, QUAD)
        assert info.value.achieved == math.inf
        assert info.value.partial.n == 1
        assert info.value.partial.p_mass.size == cell_count(1)
        assert info.value.partial.err_est == math.inf


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
        # the error.  The ratio at the Gauss nodes inside it still leaves
        # the interval's cell, and halving until each interval's nodes and
        # ends agree puts every cell's mass right.  Checking the nodes
        # alone leaves a crossing in the gap between the last node and an
        # end: 1.3e-9 of mass in the wrong cell.
        monkeypatch.setattr("kernelflow.borel._MONOTONE_DEPTH", 0)
        mu = -16 + 2090.95 / 128
        sigma = 2 + 2.0**-24
        model = gaussian_model(mu, 1, mu, sigma, truncation=(-16.0, 16.0))
        with pytest.raises(IntegrationToleranceError) as info:
            bin_masses(model, 8, QUAD)
        level = info.value.partial
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
        from kernelflow.borel import PartitionLevel

        assert discretized_kl(PartitionLevel(2, p, q)) == INF

    def test_lower_bound_property(self):
        for n in (1, 2, 4, 6):
            level = bin_masses(gauss01_11(), n, QUAD)
            assert discretized_kl(level) <= gaussian_kl(0, 1, 1, 1) + 1e-6
            level = bin_masses(expo1_2(), n, QUAD)
            assert discretized_kl(level) <= exponential_kl(1, 2) + 1e-6


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
        spec = IntegratorSpec(kind="mc", seed=20240817, samples=200_000)
        trace = estimate_kl(model, 12, 1e-3, spec)
        assert not trace.converged
        kls = [kl for _, kl, _, _ in trace.levels]
        assert all(b > a for a, b in zip(kls, kls[1:]))  # strictly climbing

    def test_input_validation(self):
        with pytest.raises(DomainMismatchError):
            estimate_kl(gauss01_11(), 0, 1e-6, QUAD)
        with pytest.raises(DomainMismatchError):
            estimate_kl(gauss01_11(), 4, 0.0, QUAD)

    def test_deterministic_traces(self):
        a = estimate_kl(gauss01_11(), 4, 1e-6, QUAD)
        b = estimate_kl(gauss01_11(), 4, 1e-6, QUAD)
        assert a.levels == b.levels  # bit-identical


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
        spec = IntegratorSpec(kind="mc", seed=3, samples=1_000_000)
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
        spec = IntegratorSpec(kind="mc", seed=5, samples=1000)
        with pytest.raises(DomainMismatchError) as info:
            bin_masses(model, 2, spec)
        # the message names the offending value and a sample where it occurs
        found = re.search(r"ratio is (\S+) at x = (\S+),", str(info.value))
        assert found is not None and found[1] == shown
        assert 0.5 < float(found[2]) < 1.0

    def test_parameter_validation(self):
        with pytest.raises(DomainMismatchError):
            gaussian_model(0, 0, 1, 1)
        with pytest.raises(DomainMismatchError):
            exponential_model(1, -2)
        with pytest.raises(DomainMismatchError):
            uniform_pair_model(0, 2, 1, 3)  # p not inside q

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

    def test_piecewise_rejects_overlap(self):
        with pytest.raises(DomainMismatchError):
            piecewise_constant_model([(0.0, 0.6, 1.0, 1.0), (0.5, 1.0, 1.0, 1.0)])
