"""Acceptance gate: twelve end-to-end criteria, one test and one printed
pass/fail line each.

Each criterion pins its tolerance and time budget explicitly.  The
criteria cover: vanishing on fixed points, functoriality, convex
linearity, the exact kernel algebra, the refinement KL estimator against
two closed-form oracles, simple-function fidelity, strict properness,
the worked coin example, sequential telescoping, the scaled family, and
byte-level CLI determinism.

The exponential estimator criterion (6) checks every level n = 1..14
against the exact level-n discrete KL from the CDFs, not against the
continuous divergence 1 - ln 2 at a fixed accuracy.  The level-n tail cell
[n, inf) alone hides (1 - ln 2)/(2n) of the divergence for this pair:
1.10e-2 at n = 14, so a 1e-3 target would need n >= 154.  The criterion
asserts that the final gap is this tail deficit and nothing more.
"""

import functools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import kernelflow
from kernelflow.borel import (
    IntegratorSpec,
    bin_masses,
    discretized_kl,
    exponential_model,
    gaussian_model,
)
from kernelflow.documents import parse_morphism
from kernelflow.entropy import check_functoriality, convex_decompose, re_fin
from kernelflow.finite import (
    FiniteDistribution,
    FiniteSpace,
    StochasticKernel,
    dirac,
    disintegrate,
    flatten,
    kernel_apply,
    kleisli_compose,
    pushforward,
)
from kernelflow.pairs import disintegration_pair, validate_coherent
from kernelflow.scoring import kl_score, properness_audit, sequential_scores

from estimator_helpers import agreement_check, exponential_kl_oracle
from helpers import (
    direct_kl,
    rand_coherent_pair,
    rand_composable_pairs,
    rand_distribution,
    rand_map,
    rand_masses,
    rand_space,
    scaled_functor,
)

INF = math.inf


def report(capsys, number: int, label: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[criterion {number:2d}] {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


# ---------------------------------------------------------------------------
# Shared fixtures for the estimator criteria (5 and 7 reuse one ladder run)

GAUSS_TRUNC = (-12.0, 13.0)
QUAD = IntegratorSpec()
_LADDER_SECONDS = {}


@functools.cache
def gaussian_ladder():
    """Levels 1..14 of the N(0,1) || N(1,1) refinement run, timed once."""
    model = gaussian_model(0, 1, 1, 1, truncation=GAUSS_TRUNC)
    start = time.perf_counter()
    levels = []
    for n in range(1, 15):
        level = bin_masses(model, n, QUAD)
        levels.append((n, discretized_kl(level), level))
    _LADDER_SECONDS["gaussian"] = time.perf_counter() - start
    return model, levels


def ladder_monotone(levels):
    """Each level's KL is at least the previous one's, up to twice the
    integration error estimates of both levels."""
    return all(
        fine[1] >= coarse[1] - 2 * (coarse[2].err_est + fine[2].err_est)
        for coarse, fine in zip(levels, levels[1:])
    )


# ---------------------------------------------------------------------------


def test_criterion_01_fixed_points_vanish(capsys):
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        xs = rand_space(rng, 8, "x")
        ys = rand_space(rng, min(4, len(xs)), "y")
        f = rand_map(rng, xs, ys, onto=True)
        p = rand_distribution(xs, rng, max_den=64)
        pair = disintegration_pair(p, f, ys)
        worst = max(worst, re_fin(pair).value)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 2.0
    report(capsys, 1, "disintegration hypotheses give RE <= 1e-12 (200 instances)",
           ok, f"worst {worst:.3g}, {elapsed:.2f}s")


def test_criterion_02_functoriality(capsys):
    rng = random.Random(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        first, second = rand_composable_pairs(rng, absolutely=True)
        check = check_functoriality(first, second)
        worst = max(worst, abs(check.residual))
    infinite_ok = True
    for i in range(50):
        if i % 2 == 0:
            first, second = rand_composable_pairs(rng, absolutely=False,
                                                  second_absolutely=True)
        else:
            first, second = rand_composable_pairs(rng, absolutely=True,
                                                  second_absolutely=False)
        check = check_functoriality(first, second)
        infinite_ok = infinite_ok and check.residual is None and check.holds()
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and infinite_ok and elapsed < 5.0
    report(capsys, 2, "RE(second . first) = RE(first) + RE(second)",
           ok, f"worst residual {worst:.3g}, inf-agreement {infinite_ok}, {elapsed:.2f}s")


def test_criterion_03_convex_linearity(capsys):
    rng = random.Random(303)
    worst = 0.0
    agree = True
    for i in range(500):
        absolutely = False if i % 5 == 4 else None
        pair = rand_coherent_pair(rng, absolutely=absolutely)
        total = convex_decompose(pair).total
        direct = re_fin(pair).value
        if total == INF or direct == INF:
            agree = agree and total == direct
        else:
            worst = max(worst, abs(total - direct))
    ok = worst <= 1e-12 and agree
    report(capsys, 3, "decomposed total matches RE (500 pairs incl. infinite)",
           ok, f"worst gap {worst:.3g}, inf-agreement {agree}")


def test_criterion_04_exact_algebra(capsys):
    rng = random.Random(404)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        xs = rand_space(rng, 5, "x")
        p = rand_distribution(xs, rng)

        # monad unit laws for flatten
        ok = ok and flatten([(p(x), dirac(x, xs)) for x in xs]) == p
        ok = ok and flatten([(Fraction(1), p)]) == p

        # Kleisli associativity on three random kernels W -> Z -> Y -> X
        ys, zs, ws = (rand_space(rng, 4, pre) for pre in ("y", "z", "w"))
        s = StochasticKernel(ys, xs, {y: rand_distribution(xs, rng) for y in ys})
        t = StochasticKernel(zs, ys, {z: rand_distribution(ys, rng) for z in zs})
        u = StochasticKernel(ws, zs, {w: rand_distribution(zs, rng) for w in ws})
        ok = ok and kleisli_compose(kleisli_compose(s, t), u) == kleisli_compose(
            s, kleisli_compose(t, u)
        )

        # coherence is closed under composition
        first, second = rand_composable_pairs(rng)
        composite_f = {x: second.f[first.f[x]] for x in first.p.space}
        composite_s = kleisli_compose(first.s, second.s)
        ok = ok and not validate_coherent(composite_f, composite_s, first.p, second.q)

        # disintegration round-trip reconstructs p exactly
        target = rand_space(rng, min(4, len(xs)), "y2")
        f = rand_map(rng, xs, target, onto=True)
        dis = disintegrate(p, f, target)
        ok = ok and kernel_apply(dis, pushforward(p, f, target)) == p
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(capsys, 4, "monad laws, Kleisli associativity, closure, round-trip exact",
           ok, f"1000 instances, {elapsed:.2f}s")


def test_criterion_05_gaussian_oracle(capsys):
    _, levels = gaussian_ladder()
    elapsed = _LADDER_SECONDS["gaussian"]
    truth = 0.5  # closed-form KL(N(0,1) || N(1,1))
    monotone = ladder_monotone(levels)
    bounded = all(kl <= truth + 1e-6 for _, kl, _ in levels)
    final_gap = abs(levels[-1][1] - truth)
    ok = monotone and bounded and final_gap <= 1e-3 and elapsed < 30.0
    report(capsys, 5, "Gaussian ladder monotone, bounded by 0.5, final within 1e-3",
           ok, f"final gap {final_gap:.2e}, {elapsed:.1f}s")


def test_criterion_06_exponential_oracle(capsys):
    model = exponential_model(1, 2, truncation=(0.0, 40.0))
    truth = 1 - math.log(2)  # closed-form KL(Exp(1) || Exp(2))
    start = time.perf_counter()
    levels = []
    for n in range(1, 15):
        level = bin_masses(model, n, QUAD)
        levels.append((n, discretized_kl(level), level))
    elapsed = time.perf_counter() - start
    worst = max(abs(kl - exponential_kl_oracle(n)) for n, kl, _ in levels)
    monotone = ladder_monotone(levels)
    bounded = all(kl <= truth for _, kl, _ in levels)
    # The tail cell [n, inf) is x >= ln 2n: it holds p-mass 1/(2n), and p
    # and q restricted to it are again Exp(1) and Exp(2), so that one cell
    # alone hides (1 - ln 2)/(2n) of the divergence at every level.
    n_top, final = levels[-1][0], levels[-1][1]
    final_gap = truth - final
    tail_deficit = truth / (2 * n_top)
    ok = (worst <= 1e-9 and monotone and bounded
          and final_gap <= tail_deficit + 1e-6 and elapsed < 30.0)
    report(capsys, 6, "exponential ladder equals its exact level-n values, "
           "monotone, bounded by 1 - ln 2, final gap is the tail cell's",
           ok, f"worst oracle deviation {worst:.2e}, final {final:.10f}, "
           f"gap {final_gap:.2e} vs tail {tail_deficit:.2e}, {elapsed:.1f}s")


def test_criterion_07_simple_function_fidelity(capsys):
    model, levels = gaussian_ladder()
    worst = max(agreement_check(model, level) for _, _, level in levels)
    ok = worst <= 1e-6
    report(capsys, 7, "simple functions reproduce bin masses at every level",
           ok, f"worst deviation {worst:.2e}")


def test_criterion_08_properness(capsys):
    violations = []
    for size in range(2, 7):
        space = FiniteSpace(tuple(f"o{i}" for i in range(size)))
        violations.extend(properness_audit(space, trials=200, seed=800 + size))

    # exhaustive 2-point grid at resolution 1/64
    two = FiniteSpace(("a", "b"))
    grid = [
        FiniteDistribution(two, {"a": Fraction(k, 64), "b": Fraction(64 - k, 64)})
        for k in range(65)
    ]
    grid_ok = True
    for p in grid:
        if kl_score(p, p) != 0.0:
            grid_ok = False
        for q in grid:
            cross = kl_score(p, q)
            if cross < 0 or (p != q and not cross > 0):
                grid_ok = False
    ok = not violations and grid_ok
    report(capsys, 8, "log score strictly proper (1000 trials + exhaustive grid)",
           ok, f"{len(violations)} violations, grid {'ok' if grid_ok else 'bad'}")


COIN_DOC = """\
morphism v1
space pairs HH HT TH TT
space toss H T
map HH H
map HT H
map TH T
map TT T
p HH 1/4
p HT 1/4
p TH 1/4
p TT 1/4
s H HH 2/3
s H HT 1/3
s T TH 1/3
s T TT 2/3
"""


def test_criterion_09_coin_example(capsys):
    pair = parse_morphism(COIN_DOC).to_pair()
    forecasts_ok = (
        pair.s("H")("HH") == Fraction(2, 3)
        and pair.s("H")("HT") == Fraction(1, 3)
        and pair.s("T")("TT") == Fraction(2, 3)
        and pair.s("T")("TH") == Fraction(1, 3)
    )
    # direct expression p(H) S(p_H, s_H) + p(T) S(p_T, s_T) with an
    # independent float KL over the fiber conditionals
    p_h = {"HH": 0.5, "HT": 0.5}
    p_t = {"TH": 0.5, "TT": 0.5}
    s_h = {"HH": 2 / 3, "HT": 1 / 3}
    s_t = {"TH": 1 / 3, "TT": 2 / 3}
    direct = 0.5 * direct_kl(p_h, s_h) + 0.5 * direct_kl(p_t, s_t)
    total = convex_decompose(pair).total
    gap = abs(total - direct)
    ok = forecasts_ok and gap <= 1e-12
    report(capsys, 9, "coin example: forecasts (2/3, 1/3), total matches direct sum",
           ok, f"total {total:.10f}, gap {gap:.3g}")


def test_criterion_10_sequential_telescoping(capsys):
    rng = random.Random(1010)
    worst = 0.0
    space = FiniteSpace(("a", "b", "c"))
    for _ in range(100):
        truth = rand_distribution(space, rng)
        forecasts = [
            FiniteDistribution(space, dict(zip(space, rand_masses(rng, 3, full=True))))
            for _ in range(10)
        ]
        deltas = sequential_scores(truth, forecasts)
        telescoped = math.fsum(deltas[1:])
        direct = kl_score(truth, forecasts[0]) - kl_score(truth, forecasts[-1])
        worst = max(worst, abs(telescoped - direct))
    ok = worst <= 1e-12
    report(capsys, 10, "increments telescope to first minus last score",
           ok, f"worst gap {worst:.3g}")


def test_criterion_11_scaled_family(capsys):
    c = 2.0
    # criterion 1 suite, doubled
    rng = random.Random(101)
    worst1 = 0.0
    for _ in range(200):
        xs = rand_space(rng, 8, "x")
        ys = rand_space(rng, min(4, len(xs)), "y")
        f = rand_map(rng, xs, ys, onto=True)
        p = rand_distribution(xs, rng, max_den=64)
        worst1 = max(worst1, scaled_functor(c, disintegration_pair(p, f, ys)))
    # criterion 2 suite, doubled
    rng = random.Random(202)
    worst2 = 0.0
    for _ in range(500):
        first, second = rand_composable_pairs(rng, absolutely=True)
        check = check_functoriality(first, second)
        worst2 = max(worst2, abs(c * check.composite - c * check.first - c * check.second))
    # criterion 3 suite, doubled
    rng = random.Random(303)
    worst3 = 0.0
    agree = True
    for i in range(500):
        absolutely = False if i % 5 == 4 else None
        pair = rand_coherent_pair(rng, absolutely=absolutely)
        scaled = scaled_functor(c, pair)
        total = convex_decompose(pair).total
        if scaled == INF or total == INF:
            agree = agree and scaled == INF and total == INF
        else:
            worst3 = max(worst3, abs(c * total - scaled))
    ok = worst1 <= c * 1e-12 and worst2 < c * 1e-10 and worst3 <= c * 1e-12 and agree
    report(capsys, 11, "2x-scaled functor passes the vanishing/functoriality/linearity suites",
           ok, f"worst {worst1:.2g}/{worst2:.2g}/{worst3:.2g}")


def _cli(args, hash_seed=None):
    # the child imports kernelflow from this checkout, whatever PYTHONPATH
    # the caller had; a failed import would make every run identical
    src = str(Path(kernelflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "kernelflow.cli", *args],
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_12_cli_determinism(capsys, tmp_path):
    log = tmp_path / "log.txt"
    log.write_text(
        "forecast-log v1\noutcomes H T\n"
        "forecast 1 alice H 2/3 1/3\nforecast 2 alice T 1/2 1/2\n"
        # several forecasters, so an order that followed string hashing
        # would show between hash seeds
        "forecast 1 bob H 1/4 3/4\nforecast 1 carol H 1/2 1/2\nforecast 1 dave H 3/5 2/5\n"
    )
    invocations = [
        ["estimate-kl", "gaussian", "0", "1", "1", "1",
         "--nmax", "4", "--tol", "1e-3", "--truncate", "-12", "13"],
        ["estimate-kl", "exponential", "1", "2", "--nmax", "4", "--tol", "1e-2",
         "--integrator", "mc", "--seed", "7", "--truncate", "0", "40"],
        ["score", str(log), "--mode", "empirical"],
    ]
    ok = True
    runs = []
    for argv in invocations:
        runs += [_cli(argv), _cli(argv)]
        ok = ok and runs[-2] == runs[-1]
    # output must not depend on string hashing, which differs between
    # interpreter runs unless PYTHONHASHSEED pins it
    for argv in (invocations[0], invocations[2]):
        runs += [_cli(argv, hash_seed=0), _cli(argv, hash_seed=1)]
        ok = ok and runs[-2] == runs[-1]
    # every run got as far as printing its result
    ok = ok and all(out and b"Traceback" not in err for _, out, err in runs)
    report(capsys, 12, "repeated CLI runs byte-identical, hash-seed output-invariant", ok)
