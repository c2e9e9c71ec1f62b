"""The traced run: per-layer spans and counts from outside the program.

For every workload (whichever one was named, so that every per-layer
metric is measured in every traced run) this makes one untraced CLI pass
and then a mirror pass that calls the modules' public functions in the
order the CLI does, each call inside a span {id, name, start, end,
parent}.  The density model's callables are wrapped with
`dataclasses.replace` to count the points they are given.  The mirror
rebuilds each command's stdout with the CLI's own formats and must match
the untraced pass byte for byte, so the trace measures the same program.
Direct calls then time the layer functions the CLI only reaches
internally (kernel_apply, kleisli_compose, ...), at the shapes named in
the metric names.  Spans stay in memory and are written to
.bench_work/trace-<seed>.json at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import math
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import inputs
import run as harness
import workloads
from kernelflow import borel, documents, entropy, finite, pairs, scoring


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **attrs):
        with self.span(name, **attrs):
            return fn(*args)

    @staticmethod
    def duration(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def children(self, rec: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == rec["id"]]

    def dump(self, path: Path) -> None:
        """Write the spans with their self time: duration minus the time
        covered by child spans (children of one span never overlap)."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + self.duration(s)
        rows = [{**s, "self": self.duration(s) - covered.get(s["id"], 0.0)} for s in self.spans]
        path.write_text(json.dumps({"spans": rows}, default=str) + "\n")


# ---------------------------------------------------------------------------
# the CLI's output formats, rebuilt


def fmt(x: float) -> str:
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    if x == 0:
        return "0"
    return f"{x:.9g}"


def fmt_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# mirrors: one per CLI command, returning the stdout the CLI would print


def counted(model: borel.DensityModel, counts: dict) -> borel.DensityModel:
    def points(key, fn):
        def wrapped(x):
            counts[key] += int(np.size(x))
            return fn(x)
        return wrapped

    def draws(rng, size):
        counts["sampler"] += int(size)
        return model.sampler(rng, size)

    return dataclasses.replace(model, base_density=points("density", model.base_density),
                               ratio=points("ratio", model.ratio), sampler=draws)


def mirror_estimate(tr: Tracer, argv, ctx: dict) -> str:
    """cmd_estimate_kl, with estimate_kl unrolled into its layer calls."""
    model_args = []
    for tok in argv[1:]:
        if tok.startswith("--"):
            break
        model_args.append(tok)
    name, params = model_args[0], model_args[1:]
    model = borel.MODEL_REGISTRY[name](*[float(Fraction(p)) for p in params])
    i = argv.index("--truncate")
    model = dataclasses.replace(model, truncation=(float(argv[i + 1]), float(argv[i + 2])))
    counts = {"density": 0, "ratio": 0, "sampler": 0}
    model = counted(model, counts)
    kind = argv[argv.index("--integrator") + 1] if "--integrator" in argv else "quad"
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else None
    spec = borel.IntegratorSpec(kind=kind, seed=seed)
    nmax = int(argv[argv.index("--nmax") + 1])
    stop_tol = 1e-4                                 # the CLI default --tol
    if kind == "quad":
        tr.call("borel.validate_model", borel.validate_model, model)
    rows, level, prev, small_steps, converged = [], None, None, 0, False
    for n in range(1, nmax + 1):
        before = counts["ratio"]
        level = tr.call("borel.bin_masses", borel.bin_masses, model, n, spec, level=n)
        kl = tr.call("borel.discretized_kl", borel.discretized_kl, level, level=n)
        rows.append((n, kl, level.occupied(), level.err_est))
        ctx["top_ratio_evals"] = counts["ratio"] - before
        if prev is not None and math.isfinite(kl) and math.isfinite(prev):
            small_steps = small_steps + 1 if abs(kl - prev) < stop_tol else 0
            if small_steps >= 2:
                converged = True
                break
        prev = kl
    ctx.update(counts=counts, rows=rows, top=level)
    out = [f"{n}, {fmt(kl)}, {bins}, {err:.3e}" for n, kl, bins, err in rows]
    out += [f"final = {fmt(rows[-1][1])}", f"converged: {'yes' if converged else 'no'}"]
    return "\n".join(out) + "\n"


def _load_pair(tr: Tracer, path: str):
    doc = tr.call("documents.parse_morphism", documents.parse_morphism, Path(path).read_text())
    return tr.call("documents.to_pair", doc.to_pair)


def mirror_validate(tr: Tracer, argv, ctx) -> str:
    """cmd_validate on a coherent document without declared q masses."""
    doc = tr.call("documents.parse_morphism", documents.parse_morphism, Path(argv[1]).read_text())
    tr.call("documents.validate", doc.validate)
    pair = tr.call("documents.to_pair", doc.to_pair)
    ok = tr.call("pairs.is_absolutely_coherent", pairs.is_absolutely_coherent, pair)
    return f"coherent: yes\nabsolutely coherent: {'yes' if ok else 'no'}\n"


def mirror_re(tr: Tracer, argv, ctx) -> str:
    first = _load_pair(tr, argv[1])
    if len(argv) == 2:
        return f"RE = {fmt(tr.call('entropy.re_fin', entropy.re_fin, first).value)}\n"
    second = _load_pair(tr, argv[2])
    check = tr.call("entropy.check_functoriality", entropy.check_functoriality, first, second)
    return (f"RE(first) = {fmt(check.first)}\nRE(second) = {fmt(check.second)}\n"
            f"RE(composite) = {fmt(check.composite)}\nfunctoriality residual = {fmt(check.residual)}\n")


def mirror_decompose(tr: Tracer, argv, ctx) -> str:
    pair = _load_pair(tr, argv[1])
    dec = tr.call("entropy.convex_decompose", entropy.convex_decompose, pair)
    out = [f"{y}: q = {fmt_fraction(w)}, local RE = {fmt(local)}" for y, w, local in dec.entries]
    direct = tr.call("entropy.re_fin", entropy.re_fin, pair).value
    out += [f"total = {fmt(dec.total)}", f"re_fin cross-check = {fmt(direct)}"]
    return "\n".join(out) + "\n"


def mirror_score(tr: Tracer, argv, ctx) -> str:
    mode = argv[argv.index("--mode") + 1]
    out = []
    if mode == "conditional":
        pair = _load_pair(tr, argv[1])
        dec = tr.call("entropy.convex_decompose", entropy.convex_decompose, pair)
        out = [f"scenario {y}: q = {fmt_fraction(w)}, score = {fmt(local)}" for y, w, local in dec.entries]
        out.append(f"total = {fmt(dec.total)}")
    elif mode == "empirical":
        log = tr.call("documents.parse_forecast_log", documents.parse_forecast_log, Path(argv[1]).read_text())
        ctx["records"] = len(log.records)
        for name in log.forecasters():
            recs = tr.call("documents.for_forecaster", log.for_forecaster, name)
            report = tr.call("scoring.empirical_log_score", scoring.empirical_log_score, recs)
            out += [f"{name}, round {rnd}: {fmt(s)}" for rnd, s in report.per_round]
            out.append(f"{name}, total: {fmt(report.total)}")
    else:
        truth = tr.call("documents.parse_distribution", documents.parse_distribution,
                        Path(argv[argv.index("--truth") + 1]).read_text())
        log = tr.call("documents.parse_forecast_log", documents.parse_forecast_log, Path(argv[1]).read_text())
        records = sorted(log.records, key=lambda r: (r.round, r.forecaster))
        forecasts = [r.forecast for r in records]
        scores = tr.call("scoring.sequential_scores", scoring.sequential_scores, truth, forecasts)
        out = [f"round {r.round}, {r.forecaster}: {fmt(s)}" for r, s in zip(records, scores)]
        if all(math.isfinite(s) for s in scores):
            telescoped = math.fsum(scores[1:])
            direct = (tr.call("scoring.kl_score", scoring.kl_score, truth, forecasts[0])
                      - tr.call("scoring.kl_score", scoring.kl_score, truth, forecasts[-1]))
            out.append(f"telescoped check: {fmt(telescoped)} vs {fmt(direct)}")
    return "\n".join(out) + "\n"


MIRRORS = {"estimate-kl": mirror_estimate, "validate": mirror_validate, "re": mirror_re,
           "decompose": mirror_decompose, "score": mirror_score}


# ---------------------------------------------------------------------------
# direct layer calls


def median_call(tr: Tracer, name: str, fn, *args, min_s: float = 0.2, max_calls: int = 25) -> float:
    """Median duration of repeated calls, repeated until min_s has been spent."""
    durations, spent = [], 0.0
    while not durations or (spent < min_s and len(durations) < max_calls):
        with tr.span(name) as rec:
            fn(*args)
        durations.append(tr.duration(rec))
        spent += durations[-1]
    return statistics.median(durations)


def per_call_us(tr: Tracer, name: str, fn, args_list) -> float:
    with tr.span(name, calls=len(args_list)) as rec:
        for args in args_list:
            fn(*args)
    return tr.duration(rec) / len(args_list) * 1e6


def pair_of(m: inputs.Morphism):
    return documents.parse_morphism(m.text()).to_pair()


def layer_calls(tr: Tracer, seed: int, smoke: bool) -> dict:
    metrics: dict = {}
    sizes = (20, 50, 100) if smoke else inputs.GROWTH_SIZES
    with tr.span("setup.layer_inputs"):
        chains = {}
        for nx in sizes:
            rng = random.Random(f"growth-{seed}-{nx}")
            a = inputs.morphism(rng, nx, max(1, nx // 50))
            b = inputs.composable(rng, a, max(1, len(a.ys) // 5))
            chains[nx] = (pair_of(a), pair_of(b))
        log = workloads.forecast_inputs(seed, smoke)
        space5 = finite.FiniteSpace(log.outcomes)
        truth = finite.FiniteDistribution(space5, log.truth)
        sample = log.records[:2000]
        forecasts = [finite.FiniteDistribution(space5, dict(zip(log.outcomes, ms))) for *_, ms in sample]
        masses = [dict(zip(log.outcomes, ms)) for *_, ms in sample]
    for nx, label in zip(sizes, ("x200", "x1000", "x2000")):
        first, second = chains[nx]
        metrics[f"finite.kernel_apply.{label}_s"] = median_call(
            tr, "finite.kernel_apply", finite.kernel_apply, first.s, first.q)
        metrics[f"finite.kleisli_compose.{label}_s"] = median_call(
            tr, "finite.kleisli_compose", finite.kleisli_compose, first.s, second.s)
    first, second = chains[sizes[-1]]
    metrics["finite.pushforward.x2000_s"] = median_call(
        tr, "finite.pushforward", finite.pushforward, first.p, first.f, first.q.space)
    metrics["finite.dist_lookup.x2000_us"] = per_call_us(
        tr, "finite.FiniteDistribution.__call__", first.p, [(x,) for x in first.p.space])
    metrics["finite.dist_build.k5_us"] = per_call_us(
        tr, "finite.FiniteDistribution", finite.FiniteDistribution, [(space5, m) for m in masses])
    metrics["finite.space_build.k5_us"] = per_call_us(
        tr, "finite.FiniteSpace", finite.FiniteSpace, [(log.outcomes,)] * len(masses))
    metrics["pairs.CoherentPair.x2000_s"] = median_call(
        tr, "pairs.CoherentPair", pairs.CoherentPair, first.f, first.s, first.p, first.q)
    metrics["pairs.compose_pairs.x2000_s"] = median_call(
        tr, "pairs.compose_pairs", pairs.compose_pairs, first, second)
    metrics["pairs.singleton_pair.k5_us"] = per_call_us(
        tr, "pairs.singleton_pair", pairs.singleton_pair, [(truth, f) for f in forecasts])
    metrics["scoring.kl_score.k5_us"] = per_call_us(
        tr, "scoring.kl_score", scoring.kl_score, [(truth, f) for f in forecasts])
    return metrics


# ---------------------------------------------------------------------------
# metrics from the mirror spans


def _spans(tr: Tracer, root: dict, name: str) -> list[dict]:
    return [s for s in tr.children(root) if s["name"] == name]


def _total(tr, root, name) -> float:
    return sum(tr.duration(s) for s in _spans(tr, root, name))


def borel_metrics(tr: Tracer, roots: dict, ctxs: dict, notes: dict) -> dict:
    m: dict = {}
    for key, cmd in (("gauss", "gauss_quad"), ("exp", "exp_quad")):
        root, ctx = roots[cmd], ctxs[cmd]
        bins = _spans(tr, root, "borel.bin_masses")
        top = ctx["top"]
        m[f"borel.validate_model.{key}_s"] = _total(tr, root, "borel.validate_model")
        m[f"borel.bin_masses.{key}_s"] = sum(tr.duration(s) for s in bins)
        m[f"borel.bin_masses.{key}_top_s"] = tr.duration(bins[-1])
        m[f"borel.ratio_evals.{key}"] = ctx["counts"]["ratio"]
        m[f"borel.density_evals.{key}"] = ctx["counts"]["density"]
        m[f"borel.occupied_cells.{key}_top"] = top.occupied()
        m[f"borel.evals_per_cell.{key}"] = ctx["top_ratio_evals"] / top.occupied()
        m[f"borel.err_est.{key}_top"] = top.err_est
        truth = notes[f"{key}_truth"]       # None at smoke size
        m[f"borel.gap.{key}"] = 0.0 if truth is None else abs(ctx["rows"][-1][1] - truth)
    m["borel.bin_masses.mc_s"] = _total(tr, roots["exp_mc"], "borel.bin_masses")
    m["borel.sampler_draws.mc"] = ctxs["exp_mc"]["counts"]["sampler"]
    m["borel.discretized_kl.s"] = sum(_total(tr, roots[c], "borel.discretized_kl") for c in roots)
    return m


def _median_of(tr, roots, cmds, name) -> float:
    return statistics.median(tr.duration(s) for c in cmds for s in _spans(tr, roots[c], name))


def finite_layer_metrics(tr: Tracer, roots: dict, ctxs: dict, wl) -> dict:
    morph = ("validate", "re", "decompose", "compose_re")
    return {
        "documents.parse_morphism.x2000_s": statistics.median(
            tr.duration(_spans(tr, roots[c], "documents.parse_morphism")[0]) for c in morph),
        "documents.parse_morphism.x1000y300_s": _total(tr, roots["score_conditional"], "documents.parse_morphism"),
        "documents.parse_morphism.x2000_bytes": wl["finite-layer"].shapes["A"]["bytes"],
        "documents.to_pair.x2000_s": statistics.median(
            tr.duration(_spans(tr, roots[c], "documents.to_pair")[0]) for c in morph),
        "documents.validate.x2000_s": _total(tr, roots["validate"], "documents.validate"),
        "documents.parse_forecast_log.s": _median_of(
            tr, roots, ("score_empirical", "score_sequential"), "documents.parse_forecast_log"),
        "documents.parse_forecast_log.records": ctxs["score_empirical"]["records"],
        "pairs.is_absolutely_coherent.x2000_s": _total(tr, roots["validate"], "pairs.is_absolutely_coherent"),
        "entropy.re_fin.x2000_s": _median_of(tr, roots, ("re", "decompose"), "entropy.re_fin"),
        "entropy.convex_decompose.x2000_s": _total(tr, roots["decompose"], "entropy.convex_decompose"),
        "entropy.convex_decompose.x1000y300_s": _total(tr, roots["score_conditional"], "entropy.convex_decompose"),
        "entropy.check_functoriality.x2000_s": _total(tr, roots["compose_re"], "entropy.check_functoriality"),
        "scoring.empirical_log_score.s": _total(tr, roots["score_empirical"], "scoring.empirical_log_score"),
        "scoring.sequential_scores.s": _total(tr, roots["score_sequential"], "scoring.sequential_scores"),
    }


UNITS = (("_us", "us"), ("_s", "s"), ("_bytes", "bytes"), (".s", "s"))


def unit_of(name: str) -> str:
    if name.startswith("cli.stdout_bytes"):
        return "bytes"
    if name.startswith("trace.overhead_frac"):
        return "frac"
    if name.startswith(("borel.err_est", "borel.gap")):
        return "nats"
    if name.startswith("borel.evals_per_cell"):
        return "evals/cell"
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def run(cli, seed: int, smoke: bool = False):
    """The traced run over all workloads; returns (correct, attempted, failed, metrics, details)."""
    tr = Tracer()
    wls = {}
    roots: dict[str, dict] = {}
    ctxs: dict[str, dict] = {}
    cli_metrics: dict = {}
    problems: dict[str, list[str]] = {}
    attempted = 0
    for name, build in workloads.WORKLOADS.items():
        work = harness.WORK / name
        work.mkdir(parents=True, exist_ok=True)
        with tr.span("setup.inputs", workload=name):
            wl = wls[name] = build(seed, work, smoke)
        gc.freeze()
        harness.run_cli(cli, wl.warmup)
        untraced = harness.run_pass(cli, wl)
        traced_total = 0.0
        for cmd in wl.commands:
            ctx = ctxs[cmd.name] = {}
            gc.collect()        # as run_cli does before each untraced command
            with tr.span(f"cmd.{cmd.name}", workload=name) as root:
                mirrored = MIRRORS[cmd.argv[0]](tr, cmd.argv, ctx)
            roots[cmd.name] = root
            res = untraced[cmd.name]
            found = harness.command_problems(cmd, res, None)
            if mirrored != res.out:
                found.append("traced mirror output differs from the CLI")
            attempted += 1
            if found:
                problems[cmd.name] = found
            layers = sum(tr.duration(c) for c in tr.children(root))
            cli_metrics[f"cli.cmd.{cmd.name}_s"] = res.seconds
            cli_metrics[f"cli.self.{cmd.name}_s"] = res.seconds - layers
            traced_total += tr.duration(root)
        plain = sum(res.seconds for res in untraced.values())
        cli_metrics[f"cli.stdout_bytes.{name}"] = sum(len(r.out.encode()) for r in untraced.values())
        cli_metrics[f"trace.overhead_frac.{name}"] = traced_total / plain - 1.0
    metrics = borel_metrics(tr, roots, ctxs, wls["kl-ladder"].notes)
    metrics.update(finite_layer_metrics(tr, roots, ctxs, wls))
    metrics.update(layer_calls(tr, seed, smoke))
    metrics.update(cli_metrics)
    out = {name: (value, unit_of(name)) for name, value in sorted(metrics.items())}
    tr.dump(harness.WORK / f"trace-{seed}.json")
    details = {"problems": problems,
               "shapes": {name: wl.shapes for name, wl in wls.items()},
               "spans": len(tr.spans)}
    return not problems, attempted, len(problems), out, details
