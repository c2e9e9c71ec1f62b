"""Command-line front end.

Subcommands: validate, re, decompose, estimate-kl, score.  Every command
is deterministic given its full flag set (including seeds).  Exit codes:
0 success, 1 semantic failure, 2 parse failure, 3 numeric-tolerance
failure, 4 indeterminate arithmetic.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import re
import sys
from pathlib import Path

from . import documents
from .entropy import check_functoriality, convex_decompose, re_fin
from .errors import (
    DocumentParseError,
    DomainMismatchError,
    IncoherentPairError,
    IndeterminateScoreError,
    IntegrationToleranceError,
    KernelflowError,
)
from .finite import format_fraction
from .pairs import is_absolutely_coherent
from .scoring import empirical_log_score, kl_score, sequential_scores

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_INDETERMINATE = 4


def _fmt(x: float) -> str:
    # .9g already prints inf and -inf; only -0.0 would print as "-0"
    if x == 0:
        return "0"
    return f"{x:.9g}"


def _json_float(x: float):
    # JSON has no infinity; write the token stdout prints instead
    return x if math.isfinite(x) else _fmt(x)


def _show_levels(rows) -> None:
    for n, kl, bins, err in rows:
        print(f"{n}, {_fmt(kl)}, {bins}, {err:.3e}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentParseError(f"cannot read {path}: {exc.strerror}", 1)
    except UnicodeDecodeError as exc:
        raise DocumentParseError(f"cannot read {path}: not {exc.encoding} text ({exc.reason})", 1)


def _load_pair(path: str):
    return documents.parse_morphism(_read(path)).to_pair()


def cmd_validate(args) -> int:
    doc = documents.parse_morphism(_read(args.path))
    try:
        pair = doc.to_pair()
    except IncoherentPairError as exc:
        print("coherent: no")
        print("absolutely coherent: no")
        for v in exc.violations:
            print(f"violation: {v}")
        return EXIT_SEMANTIC
    abs_ok = is_absolutely_coherent(pair)
    print("coherent: yes")
    print(f"absolutely coherent: {'yes' if abs_ok else 'no'}")
    return EXIT_OK


def cmd_re(args) -> int:
    first = _load_pair(args.path)
    if args.path2 is None:
        print(f"RE = {_fmt(re_fin(first).value)}")
        return EXIT_OK
    second = _load_pair(args.path2)
    check = check_functoriality(first, second)
    print(f"RE(first) = {_fmt(check.first)}")
    print(f"RE(second) = {_fmt(check.second)}")
    print(f"RE(composite) = {_fmt(check.composite)}")
    if check.residual is not None:
        print(f"functoriality residual = {_fmt(check.residual)}")
    else:
        agree = "yes" if check.holds() else "no"
        print(f"both sides infinite together: {agree}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    pair = _load_pair(args.path)
    decomposition = convex_decompose(pair)
    for y, weight, local in decomposition.entries:
        print(f"{y}: q = {format_fraction(weight)}, local RE = {_fmt(local)}")
    direct = re_fin(pair).value
    print(f"total = {_fmt(decomposition.total)}")
    print(f"re_fin cross-check = {_fmt(direct)}")
    return EXIT_OK


def cmd_estimate_kl(args) -> int:
    # the one command that needs numpy imports it when it runs
    from .borel import MODEL_REGISTRY, IntegratorSpec, estimate_kl, piecewise_constant_model

    if len(args.model) == 1 and Path(args.model[0]).is_file():
        pieces = documents.parse_piecewise(_read(args.model[0]))
        model = piecewise_constant_model(pieces, name=args.model[0])
    else:
        name, params = args.model[0], args.model[1:]
        factory = MODEL_REGISTRY.get(name)
        if factory is None:
            raise DomainMismatchError(
                f"unknown model {name!r}; known: {', '.join(sorted(MODEL_REGISTRY))}"
            )
        try:
            values = [documents._number(p) for p in params]
        except ValueError:
            raise DomainMismatchError(f"model parameters must be numbers: {params}")
        required = [
            p.name
            for p in inspect.signature(factory).parameters.values()
            if p.default is inspect.Parameter.empty
        ]
        if len(values) != len(required):
            raise DomainMismatchError(
                f"model {name!r} takes {len(required)} parameters "
                f"({' '.join(required)}), got {len(values)}"
            )
        model = factory(*values)
    if args.truncate is not None:
        model = dataclasses.replace(model, truncation=tuple(args.truncate))
    spec = IntegratorSpec(kind=args.integrator, seed=args.seed)
    trace = estimate_kl(model, args.nmax, args.tol, spec)
    _show_levels(trace.levels)
    print(f"final = {_fmt(trace.final)}")
    print(f"converged: {'yes' if trace.converged else 'no'}")
    return EXIT_OK if trace.converged else EXIT_NUMERIC


def cmd_score(args) -> int:
    # summary() builds the --summary document, only when one is asked for
    if args.mode == "conditional":
        pair = _load_pair(args.path)
        decomposition = convex_decompose(pair)
        for y, weight, local in decomposition.entries:
            print(f"scenario {y}: q = {format_fraction(weight)}, score = {_fmt(local)}")
        print(f"total = {_fmt(decomposition.total)}")

        def summary():
            rows = [
                {"scenario": y, "q": format_fraction(weight), "score": _json_float(local)}
                for y, weight, local in decomposition.entries
            ]
            return {"scenarios": rows, "total": _json_float(decomposition.total)}
    elif args.mode == "empirical":
        log = documents.parse_forecast_log(_read(args.path))
        groups: dict[str, list] = {}
        for rec in log.records:
            groups.setdefault(rec.forecaster, []).append(rec)
        reports = []
        for name in sorted(groups):
            report = empirical_log_score(groups[name])
            # one print per forecaster, not per line, which takes about twice as long
            lines = [f"{name}, round {rnd}: {_fmt(score)}" for rnd, score in report.per_round]
            lines.append(f"{name}, total: {_fmt(report.total)}")
            print("\n".join(lines))
            reports.append((name, report))

        def summary():
            return {
                "reports": [
                    {
                        "forecaster": name,
                        "per_round": [[r, _json_float(s)] for r, s in report.per_round],
                        "total": _json_float(report.total),
                    }
                    for name, report in reports
                ]
            }
    else:  # sequential
        if args.truth is None:
            raise DomainMismatchError("sequential mode requires --truth")
        truth = documents.parse_distribution(_read(args.truth))
        log = documents.parse_forecast_log(_read(args.path))
        records = sorted(log.records, key=lambda r: (r.round, r.forecaster))
        if truth.space != log.space:
            raise DomainMismatchError("truth and log use different outcome spaces")
        forecasts = [r.forecast for r in records]
        try:
            scores = sequential_scores(truth, forecasts)
        except IndeterminateScoreError as exc:
            # exc.positions are 1-based positions in the sorted records
            a, b = (f"round {records[i - 1].round} ({records[i - 1].forecaster})" for i in exc.positions)
            raise IndeterminateScoreError(f"indeterminate increment: {a} and {b} are both infinite") from None
        print("\n".join(f"round {rec.round}, {rec.forecaster}: {_fmt(score)}"
                        for rec, score in zip(records, scores)))
        if all(math.isfinite(s) for s in scores):
            telescoped = math.fsum(scores[1:])
            direct = kl_score(truth, forecasts[0]) - kl_score(truth, forecasts[-1])
            print(f"telescoped check: {_fmt(telescoped)} vs {_fmt(direct)}")

        def summary():
            return {"scores": [_json_float(s) for s in scores]}
    if args.summary:
        text = json.dumps({"mode": args.mode, **summary()}, indent=2, allow_nan=False) + "\n"
        try:
            Path(args.summary).write_text(text)
        except OSError as exc:
            raise KernelflowError(f"cannot write {args.summary}: {exc.strerror}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelflow",
        description="Exact finite kernels, relative entropy, KL estimation and forecast scoring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a morphism document for coherence")
    v.add_argument("path")
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("re", help="relative entropy of one or two morphism documents")
    r.add_argument("path")
    r.add_argument("path2", nargs="?", default=None)
    r.set_defaults(func=cmd_re)

    d = sub.add_parser("decompose", help="per-scenario decomposition of relative entropy")
    d.add_argument("path")
    d.set_defaults(func=cmd_decompose)

    e = sub.add_parser("estimate-kl", help="refinement KL estimate for a density model")
    # argparse reads "-1.2e1" or "-inf" as an option unless it matches this;
    # model parameters and truncation ends may be any negative float() reads
    e._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.I)
    e.add_argument("model", nargs="+", help="model name and parameters, or a piecewise density file")
    e.add_argument("--nmax", type=int, default=14)
    e.add_argument("--tol", type=float, default=1e-4, help="stopping tolerance on increments")
    e.add_argument("--integrator", choices=["quad", "mc"], default="quad")
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--truncate", type=float, nargs=2, metavar=("LO", "HI"), default=None)
    e.set_defaults(func=cmd_estimate_kl)

    s = sub.add_parser("score", help="score forecast logs or conditional-forecast morphisms")
    s.add_argument("path")
    s.add_argument("--mode", choices=["empirical", "sequential", "conditional"], default="empirical")
    s.add_argument("--truth", default=None, help="distribution document (sequential mode)")
    s.add_argument("--summary", default=None, help="write a JSON summary to this path")
    s.set_defaults(func=cmd_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except IndeterminateScoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except IntegrationToleranceError as exc:
        # the levels estimate_kl finished before it stopped
        if exc.partial is not None:
            _show_levels(exc.partial.levels)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except KernelflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
