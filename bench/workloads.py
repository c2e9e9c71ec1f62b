"""The two workloads, their output checks and the error-path probes.

A workload is a fixed list of CLI commands, the files they read, and one
check per command.  Checks parse
stdout and compare it against oracles computed here in plain float
arithmetic from the generated masses; none of them calls the library.

A printed number carries 9 significant digits, so a value is accepted
when it lies within 1e-12 of the oracle plus half a unit in its last
printed digit.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

LADDER_NMAX = 14
# Seed-0 gaps |final - closed form| of the quadrature ladders (acceptance
# criteria 5 and 6), rounded up in the third digit.  Every seed runs a
# rescaled copy of the same pair, so the true KL and the gap do not move;
# a larger gap is an accuracy regression and fails the check.
GAUSS_GAP_MAX = 7.38e-4
EXP_GAP_MAX = 1.10e-2
MC_BAND = 0.05          # Monte Carlo finals are not certified bounds: sanity band only


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int | None, str], list[str]]   # (exit code, stdout) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]       # one pass runs them in this order
    warmup: tuple[str, ...]
    shapes: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)   # closed-form KLs, for the traced run's gaps


# ---------------------------------------------------------------------------
# number parsing and tolerance


def printed_tol(v: float) -> float:
    """Half a unit in the last digit of f"{v:.9g}", plus float slop."""
    if v == 0 or not math.isfinite(v):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 8) + 4e-16 * abs(v)


def close(text: str, oracle: float, abs_tol: float = 1e-12) -> bool:
    try:
        v = float(text)
    except ValueError:
        return False
    return abs(v - oracle) <= abs_tol + printed_tol(v)


def _expect(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------
# plain-float oracles


def _kl_terms(pairs) -> float:
    return math.fsum(p * math.log(p / m) for p, m in pairs if p > 0)


def morphism_oracle(m: inputs.Morphism):
    """RE, per-fiber (y, q string, local RE) entries and their q-weighted total."""
    q = m.q
    pf = {x: float(v) for x, v in m.p.items()}
    re_value = _kl_terms((pf[x], float(q[m.f[x]]) * float(m.s[m.f[x]][x])) for x in m.xs)
    entries = []
    for y in m.ys:
        qy = float(q[y])
        local = _kl_terms((pf[x] / qy, float(sx)) for x, sx in m.s[y].items())
        entries.append((y, f"{q[y].numerator}/{q[y].denominator}", local, qy))
    total = math.fsum(qy * local for _, _, local, qy in entries)
    return re_value, entries, total


def composite_oracle(a: inputs.Morphism, b: inputs.Morphism) -> float:
    mz = b.q
    return _kl_terms(
        (float(a.p[x]), float(mz[b.f[a.f[x]]]) * float(b.s[b.f[a.f[x]]][a.f[x]]) * float(a.s[a.f[x]][x]))
        for x in a.xs
    )


# ---------------------------------------------------------------------------
# checks, one per command kind

_ROW = re.compile(r"^(\d+), (\S+), (\d+), (\S+)$")


def parse_ladder(out: str):
    rows, final, converged = [], None, None
    for line in out.splitlines():
        if m := _ROW.match(line):
            rows.append((int(m[1]), float(m[2]), int(m[3]), float(m[4])))
        elif line.startswith("final = "):
            final = float(line[8:])
        elif line.startswith("converged: "):
            converged = line[11:]
    return rows, final, converged


def ladder_check(truth: float | None, nmax: int, certified: bool, gap_max: float = math.inf):
    """Trace nondecreasing (up to the printed error estimates), every level
    present, exit code matching the verdict.  A certified (quadrature)
    trace also stays below the closed form and its final gap no larger
    than the known baseline gap; a Monte Carlo final only has to land in
    a sanity band around the closed form.  truth None skips both."""

    def check(code, out):
        problems: list[str] = []
        rows, final, converged = parse_ladder(out)
        _expect(problems, converged in ("yes", "no"), "no converged line")
        _expect(problems, code == (0 if converged == "yes" else 3), f"exit {code} with converged: {converged}")
        _expect(problems, bool(rows) and [r[0] for r in rows] == list(range(1, len(rows) + 1)),
                "levels not 1..n")
        _expect(problems, converged == "yes" or len(rows) == nmax, "unconverged ladder stopped early")
        _expect(problems, bool(rows) and final == rows[-1][1], "final is not the last level")
        for (_, k0, _, e0), (n1, k1, _, e1) in zip(rows, rows[1:]):
            _expect(problems, k1 >= k0 - e0 - e1 - printed_tol(k0) - printed_tol(k1),
                    f"level {n1} decreases")
        if truth is None or final is None:
            return problems
        if certified:
            for n, kl, _, err in rows:
                _expect(problems, kl <= truth + err + printed_tol(kl), f"level {n} exceeds the closed form")
            _expect(problems, abs(final - truth) <= gap_max, "gap above baseline")
        else:
            _expect(problems, abs(final - truth) <= MC_BAND, "Monte Carlo final off")
        return problems

    return check


def validate_check(code, out):
    problems: list[str] = []
    _expect(problems, code == 0, f"exit {code}")
    _expect(problems, out == "coherent: yes\nabsolutely coherent: yes\n", "validate verdict")
    return problems


def re_check(value: float):
    def check(code, out):
        problems: list[str] = []
        lines = out.splitlines()
        _expect(problems, code == 0, f"exit {code}")
        _expect(problems, len(lines) == 1 and lines[0].startswith("RE = ") and close(lines[0][5:], value),
                "RE value")
        return problems

    return check


def decompose_check(m: inputs.Morphism, label: str = "local RE", prefix: str = "", cross: bool = True):
    re_value, entries, total = morphism_oracle(m)

    def check(code, out):
        problems: list[str] = []
        lines = out.splitlines()
        _expect(problems, code == 0, f"exit {code}")
        tail = 2 if cross else 1
        _expect(problems, len(lines) == len(entries) + tail, "line count")
        for line, (y, qtext, local, _) in zip(lines, entries):
            head = f"{prefix}{y}: q = {qtext}, {label} = "
            _expect(problems, line.startswith(head) and close(line[len(head):], local), f"fiber {y}")
        if len(lines) == len(entries) + tail:
            t = lines[len(entries)]
            _expect(problems, t.startswith("total = ") and close(t[8:], total), "total")
            if cross:
                c = lines[-1]
                _expect(problems, c.startswith("re_fin cross-check = ") and close(c[21:], re_value),
                        "cross-check")
        return problems

    return check


def functoriality_check(a: inputs.Morphism, b: inputs.Morphism):
    first, second, comp = morphism_oracle(a)[0], morphism_oracle(b)[0], composite_oracle(a, b)

    def check(code, out):
        problems: list[str] = []
        lines = out.splitlines()
        _expect(problems, code == 0, f"exit {code}")
        heads = ("RE(first) = ", "RE(second) = ", "RE(composite) = ", "functoriality residual = ")
        if len(lines) != 4 or not all(l.startswith(h) for l, h in zip(lines, heads)):
            return problems + ["output shape"]
        vals = [l[len(h):] for l, h in zip(lines, heads)]
        _expect(problems, close(vals[0], first), "RE(first)")
        _expect(problems, close(vals[1], second), "RE(second)")
        _expect(problems, close(vals[2], comp), "RE(composite)")
        _expect(problems, abs(float(vals[3])) < 1e-10, "functoriality residual")
        return problems

    return check


def empirical_check(log: inputs.ForecastLog):
    idx = {o: i for i, o in enumerate(log.outcomes)}
    per: dict[str, list[tuple[int, float]]] = {}
    for r, who, o, ms in log.records:
        per.setdefault(who, []).append((r, -math.log(float(ms[idx[o]]))))
    expected = []
    for who in sorted(per):
        rows = sorted(per[who])
        expected += [(f"{who}, round {r}: ", s) for r, s in rows]
        expected.append((f"{who}, total: ", math.fsum(s for _, s in rows)))

    def check(code, out):
        problems: list[str] = []
        lines = out.splitlines()
        _expect(problems, code == 0, f"exit {code}")
        _expect(problems, len(lines) == len(expected), "line count")
        bad = [h for line, (h, v) in zip(lines, expected)
               if not (line.startswith(h) and close(line[len(h):], v, 1e-9))]
        _expect(problems, not bad, f"{len(bad)} empirical scores off, first {bad[:1]}")
        return problems

    return check


def sequential_check(log: inputs.ForecastLog):
    truth = [float(log.truth[o]) for o in log.outcomes]
    ordered = sorted(log.records, key=lambda r: (r[0], r[1]))
    kls = [_kl_terms(zip(truth, (float(m) for m in ms))) for _, _, _, ms in ordered]
    expected = [(f"round {r}, {who}: ", v)
                for (r, who, _, _), v in zip(ordered, [kls[0]] + [a - b for a, b in zip(kls, kls[1:])])]
    direct = kls[0] - kls[-1]

    def check(code, out):
        problems: list[str] = []
        lines = out.splitlines()
        _expect(problems, code == 0, f"exit {code}")
        _expect(problems, len(lines) == len(expected) + 1, "line count")
        bad = [h for line, (h, v) in zip(lines, expected)
               if not (line.startswith(h) and close(line[len(h):], v))]
        _expect(problems, not bad, f"{len(bad)} sequential scores off, first {bad[:1]}")
        m = re.match(r"^telescoped check: (\S+) vs (\S+)$", lines[-1] if lines else "")
        _expect(problems, bool(m) and close(m[1], direct, 1e-10) and close(m[2], direct, 1e-10),
                "telescoped check")
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text)
    return str(path)


def kl_ladder(seed: int, work: Path, smoke: bool = False) -> Workload:
    lm = inputs.ladder_models(seed)
    nmax = 4 if smoke else LADDER_NMAX
    mu1, s1, mu2, s2 = lm.gauss_params
    l1, l2 = lm.exp_params
    g_truth = math.log(s2 / s1) + (s1 * s1 + (mu1 - mu2) ** 2) / (2 * s2 * s2) - 0.5
    e_truth = math.log(l1 / l2) + l2 / l1 - 1.0
    if smoke:   # a 4-level ladder is far from its limit: check shape and monotonicity only
        g_truth = e_truth = None
    gauss = ("estimate-kl", "gaussian", *lm.gauss, "--truncate", "-12", "13", "--nmax", str(nmax))
    exp = ("estimate-kl", "exponential", *lm.exp, "--truncate", "0", "40", "--nmax", str(nmax))
    mc = ("--integrator", "mc", "--seed", str(lm.mc_seed))
    return Workload(
        "kl-ladder",
        (
            Command("gauss_quad", gauss, ladder_check(g_truth, nmax, True, GAUSS_GAP_MAX)),
            Command("exp_quad", exp, ladder_check(e_truth, nmax, True, EXP_GAP_MAX)),
            Command("exp_mc", exp + mc, ladder_check(e_truth, nmax, False)),
        ),
        warmup=gauss[:-1] + ("3",),
        shapes={"nmax": nmax, "gaussian": list(lm.gauss), "exponential": list(lm.exp),
                "mc_seed": lm.mc_seed},
        notes={"gauss_truth": g_truth, "exp_truth": e_truth},
    )


def morphism_docs(seed: int, smoke: bool = False):
    rng = random.Random(f"morphism-{seed}")
    nx, ny, nz = (200, 8, 2) if smoke else (inputs.MORPHISM_X, inputs.MORPHISM_Y, inputs.MORPHISM_Z)
    a = inputs.morphism(rng, nx, ny)
    return a, inputs.composable(rng, a, nz)


def conditional_doc(seed: int, smoke: bool = False) -> inputs.Morphism:
    rng = random.Random(f"conditional-{seed}")
    nx, ny = (100, 30) if smoke else (inputs.CONDITIONAL_X, inputs.CONDITIONAL_Y)
    return inputs.morphism(rng, nx, ny)


def _morphism_commands(seed: int, work: Path, smoke: bool) -> Workload:
    a, b = morphism_docs(seed, smoke)
    a_text = a.text()
    pa, pb = _write(work, "morphism_a.txt", a_text), _write(work, "morphism_b.txt", b.text())
    small = inputs.morphism(random.Random(f"warmup-{seed}"), 20, 4)
    warm = _write(work, "morphism_warmup.txt", small.text())
    return Workload(
        "morphism",
        (
            Command("validate", ("validate", pa), validate_check),
            Command("re", ("re", pa), re_check(morphism_oracle(a)[0])),
            Command("decompose", ("decompose", pa), decompose_check(a)),
            Command("compose_re", ("re", pa, pb), functoriality_check(a, b)),
        ),
        warmup=("re", warm),
        shapes={"A": {"X": len(a.xs), "Y": len(a.ys), "bytes": len(a_text.encode())},
                "B": {"Y": len(b.xs), "Z": len(b.ys), "bytes": len(b.text().encode())}},
    )


def forecast_inputs(seed: int, smoke: bool = False) -> inputs.ForecastLog:
    rng = random.Random(f"forecast-{seed}")
    return inputs.forecast_log(rng, 4, 20) if smoke else inputs.forecast_log(rng)


def _scoring_commands(seed: int, work: Path, smoke: bool) -> Workload:
    log = forecast_inputs(seed, smoke)
    cond = conditional_doc(seed, smoke)
    log_text = log.text()
    plog = _write(work, "forecast_log.txt", log_text)
    ptruth = _write(work, "truth.txt", log.truth_text())
    pcond = _write(work, "conditional.txt", cond.text())
    tiny = inputs.forecast_log(random.Random(f"warmup-{seed}"), 2, 5)
    warm = _write(work, "forecast_warmup.txt", tiny.text())
    return Workload(
        "scoring",
        (
            Command("score_empirical", ("score", plog, "--mode", "empirical"), empirical_check(log)),
            Command("score_sequential", ("score", plog, "--mode", "sequential", "--truth", ptruth),
                    sequential_check(log)),
            Command("score_conditional", ("score", pcond, "--mode", "conditional"),
                    decompose_check(cond, label="score", prefix="scenario ", cross=False)),
        ),
        warmup=("score", warm, "--mode", "empirical"),
        shapes={"log": {"records": len(log.records), "outcomes": len(log.outcomes),
                        "bytes": len(log_text.encode())},
                "conditional": {"X": len(cond.xs), "Y": len(cond.ys)}},
    )


def finite_layer(seed: int, work: Path, smoke: bool = False) -> Workload:
    """The morphism commands (a few large objects) and the scoring commands
    (about 10k tiny objects) in one pass: both run documents, finite,
    pairs and entropy, so a change that trades one shape for the other
    shows in their per-command times."""
    morph, scores = _morphism_commands(seed, work, smoke), _scoring_commands(seed, work, smoke)
    return Workload("finite-layer", morph.commands + scores.commands, warmup=morph.warmup,
                    shapes={**morph.shapes, **scores.shapes})


WORKLOADS = {"kl-ladder": kl_ladder, "finite-layer": finite_layer}


# ---------------------------------------------------------------------------
# error-path probes: every input must end in a result or a typed error with
# exit code 0-4, never a traceback, a NaN or an out-of-memory kill


@dataclass(frozen=True)
class Probe:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int | None, str, str], bool]   # (exit code, stdout, stderr)
    capped: bool = False                            # run in a child under an address-space cap


def _typed(code: int):
    return lambda c, out, err: c == code and "Traceback" not in err and err.startswith(("error:", "parse error:"))


def _clean_end(c, out, err):
    return c in (0, 1, 3) and "Traceback" not in err and "nan" not in out and (c != 1 or "error:" in err)


PROBE_TEXTS = {
    "malformed.txt": "morphism v1\nspace X a b\nspace Y u\nmap a u\nmap b u\np a 1/2x\np b 1/2\ns u a 1\n",
    # the row over u puts mass on c, which f sends to v
    "incoherent.txt": ("morphism v1\nspace X a b c\nspace Y u v\nmap a u\nmap b u\nmap c v\n"
                       "p a 1/4\np b 1/4\np c 1/2\ns u a 1/2\ns u c 1/2\ns v c 1\n"),
    # rounds 1 and 2 give zero mass to an outcome the truth supports
    "inf_log.txt": ("forecast-log v1\noutcomes H T\nforecast 1 a H 1 0\nforecast 2 a T 1 0\n"
                    "forecast 3 a H 1/2 1/2\n"),
    "inf_truth.txt": "distribution v1\nspace H T\nmass H 1/2\nmass T 1/2\n",
}


def probes(work: Path) -> tuple[Probe, ...]:
    p = {name: _write(work, name, text) for name, text in PROBE_TEXTS.items()}
    return (
        Probe("unknown_model", ("estimate-kl", "nosuch", "1", "2"), _typed(1)),
        # known defect: a wrong parameter count escapes as a raw TypeError
        Probe("wrong_arity", ("estimate-kl", "gaussian", "0", "1", "1"), _typed(1)),
        # known defect: q underflows where r overflows; the panel arrays
        # grow until memory runs out.  The first level shows it.
        Probe("underflow", ("estimate-kl", "gaussian", "0", "1", "0", "0.1",
                            "--truncate", "-40", "40", "--nmax", "2"), _clean_end, capped=True),
        Probe("malformed", ("validate", p["malformed.txt"]), _typed(2)),
        Probe("incoherent", ("validate", p["incoherent.txt"]),
              lambda c, out, err: c == 1 and out.startswith("coherent: no\n") and "\nviolation: " in out),
        Probe("indeterminate", ("score", p["inf_log.txt"], "--mode", "sequential",
                                "--truth", p["inf_truth.txt"]), _typed(4)),
    )
