#!/usr/bin/env python3
"""kernelflow benchmark: two CLI workloads, output checks, error-path probes.

    python3 bench/run.py --workload kl-ladder --seed 1 --seconds 10 --trace 0

Run from the repository root (the program is imported from ./src).  One
process, one client, closed loop: each command starts after the previous
one returns, in-process through `kernelflow.cli.main` with stdout
captured.  With --trace 0 the run sets up (inputs, import, warm-up; three
times, median reported as setup_s), then repeats passes over the
workload's commands until --seconds have elapsed (at least one pass),
re-runs each command that took under MIN_COMMAND_S in total until it has
(so cheap commands get several samples), checks every output and that
repeated runs of a command print byte-identical stdout, and runs the
error-path probes.  With --trace 1 it makes the traced run
instead (see traced.py) and reports the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  `attempted`/`failed` count executions
of the workload's commands; probes count only in the fail_frac metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (bench/ on the path first)

SETUP_REPEATS = 3
PROBE_CAP_BYTES = 512 << 20     # address-space cap for probes that may exhaust memory
PROBE_TIMEOUT_S = 60
MIN_COMMAND_S = 1.0     # cheap commands are re-run until their samples add up to this
MAX_SAMPLES = 9


def load_cli():
    """Import kernelflow.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "kernelflow" / "cli.py").is_file():
        raise SystemExit(f"error: no kernelflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kernelflow.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "kernelflow").resolve():
        raise SystemExit(f"error: imported kernelflow from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Outcome:
    code: int | None        # None when main raised
    out: str
    err: str
    seconds: float


def run_cli(cli, argv) -> Outcome:
    """One CLI command in-process; an escaping exception is recorded, not raised.

    The previous command's garbage is collected first, outside the timing,
    so no command pays for another's.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:          # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:                  # noqa: BLE001 - a traceback is a failed command
        code = None
        err.write(traceback.format_exc())
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")


def run_capped(argv) -> Outcome:
    """One CLI command in a child process under an address-space cap and a timeout."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (PROBE_CAP_BYTES, PROBE_CAP_BYTES))

    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from kernelflow.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            cwd=ROOT, env=_child_env(), preexec_fn=cap, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:    # run() has killed and reaped the child
        return Outcome(None, "", f"timeout after {exc.timeout} s", time.perf_counter() - start)
    code = proc.returncode if proc.returncode >= 0 else None   # killed by a signal
    return Outcome(code, proc.stdout, proc.stderr, time.perf_counter() - start)


def time_child_import() -> None:
    subprocess.run([sys.executable, "-c", "import kernelflow.cli"], cwd=ROOT, env=_child_env(), check=True)


def setup(name: str, seed: int, cli, smoke: bool = False):
    """Inputs, a fresh-interpreter import and a warm-up command, SETUP_REPEATS
    times; returns the last workload, the probes and the median set-up time."""
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        time_child_import()
        wl = workloads.WORKLOADS[name](seed, work, smoke)
        probes = workloads.probes(work)
        run_cli(cli, wl.warmup)
        samples.append(time.perf_counter() - start)
    return wl, probes, statistics.median(samples)


def command_problems(cmd, res: Outcome, first: Outcome | None) -> list[str]:
    problems = []
    if res.code is None or "Traceback" in res.err:
        problems.append("uncaught exception")
    problems += cmd.check(res.code, res.out)
    if first is not None and res.out != first.out:
        problems.append("stdout differs from the first run")
    return problems


def run_pass(cli, wl) -> dict[str, Outcome]:
    return {cmd.name: run_cli(cli, cmd.argv) for cmd in wl.commands}


def run_probes(cli, probes) -> dict[str, bool]:
    """Probe name -> passed."""
    results = {}
    for probe in probes:
        res = run_capped(probe.argv) if probe.capped else run_cli(cli, probe.argv)
        results[probe.name] = res.code is not None and probe.check(res.code, res.out, res.err)
    return results


def timed_run(cli, wl, probes, seconds: float):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        row = run_pass(cli, wl)
        passes.append((time.perf_counter() - t0, row))
    samples = {cmd.name: [row[cmd.name] for _, row in passes] for cmd in wl.commands}
    for cmd in wl.commands:     # top up cheap commands so their medians settle
        runs = samples[cmd.name]
        while sum(r.seconds for r in runs) < MIN_COMMAND_S and len(runs) < MAX_SAMPLES:
            runs.append(run_cli(cli, cmd.argv))
    problems: dict[str, list[str]] = {}
    attempted = failed = 0
    for cmd in wl.commands:
        runs = samples[cmd.name]
        found = [command_problems(cmd, res, runs[0] if i else None) for i, res in enumerate(runs)]
        attempted += len(runs)
        failed += sum(bool(f) for f in found)
        if any(found):
            problems[cmd.name] = sorted({p for f in found for p in f})
    probe_ok = run_probes(cli, probes)
    bad_probes = sum(not ok for ok in probe_ok.values())
    metrics = {
        "pass_s": (statistics.median(t for t, _ in passes), "s"),
        "fail_frac": ((len(problems) + bad_probes) / (len(wl.commands) + len(probe_ok)), "frac"),
    }
    details = {
        "passes": len(passes),
        "command_s": {name: statistics.median(r.seconds for r in runs) for name, runs in samples.items()},
        "samples": {name: [round(r.seconds, 4) for r in runs] for name, runs in samples.items()},
        "pass_times": [round(t, 4) for t, _ in passes],
        "problems": problems,
        "probes": probe_ok,
    }
    return metrics, attempted, failed, details


def git_commit() -> str:
    if not (ROOT / ".git").exists():    # an exported checkout: do not report an enclosing repo
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "commit": git_commit(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def emit(meta: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({"meta": meta}, sort_keys=True, default=str))
    (WORK / f"result-{meta['workload']}-{meta['seed']}-trace{meta['trace']}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics}, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    cli = load_cli()
    WORK.mkdir(exist_ok=True)
    meta = metadata(args)
    if args.trace:
        import traced

        correct, attempted, failed, metrics, details = traced.run(cli, args.seed, args.smoke)
        meta.update(details)
    else:
        wl, probes, setup_s = setup(args.workload, args.seed, cli, args.smoke)
        gc.freeze()     # the inputs and oracles stay live; keep them out of the commands' collections
        metrics, attempted, failed, details = timed_run(cli, wl, probes, args.seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        correct = failed == 0
        meta.update(details, shapes=wl.shapes)
    emit(meta, correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
