#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (a few seconds).

    python3 bench/selftest.py

Checks that every workload's timed run and the traced run emit exactly
the metrics BENCHMARK.json names, each with its declared unit and a
correct result; that a deliberately perturbed stdout fails each
command's check; and that a stdout differing from the first run fails
the byte-identity check.  Exits 1 on the first kind of mismatch found.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

_VALUE = re.compile(r"(= |: )(-?\d+\.)(\d)(\d)")


def perturb(out: str) -> str:
    """Move the second decimal of the first printed value by 5, or flip a verdict."""
    m = _VALUE.search(out)
    if m:
        digit = str((int(m[4]) + 5) % 10)
        return out[: m.start(4)] + digit + out[m.end(4):]
    if "yes" in out:
        return out.replace("yes", "no", 1)
    return out + "extra line\n"


def result_of(argv) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *argv, "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: run.py {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(label: str, result: dict, declared: list[dict]) -> list[str]:
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if set(got) != set(want):
        problems.append(f"{label}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    problems += [f"{label}: {k} has unit {got[k]}, declared {u}" for k, u in want.items() if k in got and got[k] != u]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        res = result_of(["--workload", wl["name"], "--seed", "5", "--seconds", "0.2", "--trace", "0"])
        problems += check_metrics(wl["name"], res, spec["end_to_end"])
    res = result_of(["--workload", spec["workloads"][0]["name"], "--seed", "5", "--trace", "1"])
    problems += check_metrics("traced", res, spec["per_layer"])

    cli = run.load_cli()
    work = run.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    for name, build in workloads.WORKLOADS.items():
        wl = build(5, work, smoke=True)
        for cmd, res in zip(wl.commands, run.run_pass(cli, wl).values()):
            if run.command_problems(cmd, res, None):
                problems.append(f"{name}/{cmd.name}: clean output flagged")
            bad = run.Outcome(res.code, perturb(res.out), res.err, res.seconds)
            if bad.out == res.out or not cmd.check(bad.code, bad.out):
                problems.append(f"{name}/{cmd.name}: perturbed stdout not caught")
            if not run.command_problems(cmd, res, bad):
                problems.append(f"{name}/{cmd.name}: stdout differing from the first run not caught")
    for line in problems:
        print("FAIL:", line)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
