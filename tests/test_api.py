"""The package's public names, pinned so that any change to them is a
deliberate edit of this list, and its import path, which loads numpy only
for the estimator."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kernelflow
from test_documents_cli import COIN_DOC, COLLAPSE_DOC, FORECAST_LOG, TRUTH_DOC

PUBLIC_NAMES = [
    "CoherentPair",
    "DensityModel",
    "DocumentParseError",
    "DomainMismatchError",
    "FiniteDistribution",
    "FiniteSpace",
    "ForecastRecord",
    "FunctorialityCheck",
    "IncoherentPairError",
    "IndeterminateScoreError",
    "IntegrationToleranceError",
    "IntegratorSpec",
    "KernelflowError",
    "KlTrace",
    "LocalReDecomposition",
    "PartitionLevel",
    "ReValue",
    "ScoreReport",
    "StochasticKernel",
    "bin_masses",
    "check_functoriality",
    "check_lsc_on_sequence",
    "compose_pairs",
    "convex_decompose",
    "deterministic_kernel",
    "dirac",
    "discretized_kl",
    "disintegrate",
    "disintegration_pair",
    "empirical_log_score",
    "estimate_kl",
    "exponential_kl",
    "exponential_model",
    "flatten",
    "gaussian_kl",
    "gaussian_model",
    "identity_pair",
    "is_absolutely_coherent",
    "is_optimal",
    "kernel_apply",
    "kl_score",
    "kleisli_compose",
    "piecewise_constant_model",
    "properness_audit",
    "pushforward",
    "re_fin",
    "sequential_scores",
    "singleton_pair",
    "uniform",
    "uniform_pair_model",
    "validate_coherent",
]


def test_public_names_are_pinned():
    # the estimator's names resolve lazily, so they are not in vars(); and
    # submodules become attributes of the package once imported, whichever
    # test imports them first, so they are not part of the list
    public = sorted(
        name
        for name in dir(kernelflow)
        if not name.startswith("_") and not inspect.ismodule(getattr(kernelflow, name))
    )
    assert public == PUBLIC_NAMES


def test_unknown_names_and_submodules():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kernelflow.no_such_name
    from kernelflow import borel

    assert inspect.ismodule(borel) and borel.__name__ == "kernelflow.borel"


COLD_START = """\
import sys

import kernelflow
import kernelflow.cli

doc, collapse, log, truth = sys.argv[1:]
argvs = (["validate", doc], ["re", doc], ["re", doc, collapse], ["decompose", doc],
         ["score", log, "--mode", "empirical"], ["score", log, "--mode", "sequential", "--truth", truth],
         ["score", doc, "--mode", "conditional"])
codes = [kernelflow.cli.main(argv) for argv in argvs]
exact_layer = "numpy" in sys.modules
from kernelflow import estimate_kl, gaussian_model

print("exit codes", codes, "numpy loaded", exact_layer, "numpy" in sys.modules)
"""


def test_exact_layer_starts_without_numpy(tmp_path):
    # a fresh interpreter: this one has long since imported numpy
    files = {"coin.txt": COIN_DOC, "collapse.txt": COLLAPSE_DOC,
             "log.txt": FORECAST_LOG, "truth.txt": TRUTH_DOC}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    src = str(Path(kernelflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, *(str(tmp_path / name) for name in files)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    # numpy absent after the exact-layer commands, present after the estimator import
    assert proc.stdout.splitlines()[-1] == "exit codes [0, 0, 0, 0, 0, 0, 0] numpy loaded False True"


def test_exact_layer_tests_import_no_numpy():
    # the shared helpers and the four exact-layer test files must run on an
    # interpreter without numpy: importing them loads neither numpy nor the
    # estimator
    src = str(Path(kernelflow.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])}
    script = ("import sys, helpers, test_finite, test_pairs, test_entropy, test_scoring; "
              "print('numpy' in sys.modules, 'kernelflow.borel' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"
