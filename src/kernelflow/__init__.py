"""Exact finite probability kernels, a relative-entropy functor with
executable laws, a partition-refinement KL estimator for real-line
densities, and proper scoring of probabilistic forecasts.

Only the estimator (`kernelflow.borel`, the `estimate-kl` command) needs
numpy.  Its names below are resolved on first use, so importing the
package or running an exact-layer command does not load numpy."""

from .entropy import (
    FunctorialityCheck,
    LocalReDecomposition,
    ReValue,
    check_functoriality,
    check_lsc_on_sequence,
    convex_decompose,
    re_fin,
)
from .errors import (
    DocumentParseError,
    DomainMismatchError,
    IncoherentPairError,
    IndeterminateScoreError,
    IntegrationToleranceError,
    KernelflowError,
)
from .finite import (
    FiniteDistribution,
    FiniteSpace,
    StochasticKernel,
    deterministic_kernel,
    dirac,
    disintegrate,
    flatten,
    kernel_apply,
    kleisli_compose,
    pushforward,
    uniform,
)
from .pairs import (
    CoherentPair,
    compose_pairs,
    disintegration_pair,
    identity_pair,
    is_absolutely_coherent,
    is_optimal,
    singleton_pair,
    validate_coherent,
)
from .scoring import (
    ForecastRecord,
    ScoreReport,
    empirical_log_score,
    kl_score,
    properness_audit,
    sequential_scores,
)

__version__ = "0.1.0"

# the estimator's public names, imported from .borel on first access
_BOREL_NAMES = (
    "DensityModel",
    "IntegratorSpec",
    "KlTrace",
    "PartitionLevel",
    "bin_masses",
    "discretized_kl",
    "estimate_kl",
    "exponential_kl",
    "exponential_model",
    "gaussian_kl",
    "gaussian_model",
    "piecewise_constant_model",
    "uniform_pair_model",
)


def __getattr__(name):
    if name in _BOREL_NAMES:
        from . import borel
        return getattr(borel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_BOREL_NAMES})
