"""The package's public names, pinned so that any change to them is a
deliberate edit of this list."""

import inspect

import kernelflow

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
    # submodules become attributes of the package once imported, whichever
    # test imports them first, so they are not part of the list
    public = sorted(
        name
        for name, value in vars(kernelflow).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert public == PUBLIC_NAMES
