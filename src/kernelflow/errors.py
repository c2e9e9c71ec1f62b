"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations


class KernelflowError(Exception):
    """Base class for all kernelflow errors."""


class DomainMismatchError(KernelflowError):
    """Spaces, maps or supports do not line up as required.  point is the
    label at fault where a caller reads one (a mass outside the space, a
    map's bad point, a kernel's missing or first unknown row), else None."""

    def __init__(self, message: str, point: str | None = None):
        super().__init__(message)
        self.point = point


class IncoherentPairError(KernelflowError):
    """A coherent pair was required but validation failed."""

    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = violations


class IndeterminateScoreError(KernelflowError):
    """An increment of the form inf - inf was encountered."""

    def __init__(self, message: str, positions: tuple = ()):
        super().__init__(message)
        self.positions = positions


class IntegrationToleranceError(KernelflowError):
    """The integrator could not meet its requested tolerance.

    partial is None when bin_masses raised it.  When estimate_kl raised
    it, partial is the KlTrace of the levels it finished before the one
    that failed (no levels when level 1 failed).
    """

    partial = None


class DocumentParseError(KernelflowError):
    """A text document is malformed; carries the offending line."""

    def __init__(self, message: str, line: int):
        # every message keeps the "line N, column 1: " prefix readers match on
        super().__init__(f"line {line}, column 1: {message}")
        self.line = line
