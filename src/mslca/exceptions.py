"""Exception types shared across the package."""

from __future__ import annotations


class MslcaError(Exception):
    """Base class for all package-specific errors."""


class NearSingularError(MslcaError):
    """A matrix required to be (block) positive definite is numerically singular.

    Carries the offending eigenvalue range and, when known, the index of the
    block whose covariance failed the conditioning check.
    """

    def __init__(self, lambda_min: float, lambda_max: float, block: int | None = None):
        self.lambda_min = float(lambda_min)
        self.lambda_max = float(lambda_max)
        self.block = block
        where = "matrix" if block is None else f"block {block}"
        super().__init__(
            f"near-singular {where}: lambda_min={self.lambda_min:.3e}, "
            f"lambda_max={self.lambda_max:.3e}"
        )


class RepeatedEigenvaluesError(MslcaError):
    """An operation requiring a simple spectrum met a repeated eigenvalue."""


class NegativeWeightError(MslcaError):
    """A weighted chi-square mixture received a significantly negative weight."""


class NuTooSmallError(MslcaError):
    """Student-t degrees of freedom too small for finite fourth moments (need nu > 4)."""


class InsufficientSampleError(MslcaError):
    """Sample size below the minimum required by the requested operation."""


class CovarianceOverflowError(MslcaError):
    """A sample of finite entries whose covariance leaves the float range."""


class PlanPreconditionError(MslcaError):
    """A simulation plan parsed correctly but violates a precondition."""
