"""Test of mutual non-correlation between the variable sets.

The statistic is the summed squared Frobenius mass of the off-diagonal
blocks of the estimated canonical operator; it vanishes exactly when every
cross-covariance block does. Two calibrations of n times the statistic are
provided: a chi-square law with an elliptical kurtosis scale, and the
general weighted chi-square law driven by estimated fourth moments. Both
read fourth moments of one sample, whitened with the fit's own means and
block roots, so each test takes only the fit and reads its ``whitened``
``Dataset``, which the fit builds once and keeps. The statistic itself is
``MslcaFit.s``. ``_ROUTES`` maps each method name to its route; the CLI, the
simulation plans and their records read the route set from it alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .blocks import BlockStructure, _real
from .estimation import MslcaFit
from .asymptotics import (
    TAIL_ATOL,
    EigenChiSquareDist,
    _chi2_sf,
    _kurtosis_scale,
    build_gamma,
    quad_form_pvalue,
)

GAUSSIAN_SCALE = 1.0


@dataclass(frozen=True)
class TestReport:
    """Outcome of one non-correlation test.

    ``scale`` and ``scale_provenance`` describe the kurtosis factor applied
    on the chi-square route (``gaussian-default`` | ``plugin`` | ``user``);
    both are None on the general route, which estimates the full weight
    vector instead (reported in ``gamma_eigenvalues``). ``p_value_error_bound``
    is the guaranteed absolute error of the general route's p-value against
    the exact tail of its weighted chi-square law, and None on the chi-square
    route, whose p-value is the chi-square tail itself.
    """

    n: int
    d: int
    s: float
    ns: float
    method: str
    scale: float | None
    scale_provenance: str | None
    p_value: float
    alpha: float
    reject: bool
    gamma_eigenvalues: np.ndarray | None = None
    p_value_error_bound: float | None = None

    def to_dict(self) -> dict:
        """The report's fields, with ``s`` and ``ns`` as ``S`` and ``nS``."""
        report = {f.name: getattr(self, f.name) for f in fields(self)}
        report["S"], report["nS"] = report.pop("s"), report.pop("ns")
        if self.gamma_eigenvalues is not None:
            report["gamma_eigenvalues"] = list(self.gamma_eigenvalues)
        return report

    def summary_line(self) -> str:
        return f"nS={self.ns} d={self.d} p={self.p_value} reject={self.reject}"


def degrees_of_freedom(structure: BlockStructure) -> int:
    """Count of off-diagonal block entries tested, the order of Gamma.

    These are ``structure.cross_entries``: sum of p_k p_l over l < k.
    """
    return structure.cross_entries[0].size


def _resolve_scale(scale, fit: MslcaFit) -> tuple[float, str]:
    if scale == "gaussian":
        return GAUSSIAN_SCALE, "gaussian-default"
    if scale == "plugin":
        return _kurtosis_scale(fit.whitened), "plugin"
    value = _real(scale)
    if not 0 < value < math.inf:
        raise ValueError(f"scale must be a positive finite number, got {scale!r}")
    return value, "user"


def _report(fit: MslcaFit, d: int, alpha: float, tail, **route) -> TestReport:
    """The report of one route, whose ``tail`` maps nS = n * S to its p-value."""
    ns = fit.n * fit.s
    p_value = float(tail(ns))
    reject = bool(p_value < alpha)
    return TestReport(fit.n, d, fit.s, ns, p_value=p_value, alpha=alpha, reject=reject, **route)


def chi2_test(fit: MslcaFit, scale="gaussian", alpha: float = 0.05) -> TestReport:
    """Chi-square route: refer n*S / scale to chi-square with d degrees of freedom.

    ``scale`` is "gaussian" (factor 1), "plugin" (kurtosis estimated from
    ``fit.whitened``, which needs at least 30 rows), or an explicit positive
    finite float (a bool or any other string is refused). ``alpha`` is a
    number in (0, 1), here and in ``general_test``; a bool or a string is
    refused. Exact asymptotic level requires an elliptical population with
    the matching kurtosis scale.
    """
    if not 0 < _real(alpha) < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    scale_value, provenance = _resolve_scale(scale, fit)
    d = degrees_of_freedom(fit.structure)
    return _report(
        fit, d, alpha, lambda ns: _chi2_sf(d, ns / scale_value),
        method="chi2", scale=scale_value, scale_provenance=provenance,
    )


def general_test(fit: MslcaFit, alpha: float = 0.05) -> TestReport:
    """General route: weighted chi-square with weights from estimated fourth moments.

    Reads ``fit.whitened`` (block covariances the identity by construction),
    estimates the covariance of the stacked off-diagonal block entries
    without imposing the null on cross-moments (the estimate is consistent
    either way and converges to the right object under the null), and refers
    n*S to the weighted chi-square whose weights are that matrix's
    eigenvalues; ``EigenChiSquareDist`` clamps their round-off negatives. The
    p-value is deterministic and within ``TAIL_ATOL`` of the exact tail of
    that law (``quad_form_pvalue``).
    """
    if not 0 < _real(alpha) < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    d = degrees_of_freedom(fit.structure)
    if fit.n < 10 * d:
        warnings.warn(
            f"n = {fit.n} is small for estimating a {d}x{d} fourth-moment matrix "
            f"(recommended n >= {10 * d})",
            stacklevel=2,
        )
    dist = EigenChiSquareDist(np.linalg.eigvalsh(build_gamma(fit.whitened)))
    return _report(
        fit, d, alpha, lambda ns: quad_form_pvalue(dist, ns), method="general", scale=None,
        scale_provenance=None, gamma_eigenvalues=dist.weights, p_value_error_bound=TAIL_ATOL,
    )


# Method name -> route(fit, alpha, **options) -> TestReport. Each entry calls
# its test by its module-level name, so a rebound name reaches every caller.
_ROUTES = {
    "chi2": lambda fit, alpha, scale="gaussian": chi2_test(fit, scale, alpha),
    "general": lambda fit, alpha: general_test(fit, alpha),
}
