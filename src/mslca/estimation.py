"""Empirical covariance blocks and the sample version of the canonical analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blocks import BlockStructure
from .exceptions import CovarianceOverflowError, InsufficientSampleError
from .population import (
    CovarianceModel,
    MslcaSolution,
    _off_block_mass,
    _solve,
    _valid_covariances,
)


@dataclass(frozen=True)
class Dataset:
    """An i.i.d. sample of the stacked vector, one observation per row.

    Rows conform to ``structure`` (q columns); non-finite entries are a hard
    ingestion error. Operations that need a covariance additionally require
    n >= 2 and raise InsufficientSampleError below that.
    """

    structure: BlockStructure
    rows: np.ndarray

    def __init__(self, structure: BlockStructure, rows: np.ndarray):
        self._adopt(structure, np.array(rows, dtype=float))

    @classmethod
    def _from_fresh(cls, structure: BlockStructure, rows: np.ndarray) -> "Dataset":
        """Wrap a float array the package has just built, without copying it.

        Same checks as the constructor; the array becomes read-only, so the
        caller must hold no other use for it.
        """
        data = object.__new__(cls)
        data._adopt(structure, rows)
        return data

    def _adopt(self, structure: BlockStructure, rows: np.ndarray) -> None:
        if rows.ndim != 2 or rows.shape[1] != structure.total_dim:
            raise ValueError(
                f"rows must have shape (n, {structure.total_dim}), got {rows.shape}"
            )
        if rows.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if not np.isfinite(rows).all():
            bad = np.argwhere(~np.isfinite(rows))[0]
            raise ValueError(f"non-finite entry at row {bad[0]}, column {bad[1]}")
        rows.flags.writeable = False
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class MslcaFit:
    """Empirical analysis of one dataset, which it keeps as ``data``.

    ``vhat`` is the empirical covariance, with divisor n (not n - 1).
    ``that`` is the estimated operator, whose diagonal blocks are exactly
    zero by construction, and ``s`` its non-correlation statistic, the summed
    squared entries of the lower off-diagonal blocks of ``that``. ``inv_root``
    is Phi^{-1/2}, the read-only block-diagonal matrix whose diagonal blocks
    are the inverse square roots of those of ``vhat``; ``whitened`` is
    ``data`` centred by ``means`` and mapped through it. The non-correlation
    tests therefore take only the fit: their moments come from its
    ``whitened`` sample.
    """

    data: Dataset = field(repr=False)
    means: np.ndarray
    vhat: CovarianceModel
    that: np.ndarray
    solution: MslcaSolution
    inv_root: np.ndarray
    s: float

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def structure(self) -> BlockStructure:
        return self.vhat.structure

    @cached_property
    def whitened(self) -> Dataset:
        """The fitted sample centred by ``means`` and mapped through ``inv_root``.

        Built on first use and kept, read-only. Its within-block covariances
        are the identity, the standing normalization of the asymptotic theory.
        """
        return Dataset._from_fresh(self.structure, (self.data.rows - self.means) @ self.inv_root)


def _means_and_covs(datasets: list[Dataset]) -> tuple[np.ndarray, np.ndarray]:
    """Column means (R, q) and divisor-n covariances (R, q, q) of same-shape samples.

    Each sample is copied transposed into one C-ordered (R, q, n) stack, so
    every column is one contiguous row: its mean is numpy's pairwise sum along
    that row, more accurate than a running sum down the rows, and the
    covariances are one batched product of the centred rows with their
    transposes. Each row reduction and product acts on one sample's matrix
    alone, so a sample gets the same bits in any stack.

    A constant column, one whose centred entries are all equal, gets zero
    variance and covariances, whatever its mean's round-off leaves there, so
    its block is singular at any block size. Raises CovarianceOverflowError
    when a covariance leaves the float range: large entries overflow it, tiny
    ones make a variance subnormal (imprecise) or zero in a column that is not
    constant.
    """
    centered = np.array([data.rows.T for data in datasets])
    n = centered.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):
        means = centered.mean(axis=2)
        centered -= means[:, :, None]
        covs = centered @ centered.swapaxes(1, 2) / n
        # a constant column's variance is its mean's squared round-off, at most this
        constant_bound = (2.0 * n * np.finfo(float).eps * means) ** 2
    if not np.isfinite(covs).all():
        raise CovarianceOverflowError(
            "the sample covariance overflows the float range; rescale the data"
        )
    variances = np.diagonal(covs, axis1=1, axis2=2)
    underflow = variances < np.finfo(float).tiny
    if (variances <= constant_bound).any():
        constant = np.ptp(centered, axis=2) == 0.0
        underflow &= ~constant
        covs[constant[:, :, None] | constant[:, None, :]] = 0.0
    if underflow.any():
        raise CovarianceOverflowError(
            "the sample covariance underflows the float range; rescale the data"
        )
    return means, covs


def _fit_stack(datasets: list[Dataset]) -> list[MslcaFit]:
    """Fit samples of one structure and size together, one fit per sample in order.

    The samples are copied transposed into one (R, q, n) array, so each
    column's pairwise mean runs along a contiguous row: one centering, one
    matrix product for the R covariances and one eigensolve per block and for
    T, each over the whole stack. Every fit's arrays are read-only views into
    the stacks, and each equals, bit for bit, the fit of its sample alone.
    """
    structure = datasets[0].structure
    means, covs = _means_and_covs(datasets)
    covs = _valid_covariances(covs)
    that, solutions, inv_root = _solve(structure, covs)
    means.flags.writeable = False
    return [
        MslcaFit(
            data=datasets[i],
            means=means[i],
            vhat=CovarianceModel._of_valid(structure, covs[i]),
            that=that[i],
            solution=solutions[i],
            inv_root=inv_root[i],
            s=s,
        )
        for i, s in enumerate(_off_block_mass(structure, that).tolist())
    ]


def fit_mslca(data: Dataset) -> MslcaFit:
    """Run the population pipeline on the empirical covariance.

    Deterministic given the data; it takes no tuning. Raises
    NearSingularError naming the block whose sample covariance is numerically
    singular (lambda_min <= 1e-10 * lambda_max, collinear columns), and
    InsufficientSampleError for n < 2. The solution's eigenvalue groups use
    the fixed tolerance of ``MslcaSolution``.
    """
    if data.n < 2:
        raise InsufficientSampleError(f"need at least 2 rows, got {data.n}")
    return _fit_stack([data])[0]


def align_sign(bhat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flip ``bhat`` so its inner product with the reference ``b`` is nonnegative.

    sign(0) counts as +1, so an orthogonal estimate is returned unchanged.
    """
    bhat = np.asarray(bhat, dtype=float)
    b = np.asarray(b, dtype=float)
    if bhat.shape != b.shape:
        raise ValueError(f"shape mismatch: {bhat.shape} vs {b.shape}")
    return -bhat if float(bhat @ b) < 0.0 else bhat.copy()


def whiten(data: Dataset) -> Dataset:
    """Center and transform each block by its inverse covariance square root.

    The output's empirical within-block covariances are the identity, which
    is the standing normalization of the asymptotic theory. Uses the
    symmetric inverse square root so the transform commutes with orthogonal
    changes of block basis. This is ``fit_mslca(data).whitened``.
    """
    return fit_mslca(data).whitened
