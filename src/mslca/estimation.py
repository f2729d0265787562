"""Empirical covariance blocks and the sample version of the canonical analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import DEFAULT_COND_FLOOR, BlockStructure
from .exceptions import InsufficientSampleError
from .population import (
    DEFAULT_GROUP_TOL,
    CovarianceModel,
    MslcaSolution,
    _block_inv_sqrts,
    _solve,
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

    def block_columns(self, k: int) -> np.ndarray:
        return self.rows[:, self.structure.block_slice(k)]


@dataclass(frozen=True)
class MslcaFit:
    """Empirical analysis of one dataset.

    ``that`` is the estimated operator, whose diagonal blocks are exactly
    zero by construction. ``inv_roots`` holds the inverse square root of each
    diagonal block of ``vhat``; with ``means`` it whitens the fitted data, so
    the tests reuse it instead of decomposing the blocks again.
    """

    n: int
    means: np.ndarray
    vhat: CovarianceModel
    that: np.ndarray
    solution: MslcaSolution
    inv_roots: tuple[np.ndarray, ...]

    @property
    def structure(self) -> BlockStructure:
        return self.vhat.structure


def _require_rows(data: Dataset, minimum: int = 2) -> None:
    if data.n < minimum:
        raise InsufficientSampleError(f"need at least {minimum} rows, got {data.n}")


def center(data: Dataset) -> tuple[Dataset, np.ndarray]:
    """Subtract column means; returns the centered data and the means."""
    _require_rows(data)
    means = data.rows.mean(axis=0)
    return Dataset._from_fresh(data.structure, data.rows - means), means


def empirical_cov(data: Dataset) -> CovarianceModel:
    """Covariance with divisor n (not n-1), assembled over all blocks at once."""
    _require_rows(data)
    centered = data.rows - data.rows.mean(axis=0)
    vhat = centered.T @ centered / data.n
    return CovarianceModel(data.structure, vhat)


def fit_mslca(
    data: Dataset,
    group_tol: float = DEFAULT_GROUP_TOL,
    cond_floor: float = DEFAULT_COND_FLOOR,
) -> MslcaFit:
    """Run the population pipeline on the empirical covariance.

    Deterministic given the data. Raises NearSingularError naming the block
    whose sample covariance is numerically singular (collinear columns), and
    InsufficientSampleError for n < 2.
    """
    _require_rows(data)
    means = data.rows.mean(axis=0)
    vhat = empirical_cov(data)
    that, solution, inv_roots = _solve(vhat, group_tol, cond_floor)
    return MslcaFit(
        n=data.n,
        means=means,
        vhat=vhat,
        that=that,
        solution=solution,
        inv_roots=tuple(inv_roots),
    )


def align_sign(bhat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flip ``bhat`` so its inner product with the reference ``b`` is nonnegative.

    sign(0) counts as +1, so an orthogonal estimate is returned unchanged.
    """
    bhat = np.asarray(bhat, dtype=float)
    b = np.asarray(b, dtype=float)
    if bhat.shape != b.shape:
        raise ValueError(f"shape mismatch: {bhat.shape} vs {b.shape}")
    return -bhat if float(bhat @ b) < 0.0 else bhat.copy()


def _whiten_with(data: Dataset, means: np.ndarray, inv_roots) -> Dataset:
    """Center by ``means`` and map each block through its inverse root."""
    centered = data.rows - means
    out = np.empty_like(centered)
    for k, root in enumerate(inv_roots):
        sl = data.structure.block_slice(k)
        out[:, sl] = centered[:, sl] @ root
    return Dataset._from_fresh(data.structure, out)


def whiten(data: Dataset, cond_floor: float = DEFAULT_COND_FLOOR) -> Dataset:
    """Center and transform each block by its inverse covariance square root.

    The output's empirical within-block covariances are the identity, which
    is the standing normalization of the asymptotic theory. Uses the
    symmetric inverse square root so the transform commutes with orthogonal
    changes of block basis.
    """
    _require_rows(data)
    inv_roots = _block_inv_sqrts(empirical_cov(data), cond_floor)
    return _whiten_with(data, data.rows.mean(axis=0), inv_roots)
