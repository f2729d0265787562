"""Block-structured vector/matrix algebra and symmetric spectral primitives.

A block structure partitions the coordinates of R^q into consecutive groups
(one per variable set). Vectors are plain 1-d numpy arrays of length q and
matrices plain (q, q) arrays; the structure object supplies offsets, slices
and block iteration so callers never hand-compute index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import NearSingularError

DEFAULT_COND_FLOOR = 1e-10
SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class BlockStructure:
    """Partition of R^q into consecutive blocks of sizes ``dims``."""

    dims: tuple[int, ...]

    def __init__(self, dims) -> None:
        object.__setattr__(self, "dims", tuple(int(p) for p in dims))
        if len(self.dims) < 2:
            raise ValueError("need at least 2 blocks")
        if any(p < 1 for p in self.dims):
            raise ValueError(f"block sizes must be >= 1, got {self.dims}")

    @property
    def n_blocks(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(int(o) for o in np.concatenate([[0], np.cumsum(self.dims)[:-1]]))

    def offset(self, k: int) -> int:
        return self.offsets[k]

    def block_slice(self, k: int) -> slice:
        if not 0 <= k < self.n_blocks:
            raise IndexError(f"block index {k} out of range [0, {self.n_blocks})")
        return slice(self.offsets[k], self.offsets[k] + self.dims[k])

    def split(self, v: np.ndarray) -> list[np.ndarray]:
        """Views of the per-block components of a length-q vector."""
        v = np.asarray(v)
        if v.shape != (self.total_dim,):
            raise ValueError(f"expected vector of length {self.total_dim}, got shape {v.shape}")
        return [v[self.block_slice(k)] for k in range(self.n_blocks)]

    def lower_pairs(self) -> list[tuple[int, int]]:
        """Off-diagonal block pairs (k, l) with l < k, ordered (1,0),(2,0),(2,1),..."""
        return [(k, l) for k in range(1, self.n_blocks) for l in range(k)]

    def ordered_pairs(self) -> list[tuple[int, int]]:
        """All ordered off-diagonal block pairs (k, l), k != l."""
        return [
            (k, l)
            for k in range(self.n_blocks)
            for l in range(self.n_blocks)
            if k != l
        ]


def extract_block(a: np.ndarray, structure: BlockStructure, k: int, l: int) -> np.ndarray:
    """Return a copy of the (k, l) sub-block of a (q, q) matrix."""
    a = np.asarray(a)
    q = structure.total_dim
    if a.shape != (q, q):
        raise ValueError(f"expected ({q}, {q}) matrix, got shape {a.shape}")
    return a[structure.block_slice(k), structure.block_slice(l)].copy()


def embed_block(b: np.ndarray, structure: BlockStructure, k: int, l: int) -> np.ndarray:
    """Return the (q, q) matrix that is zero except for block (k, l) = ``b``."""
    b = np.asarray(b, dtype=float)
    expected = (structure.dims[k], structure.dims[l])
    if b.shape != expected:
        raise ValueError(f"block ({k}, {l}) must have shape {expected}, got {b.shape}")
    out = np.zeros((structure.total_dim, structure.total_dim))
    out[structure.block_slice(k), structure.block_slice(l)] = b
    return out


def require_symmetric(a: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate symmetry of ``a`` within rtol*(1+max|a|), then return (a+a.T)/2.

    Symmetrizing after the check kills round-off accumulation without masking
    genuinely asymmetric inputs.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = 1.0 + (np.abs(a).max() if a.size else 0.0)
    gap = np.abs(a - a.T).max() if a.size else 0.0
    if gap > rtol * scale:
        raise ValueError(f"matrix is not symmetric: max|A - A^T| = {gap:.3e}")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class SymmetricEig:
    """Full eigendecomposition with deterministic order and sign.

    Eigenvalues are nonincreasing; column j of ``eigenvectors`` pairs with
    ``eigenvalues[j]``. In every eigenvector the entry of largest absolute
    value is positive (first such entry on ties), so repeated runs and
    downstream estimators are reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(a: np.ndarray) -> SymmetricEig:
    """Eigendecomposition of a symmetric matrix with deterministic conventions.

    Raises ``ValueError`` for non-symmetric input and propagates
    ``numpy.linalg.LinAlgError`` if the underlying solver fails to converge.
    """
    a = require_symmetric(a)
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    lead = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1.0
    values.flags.writeable = False
    vectors.flags.writeable = False
    return SymmetricEig(eigenvalues=values, eigenvectors=vectors)


def sym_power(
    a: np.ndarray, exponent: float, cond_floor: float = DEFAULT_COND_FLOOR
) -> np.ndarray:
    """Symmetric functional calculus: Q diag(lambda**exponent) Q^T.

    Intended for exponents -1, -1/2 and 1/2 on positive definite input.
    Raises NearSingularError when lambda_min <= cond_floor * lambda_max;
    a near-singular block covariance signals collinear data and must surface
    as an error rather than silently inflate an inverse square root.
    ``cond_floor`` must lie in [0, 1) (ValueError otherwise): a negative or
    NaN floor would switch the guard off.
    """
    if not 0.0 <= cond_floor < 1.0:
        raise ValueError(f"cond_floor must lie in [0, 1), got {cond_floor}")
    eig = sym_eig(a)
    lam_min = float(eig.eigenvalues[-1])
    lam_max = float(eig.eigenvalues[0])
    if lam_min <= cond_floor * lam_max:
        raise NearSingularError(lam_min, lam_max)
    powered = (eig.eigenvectors * eig.eigenvalues**exponent) @ eig.eigenvectors.T
    return 0.5 * (powered + powered.T)


def psd_sqrt(a: np.ndarray, neg_rtol: float = 1e-10) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues in [-neg_rtol * lambda_max, 0) are clamped to zero (round-off
    on a singular PSD matrix); anything more negative raises ValueError.
    Unlike ``sym_power`` this accepts singular input, as needed for sampling
    from degenerate covariance models.
    """
    eig = sym_eig(a)
    lam_max = max(float(eig.eigenvalues[0]), 0.0)
    floor = -neg_rtol * (1.0 + lam_max)
    if float(eig.eigenvalues[-1]) < floor:
        raise ValueError(
            f"matrix is not positive semidefinite: lambda_min = {eig.eigenvalues[-1]:.3e}"
        )
    clamped = np.clip(eig.eigenvalues, 0.0, None)
    root = (eig.eigenvectors * np.sqrt(clamped)) @ eig.eigenvectors.T
    return 0.5 * (root + root.T)


def frobenius_sq(b: np.ndarray) -> float:
    """Sum of squared entries, i.e. trace(B B^T)."""
    b = np.asarray(b, dtype=float)
    return float(np.sum(b * b))
