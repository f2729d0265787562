"""Block-structured vector/matrix algebra and symmetric spectral primitives.

A block structure partitions the coordinates of R^q into consecutive groups
(one per variable set). Vectors are plain 1-d numpy arrays of length q and
matrices plain (q, q) arrays; the structure object supplies offsets, slices
and block iteration so callers never hand-compute index arithmetic. The
symmetric primitives also take a stack of matrices (leading axes before the
last two) and treat each matrix exactly as they would treat it alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import NearSingularError

DEFAULT_COND_FLOOR = 1e-10
SYMMETRY_RTOL = 1e-12
PSD_NEG_RTOL = 1e-10


def _integer(value, name: str) -> int:
    """``value`` as an int; ValueError for a bool or anything that is not an integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class BlockStructure:
    """Partition of R^q into consecutive blocks of sizes ``dims``.

    Each size must be an integer (numpy integers included); a float such as
    1.9 or a bool is refused with ValueError rather than truncated.
    """

    dims: tuple[int, ...]

    def __init__(self, dims) -> None:
        object.__setattr__(self, "dims", tuple(_integer(p, "dims") for p in dims))
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


def extract_block(a: np.ndarray, structure: BlockStructure, k: int, l: int) -> np.ndarray:
    """Return a copy of the (k, l) sub-block of a (q, q) matrix."""
    a = np.asarray(a)
    q = structure.total_dim
    if a.shape != (q, q):
        raise ValueError(f"expected ({q}, {q}) matrix, got shape {a.shape}")
    return a[structure.block_slice(k), structure.block_slice(l)].copy()


def require_symmetric(a: np.ndarray) -> np.ndarray:
    """Validate symmetry of ``a`` within SYMMETRY_RTOL*(1+max|a|), then return (a+a.T)/2.

    ``a`` is a square matrix or a stack of them (shape (..., m, m)); each
    matrix is checked against its own scale. Symmetrizing after the check
    kills round-off accumulation without masking genuinely asymmetric inputs.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a_t = a.swapaxes(-1, -2)
    if a.size:
        scale = 1.0 + np.abs(a).max(axis=(-2, -1))
        gap = np.abs(a - a_t).max(axis=(-2, -1))
        bad = gap > SYMMETRY_RTOL * scale
        if bad.any():
            worst = np.ravel(gap)[np.flatnonzero(bad)[0]]
            raise ValueError(f"matrix is not symmetric: max|A - A^T| = {worst:.3e}")
    return 0.5 * (a + a_t)


@dataclass(frozen=True)
class SymmetricEig:
    """Full eigendecomposition with deterministic order and sign.

    Eigenvalues are nonincreasing; column j of ``eigenvectors`` pairs with
    ``eigenvalues[j]``. In every eigenvector the entry of largest absolute
    value is positive (first such entry on ties), so repeated runs and
    downstream estimators are reproducible. For a stack of matrices both
    arrays carry the stack's leading axes.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(a: np.ndarray) -> SymmetricEig:
    """Eigendecomposition of a symmetric matrix (or a stack) with deterministic conventions.

    Raises ``ValueError`` for non-symmetric input and propagates
    ``numpy.linalg.LinAlgError`` if the underlying solver fails to converge.
    """
    a = require_symmetric(a)
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    lead = np.argmax(np.abs(vectors), axis=-2)
    flip = np.take_along_axis(vectors, lead[..., None, :], axis=-2) < 0
    vectors = np.where(flip, -vectors, vectors)
    values.flags.writeable = False
    vectors.flags.writeable = False
    return SymmetricEig(eigenvalues=values, eigenvectors=vectors)


def sym_power(
    a: np.ndarray, exponent: float, cond_floor: float = DEFAULT_COND_FLOOR
) -> np.ndarray:
    """Symmetric functional calculus: Q diag(lambda**exponent) Q^T.

    Intended for exponents -1, -1/2 and 1/2 on positive definite input; a
    stack of matrices is powered matrix by matrix.
    Raises NearSingularError when lambda_min <= cond_floor * lambda_max
    (for a stack, naming the first such matrix);
    a near-singular block covariance signals collinear data and must surface
    as an error rather than silently inflate an inverse square root.
    ``cond_floor`` must lie in [0, 1) (ValueError otherwise): a negative or
    NaN floor would switch the guard off.
    """
    if not 0.0 <= cond_floor < 1.0:
        raise ValueError(f"cond_floor must lie in [0, 1), got {cond_floor}")
    eig = sym_eig(a)
    lam_min = eig.eigenvalues[..., -1]
    lam_max = eig.eigenvalues[..., 0]
    bad = np.ravel(lam_min <= cond_floor * lam_max)
    if bad.any():
        first = np.flatnonzero(bad)[0]
        raise NearSingularError(np.ravel(lam_min)[first], np.ravel(lam_max)[first])
    vectors = eig.eigenvectors
    powered = (vectors * (eig.eigenvalues**exponent)[..., None, :]) @ vectors.swapaxes(-1, -2)
    return 0.5 * (powered + powered.swapaxes(-1, -2))


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues in [-PSD_NEG_RTOL * (1 + lambda_max), 0) are clamped to zero (round-off
    on a singular PSD matrix); anything more negative raises ValueError.
    Unlike ``sym_power`` this accepts singular input, as needed for sampling
    from degenerate covariance models.
    """
    eig = sym_eig(a)
    lam_max = max(float(eig.eigenvalues[0]), 0.0)
    floor = -PSD_NEG_RTOL * (1.0 + lam_max)
    if float(eig.eigenvalues[-1]) < floor:
        raise ValueError(
            f"matrix is not positive semidefinite: lambda_min = {eig.eigenvalues[-1]:.3e}"
        )
    clamped = np.clip(eig.eigenvalues, 0.0, None)
    root = (eig.eigenvectors * np.sqrt(clamped)) @ eig.eigenvectors.T
    return 0.5 * (root + root.T)
