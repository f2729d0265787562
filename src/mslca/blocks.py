"""Block-structured vector/matrix algebra and symmetric spectral primitives.

A block structure partitions the coordinates of R^q into consecutive groups
(one per variable set). Vectors are plain 1-d numpy arrays of length q and
matrices plain (q, q) arrays; the structure object supplies offsets, slices,
the mask of within-block entries and the order of the cross-block entries,
so callers never hand-compute index arithmetic. The symmetric primitives
(``require_symmetric``, ``sym_eig``, ``sym_power`` and ``psd_sqrt``) also
take a stack of matrices (leading axes before the last two) and treat each
matrix exactly as they would treat it alone. Only ``sym_eig`` orders and
signs eigenvectors; the matrix functions rebuild Q f(Lambda) Q^T, which does
not depend on either, from plain ``eigh``.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import NearSingularError

DEFAULT_COND_FLOOR = 1e-10
SYMMETRY_RTOL = 1e-12
PSD_NEG_RTOL = 1e-10
_HALF_MAX = np.finfo(float).max / 2


def _integer(value, name: str) -> int:
    """``value`` as an int; ValueError for a bool or anything that is not an integer."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(value, refused=np.nan):
    """``value`` as a float, or ``refused`` unless it is a real number.

    The default NaN fails the caller's range check. ``float`` would read True
    as 1.0 and "0.05" as 0.05, so bools and strings are refused; None, a list
    or a dict, for which it raises TypeError, are refused too.
    """
    if not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            return float(value)
        except TypeError:
            pass
    return refused


def _items(value, name: str) -> tuple:
    """``value``'s items; ValueError for a string, bytes, a mapping or a non-iterable."""
    if not isinstance(value, (str, bytes, Mapping)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a list, got {value!r}")


@dataclass(frozen=True)
class BlockStructure:
    """Partition of R^q into consecutive blocks of sizes ``dims``.

    ``dims`` is a list (any iterable but a string, bytes or a mapping) and
    each size an integer (numpy integers included); a float such as 1.9 or
    a bool is refused with ValueError rather than truncated.
    """

    dims: tuple[int, ...]

    def __init__(self, dims) -> None:
        object.__setattr__(self, "dims", tuple(_integer(p, "dims") for p in _items(dims, "dims")))
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

    def block_slice(self, k: int) -> slice:
        if not 0 <= k < self.n_blocks:
            raise IndexError(f"block index {k} out of range [0, {self.n_blocks})")
        return slice(self.offsets[k], self.offsets[k] + self.dims[k])

    @cached_property
    def diagonal_mask(self) -> np.ndarray:
        """Read-only (q, q) bool array, True exactly on the within-block entries."""
        labels = np.repeat(np.arange(self.n_blocks), self.dims)
        mask = labels[:, None] == labels[None, :]
        mask.flags.writeable = False
        return mask

    @cached_property
    def cross_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (rows, cols) index arrays of the lower off-diagonal block entries.

        The one definition of the order of the stacked off-diagonal entries,
        and so of Gamma's rows and columns: pairs (k, l), l < k, run in the
        order (1,0), (2,0), (2,1), (3,0), ...; within a pair, entries (i, j)
        run with the row index i fastest. So the entries of block k against
        every coordinate before it are one run, with block k's index
        fastest; ``build_gamma`` writes each such run with one broadcast
        product.
        """
        rows, cols = [], []
        for k in range(1, self.n_blocks):
            block = self.block_slice(k)  # against the pairs (k, 0), ..., (k, k-1) at once
            rows.append(np.tile(np.arange(block.start, block.stop), block.start))
            cols.append(np.repeat(np.arange(block.start), self.dims[k]))
        entries = (np.concatenate(rows), np.concatenate(cols))
        for index in entries:
            index.flags.writeable = False
        return entries


def require_symmetric(a: np.ndarray) -> np.ndarray:
    """Validate symmetry of ``a`` within SYMMETRY_RTOL*(1+max|a|), then return (a+a.T)/2.

    ``a`` is a square matrix or a stack of them (shape (..., m, m)); each
    matrix is checked against its own scale. Symmetrizing after the check
    kills round-off accumulation without masking genuinely asymmetric inputs.
    A NaN, an inf or an entry above half the float range raises ValueError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a_t = a.swapaxes(-1, -2)
    if a.size:
        scale = 1.0 + np.abs(a).max(axis=(-2, -1))
        if not scale.max() < _HALF_MAX:  # NaN fails too; above it a + a.T may overflow
            raise ValueError(f"non-finite or too large entry: max|A| = {np.abs(a).max():.3e}")
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
    arrays carry the stack's leading axes. Only ``sym_eig`` pays for this
    convention: ``sym_power`` and ``psd_sqrt`` do not need it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(a: np.ndarray) -> SymmetricEig:
    """Eigendecomposition of a symmetric matrix (or a stack) with deterministic conventions.

    Raises ``ValueError`` for non-symmetric or non-finite input and propagates
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


def _recompose(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Q diag(values) Q^T from ``eigh``'s ascending pairs, symmetrized.

    The terms are summed from the largest eigenvalue down (the columns
    reversed into one contiguous copy), the order ``sym_eig`` gives, so the
    result equals the same product of ``sym_eig``'s eigenvectors bit for bit
    (negating a column does not change it).
    """
    vectors = np.ascontiguousarray(vectors[..., ::-1])
    product = (vectors * values[..., None, ::-1]) @ vectors.swapaxes(-1, -2)
    return 0.5 * (product + product.swapaxes(-1, -2))


def sym_power(a: np.ndarray, exponent: float) -> np.ndarray:
    """Symmetric functional calculus: Q diag(lambda**exponent) Q^T.

    Intended for exponents -1, -1/2 and 1/2 on positive definite input; a
    stack of matrices is powered matrix by matrix.
    Raises NearSingularError when lambda_min <= DEFAULT_COND_FLOOR * lambda_max
    (for a stack, naming the first such matrix); the floor, 1e-10, is fixed.
    A near-singular block covariance signals collinear data and must surface
    as an error rather than silently inflate an inverse square root.
    """
    values, vectors = np.linalg.eigh(require_symmetric(a))
    lam_min = values[..., 0]
    lam_max = values[..., -1]
    bad = np.ravel(lam_min <= DEFAULT_COND_FLOOR * lam_max)
    if bad.any():
        first = np.flatnonzero(bad)[0]
        raise NearSingularError(np.ravel(lam_min)[first], np.ravel(lam_max)[first])
    return _recompose(vectors, values**exponent)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix (or a stack).

    Eigenvalues in [-PSD_NEG_RTOL * (1 + lambda_max), 0) are clamped to zero (round-off
    on a singular PSD matrix); anything more negative raises ValueError
    (for a stack, naming the first such matrix's lambda_min).
    Unlike ``sym_power`` this accepts singular input, as needed for sampling
    from degenerate covariance models. Like ``sym_power`` it works from
    plain ``eigh``, without ``sym_eig``'s order and sign convention.
    """
    values, vectors = np.linalg.eigh(require_symmetric(a))
    lam_min = values[..., 0]
    floor = -PSD_NEG_RTOL * (1.0 + np.maximum(values[..., -1], 0.0))
    bad = np.ravel(lam_min < floor)
    if bad.any():
        worst = np.ravel(lam_min)[np.flatnonzero(bad)[0]]
        raise ValueError(f"matrix is not positive semidefinite: lambda_min = {worst:.3e}")
    return _recompose(vectors, np.sqrt(np.clip(values, 0.0, None)))
