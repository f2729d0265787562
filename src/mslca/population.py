"""Population multiple-set linear canonical analysis.

Given the exact covariance of the stacked vector X = (X_1, ..., X_K), the
joint canonical analysis maximizes E<a, X>^2 over directions a whose summed
per-block variances equal one, successive directions being uncorrelated with
the earlier ones blockwise. The solution is spectral: with Phi the
block-diagonal part of the covariance and Psi the off-block-diagonal part,
the coefficients are the eigenvalues of T = Phi^{-1/2} Psi Phi^{-1/2} and the
directions are Phi^{-1/2} times its orthonormal eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import BlockStructure, psd_sqrt, require_symmetric, sym_eig, sym_power
from .exceptions import NearSingularError

DEFAULT_GROUP_TOL = 1e-8


def _valid_covariances(v: np.ndarray) -> np.ndarray:
    """Finite, symmetric (each matrix within its own scale), symmetrized and read-only."""
    if not np.isfinite(v).all():
        raise ValueError("covariance has a non-finite entry")
    v = require_symmetric(v)
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class CovarianceModel:
    """Full covariance of the stacked vector, stored as one (q, q) matrix.

    Block (k, l) is the cross-covariance of sets k and l, read as
    ``v[structure.block_slice(k), structure.block_slice(l)]``; finiteness and
    symmetry are validated at construction. Positive definiteness of the
    diagonal blocks is checked where it is actually needed (inverse square
    roots), so that empirical covariances of degenerate samples remain
    representable.
    """

    structure: BlockStructure
    v: np.ndarray

    def __init__(self, structure: BlockStructure, v: np.ndarray):
        q = structure.total_dim
        v = np.asarray(v, dtype=float)
        if v.shape != (q, q):
            raise ValueError(f"covariance must have shape ({q}, {q}), got {v.shape}")
        self._adopt(structure, _valid_covariances(v))

    @classmethod
    def _of_valid(cls, structure: BlockStructure, v: np.ndarray) -> "CovarianceModel":
        """Wrap a matrix that ``_valid_covariances`` has passed, without checking it again."""
        model = object.__new__(cls)
        model._adopt(structure, v)
        return model

    def _adopt(self, structure: BlockStructure, v: np.ndarray) -> None:
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "v", v)

    @cached_property
    def root(self) -> np.ndarray:
        """Symmetric square root of ``v``, computed once and read-only."""
        root = psd_sqrt(self.v)
        root.flags.writeable = False
        return root


@dataclass(frozen=True)
class MslcaSolution:
    """Canonical coefficients and directions of a solved model.

    ``rho`` is nonincreasing; column j of ``beta`` is the orthonormal
    eigenvector paired with rho[j] and column j of ``alpha`` the canonical
    direction Phi^{-1/2} beta_j. The groups are read off ``rho`` with the
    fixed tolerance DEFAULT_GROUP_TOL (1e-8) on first use and kept:
    ``groups`` partitions the indices into eigenvalue-multiplicity groups, a
    group taking each next index whose value is within
    DEFAULT_GROUP_TOL * max(1, |v|) of its first value v (values strictly
    decreasing across groups); ``group_values`` (read-only) holds those first
    values; ``zero_group`` is the index of the first group whose value is
    within DEFAULT_GROUP_TOL of zero, whose directions are not identifiable
    (any orthonormal basis of the null eigenspace solves the problem), or None.
    """

    structure: BlockStructure
    rho: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        rho = self.rho.tolist()
        groups: list[list[int]] = []
        for j, value in enumerate(rho):
            if groups:
                anchor = rho[groups[-1][0]]
                if abs(anchor - value) <= DEFAULT_GROUP_TOL * max(1.0, abs(anchor)):
                    groups[-1].append(j)
                    continue
            groups.append([j])
        return tuple(tuple(g) for g in groups)

    @cached_property
    def group_values(self) -> np.ndarray:
        values = self.rho[[g[0] for g in self.groups]]
        values.flags.writeable = False
        return values

    @cached_property
    def zero_group(self) -> int | None:
        values = self.group_values.tolist()
        return next((i for i, value in enumerate(values) if abs(value) <= DEFAULT_GROUP_TOL), None)

    @property
    def is_simple(self) -> bool:
        """True when every eigenvalue group is a singleton."""
        return all(len(g) == 1 for g in self.groups)


@dataclass(frozen=True)
class ConstraintDiagnostics:
    """Worst-case violations of the defining variance constraints."""

    max_unit_violation: float
    max_orthogonality_violation: float


def build_phi(model: CovarianceModel) -> np.ndarray:
    """Block-diagonal (within-set) part of the covariance."""
    return np.where(model.structure.diagonal_mask, model.v, 0.0)


def _block_inv_sqrt(structure: BlockStructure, v: np.ndarray) -> np.ndarray:
    """Phi^{-1/2} of each covariance of ``v`` (..., q, q), as a stack of the same shape.

    Each diagonal block is powered on its own, so a near-singular one is
    named and the off-diagonal blocks stay exactly zero.
    """
    root = np.zeros(v.shape)
    for k in range(structure.n_blocks):
        sl = structure.block_slice(k)
        try:
            root[..., sl, sl] = sym_power(v[..., sl, sl], -0.5)
        except NearSingularError as err:
            raise NearSingularError(err.lambda_min, err.lambda_max, block=k) from None
    return root


def _assemble_t(structure: BlockStructure, v: np.ndarray, inv_root: np.ndarray) -> np.ndarray:
    """T = Phi^{-1/2} Psi Phi^{-1/2} of each covariance of ``v`` (..., q, q), symmetrized."""
    t = inv_root @ np.where(structure.diagonal_mask, 0.0, v) @ inv_root
    return 0.5 * (t + t.swapaxes(-1, -2))


def _off_block_mass(structure: BlockStructure, t: np.ndarray) -> np.ndarray:
    """Summed squared entries of the lower off-diagonal blocks of ``t`` (..., q, q), per matrix."""
    rows, cols = structure.cross_entries
    # contiguous, so each matrix's entries are summed as they would be alone
    entries = np.ascontiguousarray(t[..., rows, cols])
    return (entries * entries).sum(axis=-1)


def build_t(model: CovarianceModel) -> np.ndarray:
    """Assemble T = Phi^{-1/2} Psi Phi^{-1/2}.

    Block (k, l), k != l, is V_k^{-1/2} V_kl V_l^{-1/2}; diagonal blocks are
    exactly zero by construction.
    """
    inv_root = _block_inv_sqrt(model.structure, model.v)
    return _assemble_t(model.structure, model.v, inv_root)


def _solve(
    structure: BlockStructure, v: np.ndarray
) -> tuple[np.ndarray, list[MslcaSolution], np.ndarray]:
    """Solve each covariance of a (R, q, q) stack at once.

    Returns the stack of T, one solution per matrix and the stack of
    block-diagonal Phi^{-1/2}, each computed once and read-only; every
    eigensolve is one call over the whole stack.
    """
    inv_root = _block_inv_sqrt(structure, v)
    t = _assemble_t(structure, v, inv_root)
    eig = sym_eig(t)
    beta = eig.eigenvectors
    alpha = inv_root @ beta
    for arr in (t, alpha, inv_root):
        arr.flags.writeable = False
    solutions = [
        MslcaSolution(structure, eig.eigenvalues[i], beta[i], alpha[i]) for i in range(v.shape[0])
    ]
    return t, solutions, inv_root


def solve_mslca(model: CovarianceModel) -> MslcaSolution:
    """Solve the population analysis by spectral decomposition of T."""
    return _solve(model.structure, model.v[None])[1][0]


def verify_constraints(model: CovarianceModel, solution: MslcaSolution) -> ConstraintDiagnostics:
    """Worst violations of the unit-variance and blockwise-uncorrelated constraints.

    Entry (i, j) of alpha^T Phi alpha is sum_k <alpha_k^(i), V_k alpha_k^(j)>:
    its diagonal must be 1 and its off-diagonal 0.
    """
    gram = solution.alpha.T @ build_phi(model) @ solution.alpha
    unit = float(np.abs(np.diag(gram) - 1.0).max())
    off = gram - np.diag(np.diag(gram))
    ortho = float(np.abs(off).max())
    return ConstraintDiagnostics(max_unit_violation=unit, max_orthogonality_violation=ortho)
