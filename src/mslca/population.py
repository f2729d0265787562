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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import (
    DEFAULT_COND_FLOOR,
    BlockStructure,
    extract_block,
    psd_sqrt,
    require_symmetric,
    sym_eig,
    sym_power,
)
from .exceptions import NearSingularError

DEFAULT_GROUP_TOL = 1e-8


@dataclass(frozen=True)
class CovarianceModel:
    """Full covariance of the stacked vector, stored as one (q, q) matrix.

    Block (k, l) is the cross-covariance of sets k and l; finiteness and
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
        if not np.isfinite(v).all():
            raise ValueError("covariance has a non-finite entry")
        v = require_symmetric(v)
        v.flags.writeable = False
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "v", v)

    @cached_property
    def root(self) -> np.ndarray:
        """Symmetric square root of ``v``, computed once and read-only."""
        root = psd_sqrt(self.v)
        root.flags.writeable = False
        return root

    def block(self, k: int, l: int) -> np.ndarray:
        return extract_block(self.v, self.structure, k, l)

    def diagonal_block(self, k: int) -> np.ndarray:
        return self.block(k, k)


@dataclass(frozen=True)
class MslcaSolution:
    """Canonical coefficients and directions of a solved model.

    ``rho`` is nonincreasing; column j of ``beta`` is the orthonormal
    eigenvector paired with rho[j] and column j of ``alpha`` the canonical
    direction Phi^{-1/2} beta_j. ``groups`` partitions the indices into
    eigenvalue-multiplicity groups (values strictly decreasing across
    groups); ``zero_group`` is the index of the group whose value is zero
    within tolerance, whose directions are not identifiable (any orthonormal
    basis of the null eigenspace solves the problem), or None.
    """

    structure: BlockStructure
    rho: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    groups: tuple[tuple[int, ...], ...]
    group_values: np.ndarray
    zero_group: int | None

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
    q = model.structure.total_dim
    phi = np.zeros((q, q))
    for k in range(model.structure.n_blocks):
        sl = model.structure.block_slice(k)
        phi[sl, sl] = model.v[sl, sl]
    return phi


def _block_inv_sqrts(model: CovarianceModel, cond_floor: float) -> list[np.ndarray]:
    roots = []
    for k in range(model.structure.n_blocks):
        try:
            roots.append(sym_power(model.diagonal_block(k), -0.5, cond_floor))
        except NearSingularError as err:
            raise NearSingularError(err.lambda_min, err.lambda_max, block=k) from None
    return roots


def _assemble_t(model: CovarianceModel, inv_roots: list[np.ndarray]) -> np.ndarray:
    structure = model.structure
    t = np.zeros((structure.total_dim, structure.total_dim))
    for k, l in structure.lower_pairs():
        block = inv_roots[k] @ model.block(k, l) @ inv_roots[l]
        t[structure.block_slice(k), structure.block_slice(l)] = block
        t[structure.block_slice(l), structure.block_slice(k)] = block.T
    return t


def build_t(model: CovarianceModel) -> np.ndarray:
    """Assemble T = Phi^{-1/2} Psi Phi^{-1/2} blockwise.

    Block (k, l), k != l, is V_k^{-1/2} V_kl V_l^{-1/2}; diagonal blocks are
    exactly zero by construction.
    """
    return _assemble_t(model, _block_inv_sqrts(model, DEFAULT_COND_FLOOR))


def _group_indices(rho: np.ndarray, group_tol: float) -> tuple[tuple[int, ...], ...]:
    """Group nonincreasing eigenvalues by |rho_anchor - rho_j| <= tol * max(1, |rho_anchor|)."""
    groups: list[list[int]] = []
    for j, value in enumerate(rho):
        if groups:
            anchor = rho[groups[-1][0]]
            if abs(anchor - value) <= group_tol * max(1.0, abs(anchor)):
                groups[-1].append(j)
                continue
        groups.append([j])
    return tuple(tuple(g) for g in groups)


def _solve(
    model: CovarianceModel, group_tol: float, cond_floor: float
) -> tuple[np.ndarray, MslcaSolution, list[np.ndarray]]:
    """T, its solution and the block inverse roots, each computed once."""
    if not 0.0 < group_tol < math.inf:
        raise ValueError(f"group_tol must be a positive finite number, got {group_tol}")
    structure = model.structure
    inv_roots = _block_inv_sqrts(model, cond_floor)
    t = _assemble_t(model, inv_roots)
    eig = sym_eig(t)
    rho = eig.eigenvalues.copy()
    beta = eig.eigenvectors.copy()

    alpha = np.empty_like(beta)
    for k in range(structure.n_blocks):
        sl = structure.block_slice(k)
        alpha[sl, :] = inv_roots[k] @ beta[sl, :]

    groups = _group_indices(rho, group_tol)
    group_values = np.array([rho[g[0]] for g in groups])
    zero_group = None
    for gi, value in enumerate(group_values):
        if abs(value) <= group_tol:
            zero_group = gi
            break
    for arr in (rho, beta, alpha, group_values, *inv_roots):
        arr.flags.writeable = False
    solution = MslcaSolution(
        structure=structure,
        rho=rho,
        beta=beta,
        alpha=alpha,
        groups=groups,
        group_values=group_values,
        zero_group=zero_group,
    )
    return t, solution, inv_roots


def solve_mslca(model: CovarianceModel) -> MslcaSolution:
    """Solve the population analysis by spectral decomposition of T."""
    return _solve(model, DEFAULT_GROUP_TOL, DEFAULT_COND_FLOOR)[1]


def verify_constraints(model: CovarianceModel, solution: MslcaSolution) -> ConstraintDiagnostics:
    """Worst violations of the unit-variance and blockwise-uncorrelated constraints.

    Entry (i, j) of alpha^T Phi alpha is sum_k <alpha_k^(i), V_k alpha_k^(j)>:
    its diagonal must be 1 and its off-diagonal 0.
    """
    gram = solution.alpha.T @ build_phi(model) @ solution.alpha
    unit = float(np.abs(np.diag(gram) - 1.0).max())
    off = gram - np.diag(np.diag(gram))
    ortho = float(np.abs(off).max()) if gram.shape[0] > 1 else 0.0
    return ConstraintDiagnostics(max_unit_violation=unit, max_orthogonality_violation=ortho)
