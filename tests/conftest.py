"""Shared generators for randomized model and data checks, and the golden-file comparator."""

import math

import numpy as np

from mslca import BlockStructure, CovarianceModel


def s_statistic(that, structure):
    """Reference for ``MslcaFit.s``: summed squared entries of the lower off-diagonal blocks.

    Refuses a matrix of the wrong shape, and one with a nonzero diagonal
    block, which is not a canonical operator; the estimator's diagonal blocks
    are zero by construction. Equals half the sum of squared eigenvalues.
    """
    that = np.asarray(that, dtype=float)
    q = structure.total_dim
    if that.shape != (q, q):
        raise ValueError(f"expected ({q}, {q}) matrix, got shape {that.shape}")
    bad = structure.diagonal_mask & (np.abs(that) > 1e-10 * (1.0 + np.abs(that).max()))
    if bad.any():
        k = int(np.searchsorted(structure.offsets, np.argwhere(bad)[0, 0], side="right")) - 1
        raise ValueError(f"diagonal block {k} is not zero; not a canonical operator")
    rows, cols = structure.cross_entries
    entries = that[rows, cols]
    return float((entries * entries).sum())


def random_structure(rng, max_blocks=4, max_block_dim=3, max_total=10):
    """Random partition with 2..max_blocks blocks and total dimension <= max_total."""
    n_blocks = int(rng.integers(2, max_blocks + 1))
    while True:
        dims = rng.integers(1, max_block_dim + 1, size=n_blocks)
        if dims.sum() <= max_total:
            return BlockStructure(tuple(int(p) for p in dims))


def random_spd_model(rng, structure):
    """Covariance model that is strictly positive definite with probability one."""
    q = structure.total_dim
    factor = rng.standard_normal((q, q + 5))
    v = factor @ factor.T / (q + 5)
    return CovarianceModel(structure, v)


def random_whitened_model(rng, structure, strength=0.5):
    """SPD model whose diagonal blocks are exactly the identity."""
    base = random_spd_model(rng, structure)
    scale = np.zeros((structure.total_dim, structure.total_dim))
    for k in range(structure.n_blocks):
        sl = structure.block_slice(k)
        block = base.v[sl, sl]
        vals, vecs = np.linalg.eigh(block)
        scale[sl, sl] = (vecs / np.sqrt(vals)) @ vecs.T
    v = scale @ base.v @ scale
    # interpolate toward the identity to keep cross-blocks moderate
    v = strength * v + (1.0 - strength) * np.eye(structure.total_dim)
    for k in range(structure.n_blocks):
        sl = structure.block_slice(k)
        v[sl, sl] = np.eye(structure.dims[k])
    return CovarianceModel(structure, 0.5 * (v + v.T))


def correlation_model(dims, correlations):
    """Scalar-block friendly constructor: identity diagonal, given cross blocks.

    ``correlations`` maps (k, l) with l < k to the block value (scalar or
    array); the symmetric counterpart is filled automatically.
    """
    structure = BlockStructure(dims)
    v = np.eye(structure.total_dim)
    for (k, l), value in correlations.items():
        block = np.atleast_2d(np.asarray(value, dtype=float))
        v[structure.block_slice(k), structure.block_slice(l)] = block
        v[structure.block_slice(l), structure.block_slice(k)] = block.T
    return CovarianceModel(structure, v)


def equicorrelation_model(n_blocks, r):
    """Scalar blocks with common cross-correlation r."""
    v = np.full((n_blocks, n_blocks), float(r))
    np.fill_diagonal(v, 1.0)
    return CovarianceModel(BlockStructure((1,) * n_blocks), v)


def random_block_transforms(rng, structure, cond_range=(0.5, 2.0)):
    """Per-block invertible matrices with bounded condition numbers."""
    mats = []
    for k in range(structure.n_blocks):
        p = structure.dims[k]
        q1, _ = np.linalg.qr(rng.standard_normal((p, p)))
        q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
        diag = rng.uniform(*cond_range, size=p)
        mats.append(q1 @ np.diag(diag) @ q2)
    return mats


def blockdiag(structure, mats):
    out = np.zeros((structure.total_dim, structure.total_dim))
    for k, mat in enumerate(mats):
        sl = structure.block_slice(k)
        out[sl, sl] = mat
    return out


def transform_model(model, mats):
    """Apply per-block invertible maps: block (k, l) becomes A_k V_kl A_l^T."""
    big = blockdiag(model.structure, mats)
    return CovarianceModel(model.structure, big @ model.v @ big.T)


def assert_matches_golden(actual, expected, where="result"):
    """Compare a JSON-shaped value with its stored golden counterpart.

    Floats must agree within rtol 1e-9 and atol 1e-12; integers, strings,
    booleans and None exactly; dicts and lists in keys, length and order.
    """
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{where}: {actual!r} is not a float"
        assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            assert_matches_golden(actual[key], expected[key], f"{where}[{key!r}]")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches_golden(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )
