"""Block algebra and symmetric spectral primitives."""

import re

import numpy as np
import pytest

from mslca import (
    BlockStructure,
    NearSingularError,
    psd_sqrt,
    sym_eig,
    sym_power,
)
from mslca.blocks import require_symmetric


def embed_block(b, structure, k, l):
    """The (q, q) matrix that is zero except for block (k, l) = ``b``."""
    b = np.asarray(b, dtype=float)
    expected = (structure.dims[k], structure.dims[l])
    if b.shape != expected:
        raise ValueError(f"block ({k}, {l}) must have shape {expected}, got {b.shape}")
    out = np.zeros((structure.total_dim, structure.total_dim))
    out[structure.block_slice(k), structure.block_slice(l)] = b
    return out


def test_structure_basics():
    s = BlockStructure((2, 3, 2))
    assert s.n_blocks == 3
    assert s.total_dim == 7
    assert s.offsets == (0, 2, 5)
    assert s.block_slice(1) == slice(2, 5)
    rows, cols = s.cross_entries
    labels = np.repeat(np.arange(3), s.dims)
    pairs = dict.fromkeys(zip(labels[rows].tolist(), labels[cols].tolist()))
    assert list(pairs) == [(1, 0), (2, 0), (2, 1)]
    within = np.zeros((7, 7), dtype=bool)
    for k in range(3):
        within[s.block_slice(k), s.block_slice(k)] = True
    assert np.array_equal(s.diagonal_mask, within)
    assert not s.diagonal_mask.flags.writeable


def test_structure_validation():
    with pytest.raises(ValueError):
        BlockStructure((3,))
    with pytest.raises(ValueError):
        BlockStructure((2, 0))
    # sizes are never truncated: a fraction or a bool is refused
    for dims in ((1.9, 1), (2.0, 1), (True, 1)):
        with pytest.raises(ValueError, match="integer"):
            BlockStructure(dims)
    assert BlockStructure((np.int64(2), np.int32(1))).dims == (2, 1)


def test_extract_identity_blocks():
    s = BlockStructure((2, 3))
    eye = np.eye(5)
    assert np.array_equal(eye[s.block_slice(0), s.block_slice(0)], np.eye(2))
    assert np.array_equal(eye[s.block_slice(0), s.block_slice(1)], np.zeros((2, 3)))


def test_extract_scalar_cross_block():
    s = BlockStructure((1, 1))
    a = np.array([[1.0, 0.7], [0.7, 1.0]])
    assert np.array_equal(a[s.block_slice(1), s.block_slice(0)], [[0.7]])


def test_extract_index_range():
    s = BlockStructure((1, 1))
    for k in (-1, 2):
        with pytest.raises(IndexError):
            s.block_slice(k)


def test_embed_scalar():
    s = BlockStructure((1, 1))
    assert np.array_equal(embed_block([[1.0]], s, 0, 0), [[1.0, 0.0], [0.0, 0.0]])


def test_embed_assembly():
    s = BlockStructure((1, 1))
    r = 0.4
    built = embed_block([[r]], s, 1, 0) + embed_block([[r]], s, 0, 1)
    assert np.array_equal(built, [[0.0, r], [r, 0.0]])


def test_embed_extract_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        dims = tuple(rng.integers(1, 4, size=rng.integers(2, 5)))
        s = BlockStructure(dims)
        k = int(rng.integers(s.n_blocks))
        l = int(rng.integers(s.n_blocks))
        block = rng.standard_normal((dims[k], dims[l]))
        embedded = embed_block(block, s, k, l)
        assert np.array_equal(embedded[s.block_slice(k), s.block_slice(l)], block)


def test_embed_shape_mismatch():
    s = BlockStructure((2, 1))
    with pytest.raises(ValueError):
        embed_block(np.zeros((1, 2)), s, 0, 0)


def test_sym_eig_diagonal():
    eig = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(eig.eigenvalues, [3.0, 2.0, 1.0])


def test_sym_eig_two_by_two_closed_form():
    r = 0.35
    eig = sym_eig(np.array([[0.0, r], [r, 0.0]]))
    np.testing.assert_allclose(eig.eigenvalues, [r, -r], atol=1e-14)


def test_sym_eig_equicorrelation_closed_form():
    r = 0.6
    a = r * (np.ones((3, 3)) - np.eye(3))
    eig = sym_eig(a)
    np.testing.assert_allclose(eig.eigenvalues, [2 * r, -r, -r], atol=1e-12)


def test_sym_eig_matches_characteristic_polynomial_roots():
    # independent oracle: roots of det(A - x I) expanded by hand for 3x3
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = rng.standard_normal((3, 3))
        a = a + a.T
        trace = np.trace(a)
        minors = (
            a[0, 0] * a[1, 1] - a[0, 1] ** 2
            + a[0, 0] * a[2, 2] - a[0, 2] ** 2
            + a[1, 1] * a[2, 2] - a[1, 2] ** 2
        )
        det = np.linalg.det(a)
        roots = np.roots([1.0, -trace, minors, -det])
        roots = np.sort(roots.real)[::-1]
        np.testing.assert_allclose(sym_eig(a).eigenvalues, roots, atol=1e-8)


def test_sym_eig_invariants_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = int(rng.integers(2, 8))
        a = rng.standard_normal((q, q))
        a = a + a.T
        eig = sym_eig(a)
        vecs = eig.eigenvectors
        assert np.all(np.diff(eig.eigenvalues) <= 1e-15)
        assert np.abs(vecs.T @ vecs - np.eye(q)).max() <= 1e-10
        residual = a @ vecs - vecs * eig.eigenvalues
        assert np.abs(residual).max() <= 1e-9 * (1.0 + np.abs(a).max())
        lead = np.argmax(np.abs(vecs), axis=0)
        assert np.all(vecs[lead, np.arange(q)] > 0)


def test_sym_eig_deterministic():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    a = a + a.T
    first = sym_eig(a)
    second = sym_eig(a.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for shape in [(3,), (2, 3), (4, 2, 3)]:
        with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {shape}")):
            require_symmetric(np.zeros(shape))


def test_sym_power_identity():
    assert np.array_equal(sym_power(np.eye(3), -0.5), np.eye(3))


def test_sym_power_diagonal():
    np.testing.assert_allclose(
        sym_power(np.diag([4.0, 9.0]), -0.5), np.diag([0.5, 1.0 / 3.0]), atol=1e-15
    )


def test_sym_power_square_root_identity():
    rng = np.random.default_rng(13)
    factor = rng.standard_normal((5, 8))
    a = factor @ factor.T / 8
    root = sym_power(a, 0.5)
    np.testing.assert_allclose(root @ root, a, atol=1e-9)
    inv_root = sym_power(a, -0.5)
    np.testing.assert_allclose(inv_root @ inv_root, sym_power(a, -1.0), atol=1e-9)


def test_sym_power_commutes():
    rng = np.random.default_rng(17)
    for _ in range(10):
        factor = rng.standard_normal((4, 7))
        a = factor @ factor.T / 7
        for expo in (-1.0, -0.5, 0.5):
            powered = sym_power(a, expo)
            gap = np.abs(a @ powered - powered @ a).max()
            assert gap <= 1e-9 * np.abs(a).max()


def test_sym_power_near_singular():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NearSingularError) as exc:
        sym_power(singular, -0.5)
    assert exc.value.lambda_max == pytest.approx(2.0, abs=1e-12)
    # the conditioning floor is fixed: lambda_min <= 1e-10 * lambda_max raises
    np.testing.assert_allclose(
        sym_power(np.diag([1.0, 2e-10]), -0.5), np.diag([1.0, 2e-10**-0.5]), rtol=1e-12
    )
    with pytest.raises(NearSingularError) as exc:
        sym_power(np.diag([1.0, 1e-10]), -0.5)
    assert exc.value.lambda_min == 1e-10 and exc.value.lambda_max == 1.0


def test_psd_sqrt_accepts_singular():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    root = psd_sqrt(a)
    np.testing.assert_allclose(root @ root, a, atol=1e-12)
    with pytest.raises(ValueError):
        psd_sqrt(-np.eye(2))


def _random_stack(rng, count, m):
    factors = rng.standard_normal((count, m, m + 3))
    return factors @ factors.swapaxes(1, 2) / (m + 3)


def test_stacked_primitives_equal_per_matrix_calls_bit_for_bit():
    rng = np.random.default_rng(23)
    stack = _random_stack(rng, 5, 4)
    eig = sym_eig(stack)
    powered = sym_power(stack, -0.5)
    root = psd_sqrt(stack)
    assert eig.eigenvalues.shape == (5, 4) and eig.eigenvectors.shape == (5, 4, 4)
    assert root.shape == (5, 4, 4)
    for i in range(5):
        alone = sym_eig(stack[i])
        assert np.array_equal(eig.eigenvalues[i], alone.eigenvalues)
        assert np.array_equal(eig.eigenvectors[i], alone.eigenvectors)
        assert np.array_equal(powered[i], sym_power(stack[i], -0.5))
        assert np.array_equal(root[i], psd_sqrt(stack[i]))
        assert np.array_equal(require_symmetric(stack)[i], require_symmetric(stack[i]))


def test_stacked_checks_run_per_matrix():
    rng = np.random.default_rng(29)
    stack = _random_stack(rng, 3, 3)
    stack[0] *= 1e6
    # the same absolute asymmetry passes against the large matrix's scale only
    stack[0, 0, 1] += 1e-8
    require_symmetric(stack[:1])
    stack[2, 0, 1] += 1e-8
    with pytest.raises(ValueError, match="not symmetric"):
        require_symmetric(stack)
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(stack)

    singular = _random_stack(rng, 4, 2)
    singular[1] = [[1.0, 1.0], [1.0, 1.0]]
    singular[3] = [[4.0, 2.0], [2.0, 1.0]]
    with pytest.raises(NearSingularError) as exc:
        sym_power(singular, -0.5)
    with pytest.raises(NearSingularError) as alone:
        sym_power(singular[1], -0.5)
    # the first near-singular matrix of the stack is the one reported
    assert (exc.value.lambda_min, exc.value.lambda_max) == (
        alone.value.lambda_min,
        alone.value.lambda_max,
    )

    indefinite = _random_stack(rng, 3, 2)
    indefinite[1] = -np.eye(2)
    with pytest.raises(ValueError, match=r"lambda_min = -1\.000e\+00"):
        psd_sqrt(indefinite)
    with pytest.raises(ValueError, match=r"lambda_min = -1\.000e\+00"):
        psd_sqrt(indefinite[1])


def _sym_eig_formula(a, f):
    """Q f(Lambda) Q^T symmetrized, from sym_eig's ordered, signed eigenvectors."""
    eig = sym_eig(a)
    vectors = eig.eigenvectors
    product = (vectors * f(eig.eigenvalues)[..., None, :]) @ vectors.swapaxes(-1, -2)
    return 0.5 * (product + product.swapaxes(-1, -2))


def _clamped_sqrt(values):
    return np.sqrt(np.clip(values, 0.0, None))


def test_matrix_functions_equal_the_sym_eig_formulas_bit_for_bit():
    # Q f(Lambda) Q^T does not depend on the order or sign of Q's columns, and
    # summing from the largest eigenvalue down keeps sym_eig's order. Matrices
    # with exactly equal eigenvalues are left out: among tied terms eigh's
    # reversed order and sym_eig's stable sort may sum in a different order,
    # which changes only round-off.
    rng = np.random.default_rng(31)
    stacks = [_random_stack(rng, count, m) for count, m in ((8, 2), (3, 1), (3, 3), (5, 4))]
    for stack in stacks:
        values = np.linalg.eigvalsh(stack)
        assert (np.diff(values, axis=-1) > 0).all()
        for exponent in (-1.0, -0.5, 0.5):
            expected = _sym_eig_formula(stack, lambda values: values**exponent)
            assert np.array_equal(sym_power(stack, exponent), expected)
        assert np.array_equal(psd_sqrt(stack), _sym_eig_formula(stack, _clamped_sqrt))
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(psd_sqrt(singular), _sym_eig_formula(singular, _clamped_sqrt))
