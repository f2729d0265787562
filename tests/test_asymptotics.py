"""Limit-law machinery: Z operator forms, fourth moments, C coefficients, quad forms, chi-square tails."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special, stats

import mslca.asymptotics
from mslca import (
    BlockStructure,
    CovarianceModel,
    Dataset,
    EigenChiSquareDist,
    InsufficientSampleError,
    MslcaError,
    NegativeWeightError,
    RepeatedEigenvaluesError,
    build_gamma,
    c_tensor,
    c_tensor_gaussian,
    chi2_test,
    fit_mslca,
    quad_form_pvalue,
    sample_gaussian,
    sample_student_t,
    sigma_matrix,
    solve_mslca,
)
from mslca.asymptotics import (
    TAIL_ATOL,
    WHITENED_ATOL,
    WHITENED_MODEL_ATOL,
    MomentAccumulator,
    _chi2_sf,
    _cross_entry_forms,
    _eigenbasis_forms,
    _inversion_sf,
    _require_whitened_data,
    _require_whitened_model,
    _row_gram,
)
from conftest import (
    block,
    correlation_model,
    equicorrelation_model,
    random_structure,
    random_whitened_model,
)

WHITENED_111 = correlation_model((1, 1, 1), {(1, 0): 0.3, (2, 0): 0.15, (2, 1): 0.1})
# Whitened model with two-column blocks and a simple spectrum.
WHITENED_222 = correlation_model(
    (2, 2, 2),
    {
        (1, 0): [[0.35, -0.1], [0.05, 0.2]],
        (2, 0): [[0.1, 0.15], [0.0, -0.25]],
        (2, 1): [[0.2, 0.0], [-0.1, 0.05]],
    },
)
# Whitened model with unequal block sizes and a simple spectrum.
WHITENED_213 = correlation_model(
    (2, 1, 3),
    {
        (1, 0): [[0.3, -0.15]],
        (2, 0): [[0.1, 0.2], [-0.05, 0.0], [0.15, -0.1]],
        (2, 1): [[0.25], [0.1], [-0.1]],
    },
)


def _z_entries(x, model):
    """Entries of Z(x) in ``cross_entries`` order, each x^T F[e] x of ``_cross_entry_forms``."""
    forms = _cross_entry_forms(model, solve_mslca(model))
    return np.einsum("euv,u,v->e", forms, x, x)


def test_z_operator_null_model_is_outer_product():
    model = CovarianceModel(BlockStructure((2, 1)), np.eye(3))
    x = np.array([1.0, -2.0, 3.0])
    # the entries (2, 0) and (2, 1) of x x^T
    np.testing.assert_allclose(_z_entries(x, model), np.array([1.0, -2.0]) * 3.0, atol=1e-15)


def test_z_operator_scalar_formula():
    r = 0.4
    model = correlation_model((1, 1), {(1, 0): r})
    a, b = 1.3, -0.7
    (z,) = _z_entries(np.array([a, b]), model)
    expected = a * b - 0.5 * (a * a * r + r * b * b)
    assert z == pytest.approx(expected, abs=1e-15)


def _lower_pairs(structure):
    """Off-diagonal block pairs (k, l), l < k, in the order (1,0), (2,0), (2,1), ..."""
    return [(k, l) for k in range(1, structure.n_blocks) for l in range(k)]


def _symmetric_bump(rng, structure, k, l):
    """Symmetric (q, q) matrix, zero outside blocks (k, l) and (l, k), with max |entry| 1."""
    bump = np.zeros((structure.total_dim, structure.total_dim))
    sk, sl = structure.block_slice(k), structure.block_slice(l)
    bump[sk, sl] = rng.uniform(-1.0, 1.0, (structure.dims[k], structure.dims[l]))
    bump = bump + bump.T
    return bump / np.abs(bump).max()


def _outcome(check, *args):
    """The type and message of what ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _require_whitened_model_per_block(model):
    """Reference for ``_require_whitened_model``: the former loop over diagonal blocks."""
    for k in range(model.structure.n_blocks):
        sl = model.structure.block_slice(k)
        diagonal = model.v[sl, sl]
        gap = np.abs(diagonal - np.eye(diagonal.shape[0])).max()
        if gap > WHITENED_MODEL_ATOL:
            raise ValueError(
                f"model is not whitened-compatible: block {k} deviates from the "
                f"identity by {gap:.3e}"
            )


def _require_whitened_data_per_block(rows, structure):
    """Reference for ``_require_whitened_data``: one covariance per diagonal block."""
    n = rows.shape[0]
    means = rows.mean(axis=0)
    scale = 1.0 + np.abs(rows).max()
    if np.abs(means).max() > WHITENED_ATOL * scale:
        raise ValueError("data is not centered; whiten it first")
    centered = rows - means
    for k in range(structure.n_blocks):
        sl = structure.block_slice(k)
        cov = centered[:, sl].T @ centered[:, sl] / n
        if np.abs(cov - np.eye(structure.dims[k])).max() > WHITENED_ATOL:
            raise ValueError(f"block {k} of the data is not whitened; whiten it first")


def test_whitened_model_check_matches_per_block_oracle():
    # every block position, diagonal or cross, moved to either side of the tolerance
    rng = np.random.default_rng(181)
    for _ in range(15):
        model = random_whitened_model(rng, random_structure(rng))
        structure = model.structure
        assert _outcome(_require_whitened_model, model) is None
        for k in range(structure.n_blocks):
            for l in range(k + 1):
                bump = _symmetric_bump(rng, structure, k, l)
                for factor in (0.5, 0.99, 1.01, 2.0):
                    moved = CovarianceModel(structure, model.v + factor * WHITENED_MODEL_ATOL * bump)
                    got = _outcome(_require_whitened_model, moved)
                    assert got == _outcome(_require_whitened_model_per_block, moved)
                    assert (got is None) == (k != l or factor < 1), (k, l, factor, got)


def test_whitened_data_check_matches_per_block_oracle():
    # rows mapped through I + e * bump: a diagonal bump moves its block's
    # covariance by about 2e; a cross bump moves both blocks it touches
    rng = np.random.default_rng(191)
    outcomes = set()
    for _ in range(10):
        model = random_whitened_model(rng, random_structure(rng))
        structure = model.structure
        rows = fit_mslca(sample_gaussian(model, 200, rng)).whitened.rows
        assert _outcome(_require_whitened_data, rows, structure) is None
        eye = np.eye(structure.total_dim)
        for k in range(structure.n_blocks):
            for l in range(k + 1):
                bump = _symmetric_bump(rng, structure, k, l)
                for factor in (0.1, 0.9, 1.1, 10.0):
                    moved = rows @ (eye + 0.5 * factor * WHITENED_ATOL * bump)
                    got = _outcome(_require_whitened_data, moved, structure)
                    assert got == _outcome(_require_whitened_data_per_block, moved, structure)
                    if k == l:
                        assert (got is None) == (factor < 1), (k, factor, got)
                    outcomes.add((k == l, got is None))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_z_operator_requires_whitened_model():
    model = CovarianceModel(BlockStructure((1, 1)), np.diag([2.0, 1.0]))
    with pytest.raises(ValueError, match="whitened-compatible"):
        _cross_entry_forms(model, solve_mslca(model))


def _z_operator_per_pair(x, model):
    """Reference for the limit operator: Z(x) assembled block pair by block pair."""
    structure = model.structure
    parts = [x[structure.block_slice(k)] for k in range(structure.n_blocks)]
    z = np.zeros((structure.total_dim, structure.total_dim))
    for k, l in _lower_pairs(structure):
        vkl = block(model, k, l)
        zkl = (
            np.outer(parts[k], parts[l])
            - 0.5 * (np.outer(parts[k], parts[k]) @ vkl + vkl @ np.outer(parts[l], parts[l]))
        )
        z[structure.block_slice(k), structure.block_slice(l)] = zkl
        z[structure.block_slice(l), structure.block_slice(k)] = zkl.T
    return z


def test_z_operator_matches_per_pair_oracle():
    rng = np.random.default_rng(173)
    for _ in range(20):
        model = random_whitened_model(rng, random_structure(rng))
        x = rng.standard_normal(model.structure.total_dim)
        expected = _z_operator_per_pair(x, model)[model.structure.cross_entries]
        z = _z_entries(x, model)
        np.testing.assert_allclose(z, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_z_operator_zero_mean_monte_carlo():
    rng = np.random.default_rng(107)
    n = 6000
    data = sample_gaussian(WHITENED_111, n, rng)
    forms = _cross_entry_forms(WHITENED_111, solve_mslca(WHITENED_111))
    draws = np.einsum("euv,iu,iv->ie", forms, data.rows, data.rows)
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean) < 3 * se)


def _whitened_sample(model, n, seed, sampler="gaussian", nu=None):
    rng = np.random.default_rng(seed)
    if sampler == "gaussian":
        data = sample_gaussian(model, n, rng)
    else:
        data = sample_student_t(model, nu, n, rng)
    return fit_mslca(data).whitened


def test_accumulator_rejects_raw_data():
    # the checked entry for outside samples passes a whitened one through
    # unchanged and refuses raw data
    rng = np.random.default_rng(109)
    model = correlation_model((1, 1), {(1, 0): 0.0})
    data = sample_gaussian(model, 200, rng)

    white = fit_mslca(data).whitened
    assert MomentAccumulator.from_whitened(white) is white
    scaled = Dataset(data.structure, 3.0 * data.rows)
    with pytest.raises(ValueError):
        MomentAccumulator.from_whitened(scaled)
    centred = Dataset(data.structure, 3.0 * (data.rows - data.rows.mean(axis=0)))
    with pytest.raises(ValueError, match="block 0 of the data is not whitened"):
        MomentAccumulator.from_whitened(centred)


def _second_moments(white):
    return white.rows.T @ white.rows / white.n


def _fourth_moment(white, a, b, c, d):
    """Sample mean of the product of four whitened coordinates."""
    cols = white.rows
    return float(np.mean(cols[:, a] * cols[:, b] * cols[:, c] * cols[:, d]))


def test_accumulator_second_moments_whitened():
    model = CovarianceModel(BlockStructure((2, 1)), np.eye(3))
    white = _whitened_sample(model, 300, seed=111)
    moments = _second_moments(white)
    for k in range(2):
        sl = white.structure.block_slice(k)
        np.testing.assert_allclose(moments[sl, sl], np.eye(white.structure.dims[k]), atol=1e-9)


def test_fourth_moment_gaussian_oracles():
    model = CovarianceModel(BlockStructure((2, 2)), np.eye(4))
    white = _whitened_sample(model, 30000, seed=113)
    n = white.n
    # same coordinate four times: Gaussian m4 = 3
    assert _fourth_moment(white, 0, 0, 0, 0) == pytest.approx(3.0, abs=4 * np.sqrt(96 / n))
    # two independent unit-variance pairs: product of variances = 1
    assert _fourth_moment(white, 0, 0, 3, 3) == pytest.approx(1.0, abs=4 * np.sqrt(8 / n))
    # four distinct coordinates: 0 by independence
    assert _fourth_moment(white, 0, 1, 2, 3) == pytest.approx(0.0, abs=4 * np.sqrt(1 / n))
    with pytest.raises(IndexError):
        _fourth_moment(white, 0, 0, 0, 4)


def _entry_list(structure):
    rows, cols = structure.cross_entries
    return list(zip(rows.tolist(), cols.tolist()))


def _cross_entries_per_pair(structure):
    """Reference for ``cross_entries``: the former construction over the lower pairs."""
    rows, cols = [], []
    for k, l in _lower_pairs(structure):
        sk, sl = structure.block_slice(k), structure.block_slice(l)
        rows.append(np.tile(np.arange(sk.start, sk.stop), structure.dims[l]))
        cols.append(np.repeat(np.arange(sl.start, sl.stop), structure.dims[k]))
    return np.concatenate(rows), np.concatenate(cols)


def test_cross_entries_order():
    # pairs (1,0), (2,0), (2,1), ...; within a pair the row index runs fastest
    assert _entry_list(BlockStructure((2, 2))) == [(2, 0), (3, 0), (2, 1), (3, 1)]
    assert _entry_list(BlockStructure((1, 1, 1))) == [(1, 0), (2, 0), (2, 1)]
    assert _entry_list(BlockStructure((1, 2, 1))) == [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
    rows, cols = BlockStructure((2, 2)).cross_entries
    assert not rows.flags.writeable and not cols.flags.writeable
    rng = np.random.default_rng(193)
    for _ in range(30):
        structure = random_structure(rng, max_blocks=6, max_block_dim=4, max_total=20)
        rows, cols = structure.cross_entries
        expected_rows, expected_cols = _cross_entries_per_pair(structure)
        assert np.array_equal(rows, expected_rows) and np.array_equal(cols, expected_cols)


def test_build_gamma_entries_match_fourth_moments():
    model = CovarianceModel(BlockStructure((2, 2)), np.eye(4))
    white = _whitened_sample(model, 500, seed=127)
    gamma = build_gamma(white)
    entries = _entry_list(white.structure)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = int(rng.integers(len(entries)))
        b = int(rng.integers(len(entries)))
        expected = _fourth_moment(white, *entries[a], *entries[b])
        assert gamma[a, b] == pytest.approx(expected, rel=1e-12)


def _build_gamma_per_pair(white):
    """Reference for ``build_gamma``: pair products gathered block pair by block pair."""
    structure = white.structure
    columns = []
    for k, l in _lower_pairs(structure):
        xk = white.rows[:, structure.block_slice(k)]
        xl = white.rows[:, structure.block_slice(l)]
        pair = xk[:, :, None] * xl[:, None, :]  # (n, p_k, p_l), i fastest when F-flattened
        columns.append(pair.reshape(white.n, -1, order="F"))
    stacked = np.concatenate(columns, axis=1)
    matrix = stacked.T @ stacked / white.n
    return 0.5 * (matrix + matrix.T)


def _c_ordered(white):
    """The whitened sample as a C-ordered ``Dataset`` from outside a fit."""
    outside = Dataset(white.structure, np.ascontiguousarray(white.rows))
    assert outside.rows.flags.c_contiguous and not white.rows.flags.c_contiguous
    return outside


def test_build_gamma_matches_per_pair_oracle():
    rng = np.random.default_rng(179)
    for i in range(10):
        model = random_whitened_model(rng, random_structure(rng))
        if i % 2:
            data = sample_gaussian(model, 200, rng)
        else:
            data = sample_student_t(model, 9.0, 200, rng)
        white = fit_mslca(data).whitened
        np.testing.assert_allclose(build_gamma(white), _build_gamma_per_pair(white), rtol=1e-12)
        outside = _c_ordered(white)
        np.testing.assert_allclose(build_gamma(outside), _build_gamma_per_pair(outside), rtol=1e-12)
        assert np.array_equal(build_gamma(outside), build_gamma(white))


def test_build_gamma_gaussian_null_near_identity():
    model = CovarianceModel(BlockStructure((2, 2)), np.eye(4))
    white = _whitened_sample(model, 30000, seed=131)
    gamma = build_gamma(white)
    assert np.array_equal(gamma, gamma.T)
    assert gamma.shape == (4, 4)
    assert np.abs(gamma - np.eye(4)).max() < 0.08
    assert np.linalg.eigvalsh(gamma).min() > 0.0


def test_build_gamma_scalar_pair_gaussian():
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    white = _whitened_sample(model, 20000, seed=137)
    gamma = build_gamma(white)
    assert gamma.shape == (1, 1)
    assert gamma[0, 0] == pytest.approx(1.0, abs=0.1)


def test_build_gamma_student_t_diagonal():
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    white = _whitened_sample(model, 60000, seed=139, sampler="t", nu=10)
    gamma = build_gamma(white)
    assert gamma[0, 0] == pytest.approx(4.0 / 3.0, abs=0.15)


def _c_coefficient(white, solution, model, m, r, s, t):
    """Per-index reference for ``c_tensor``: entry [m, r, s, t] term by term.

    Sums, over all ordered off-diagonal block pairs (k, l) and (j, u), four
    quarter-weighted moments mixing eigenvector scores with their
    cross-covariance-weighted versions, minus four half-weighted mixed
    moments, plus one plain fourth moment of scores.
    """
    structure = white.structure
    beta = solution.beta
    scores = [white.rows[:, structure.block_slice(k)] @ beta[structure.block_slice(k), :]
              for k in range(structure.n_blocks)]
    pairs = [(k, l) for k in range(structure.n_blocks) for l in range(structure.n_blocks) if k != l]
    weighted = {
        (k, l): white.rows[:, structure.block_slice(k)]
        @ (block(model, k, l) @ beta[structure.block_slice(l), :])
        for k, l in pairs
    }

    def gamma_term(a, b, c, d, k, l, j, u):
        return 0.25 * float(
            np.mean(scores[k][:, a] * weighted[(k, l)][:, b] * scores[j][:, c] * weighted[(j, u)][:, d])
        )

    def theta_term(a, b, c, d, k, l, j, u):
        return 0.5 * float(
            np.mean(scores[k][:, a] * weighted[(k, l)][:, b] * scores[j][:, c] * scores[u][:, d])
        )

    def lambda_term(a, b, c, d, k, l, j, u):
        return float(
            np.mean(scores[k][:, a] * scores[l][:, b] * scores[j][:, c] * scores[u][:, d])
        )

    total = 0.0
    for k, l in pairs:
        for j, u in pairs:
            total += (
                gamma_term(m, r, s, t, k, l, j, u)
                + gamma_term(m, r, t, s, k, l, j, u)
                + gamma_term(r, m, s, t, k, l, j, u)
                + gamma_term(r, m, t, s, k, l, j, u)
                - theta_term(m, r, s, t, k, l, j, u)
                - theta_term(r, m, s, t, k, l, j, u)
                - theta_term(s, t, m, r, k, l, j, u)
                - theta_term(t, s, m, r, k, l, j, u)
                + lambda_term(m, r, s, t, k, l, j, u)
            )
    return total


def test_c_coefficient_null_model_reduces_to_plain_moments():
    model = CovarianceModel(BlockStructure((1, 1, 1)), np.eye(3))
    white = _whitened_sample(model, 400, seed=149)
    solution = solve_mslca(model)
    beta = solution.beta
    scores = [white.rows[:, [k]] @ beta[[k], :] for k in range(3)]
    pairs = [(k, l) for k in range(3) for l in range(3) if k != l]
    for m, r, s, t in [(0, 0, 0, 0), (0, 1, 2, 0), (2, 1, 0, 2)]:
        lam_only = sum(
            float(np.mean(scores[k][:, m] * scores[l][:, r] * scores[j][:, c] * scores[u][:, t]))
            for k, l in pairs
            for j, u in pairs
            for c in [s]
        )
        value = _c_coefficient(white, solution, model, m, r, s, t)
        assert value == pytest.approx(lam_only, abs=1e-12)


def test_c_coefficient_symmetries():
    white = _whitened_sample(WHITENED_111, 500, seed=151)
    solution = solve_mslca(WHITENED_111)
    rng = np.random.default_rng(1)
    for _ in range(5):
        m, r, s, t = (int(i) for i in rng.integers(0, 3, size=4))
        base = _c_coefficient(white, solution, WHITENED_111, m, r, s, t)
        assert _c_coefficient(white, solution, WHITENED_111, r, m, s, t) == pytest.approx(base, abs=1e-9)
        assert _c_coefficient(white, solution, WHITENED_111, m, r, t, s) == pytest.approx(base, abs=1e-9)


def test_c_tensor_matches_c_coefficient():
    white = _whitened_sample(WHITENED_111, 300, seed=157)
    solution = solve_mslca(WHITENED_111)
    tensor = c_tensor(white, solution, WHITENED_111)
    for m in range(3):
        for r in range(3):
            for s in range(3):
                for t in range(3):
                    assert tensor[m, r, s, t] == pytest.approx(
                        _c_coefficient(white, solution, WHITENED_111, m, r, s, t), abs=1e-10
                    )


def test_c_tensor_matches_c_coefficient_multi_column_blocks():
    for model in (WHITENED_222, WHITENED_213):
        solution = solve_mslca(model)
        assert solution.is_simple
        white = _whitened_sample(model, 300, seed=159)
        tensor = c_tensor(white, solution, model)
        q = model.structure.total_dim
        assert tensor.shape == (q, q, q, q)
        diagonal_pairs = [(i, i, j, j) for i in range(q) for j in range(q)]
        rng = np.random.default_rng(2)
        random_entries = [tuple(int(i) for i in rng.integers(0, q, size=4)) for _ in range(50)]
        for m, r, s, t in diagonal_pairs + random_entries:
            assert tensor[m, r, s, t] == pytest.approx(
                _c_coefficient(white, solution, model, m, r, s, t), abs=1e-10
            )
        top = np.abs(tensor).max()
        for axes in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            np.testing.assert_allclose(tensor, tensor.transpose(axes), rtol=0, atol=1e-12 * top)


@pytest.mark.parametrize("dims, other", [((2, 1), (1, 2)), ((1, 1, 1), (1, 2))])
def test_c_tensors_refuse_mismatched_structures(dims, other):
    model = CovarianceModel(BlockStructure(dims), np.eye(sum(dims)))
    foreign = CovarianceModel(BlockStructure(other), np.eye(sum(other)))
    solution = solve_mslca(model)
    white = _whitened_sample(model, 50, seed=163)
    foreign_solution = solve_mslca(foreign)
    foreign_white = _whitened_sample(foreign, 50, seed=163)
    with pytest.raises(ValueError):
        c_tensor_gaussian(model, foreign_solution)
    with pytest.raises(ValueError):
        c_tensor(white, foreign_solution, model)
    with pytest.raises(ValueError):
        c_tensor(foreign_white, solution, model)


def test_c_tensors_refuse_a_solution_of_another_model():
    # the eigenbasis forms rest on Psi beta = beta rho; a foreign solution
    # with the same blocks breaks it by far more than round-off
    rng = np.random.default_rng(211)
    structure = BlockStructure((2, 1, 3))
    for _ in range(10):
        model, other = (random_whitened_model(rng, structure) for _ in range(2))
        white = _whitened_sample(model, 50, seed=int(rng.integers(1 << 30)))
        foreign = solve_mslca(other)
        with pytest.raises(ValueError, match="Psi beta = beta rho"):
            c_tensor_gaussian(model, foreign)
        with pytest.raises(ValueError, match="Psi beta = beta rho"):
            c_tensor(white, foreign, model)
    # the model's own solution passes up to its freedoms
    structure = WHITENED_213.structure
    q = structure.total_dim
    # column signs: each entry [m, r, s, t] turns by its four signs
    solution = solve_mslca(WHITENED_213)
    signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
    negated = dataclasses.replace(
        solution, beta=solution.beta * signs, alpha=solution.alpha * signs
    )
    expected = c_tensor_gaussian(WHITENED_213, solution) * np.einsum(
        "m,r,s,t->mrst", signs, signs, signs, signs
    )
    np.testing.assert_allclose(c_tensor_gaussian(WHITENED_213, negated), expected, atol=1e-14)
    white = _whitened_sample(WHITENED_213, 50, seed=227)
    c_tensor(white, negated, WHITENED_213)
    # any orthonormal basis of the null model's repeated eigenspace
    null = CovarianceModel(structure, np.eye(q))
    rotation = np.linalg.qr(rng.standard_normal((q, q)))[0]
    rotated = dataclasses.replace(solve_mslca(null), beta=rotation, alpha=rotation)
    c_tensor_gaussian(null, rotated)
    c_tensor(_whitened_sample(null, 50, seed=229), rotated, null)
    # diagonal blocks just inside the whitened tolerance, with their own solution
    bumps = sum(_symmetric_bump(rng, structure, k, k) for k in range(structure.n_blocks))
    near = CovarianceModel(structure, WHITENED_213.v + 0.9 * WHITENED_MODEL_ATOL * bumps)
    c_tensor_gaussian(near, solve_mslca(near))
    c_tensor(white, solve_mslca(near), near)


def _gamma_one_shot(white):
    """``build_gamma`` as one Gram product over the whole (n, d) pair-product array."""
    rows, cols = white.structure.cross_entries
    stacked = white.rows[:, rows] * white.rows[:, cols]
    matrix = stacked.T @ stacked / white.n
    return 0.5 * (matrix + matrix.T)


def _c_tensor_one_shot(white, solution, model):
    """``c_tensor`` as one Gram product over the whole (n, q^2) array of form values."""
    q = white.structure.total_dim
    forms = _eigenbasis_forms(model, solution).reshape(q * q, q * q)
    outer = (white.rows[:, :, None] * white.rows[:, None, :]).reshape(white.n, q * q)
    z = outer @ forms.T
    return (z.T @ z / white.n).reshape(q, q, q, q)


def test_row_gram_walks_the_rows_in_blocks(monkeypatch):
    # 200 rows and 5 features in blocks of 37 rows: five full blocks, then 15;
    # the walker sees the rows transposed, one observation per column
    rows = np.random.default_rng(181).standard_normal((200, 3))
    full = np.column_stack([rows, rows[:, :2] * rows[:, 1:]])

    def features(x, out):
        lengths.append(x.shape[1])
        buffers.add(out.__array_interface__["data"][0])
        out[:3] = x
        out[3:] = x[:2] * x[1:]

    for sample in (np.ascontiguousarray(rows.T), rows.T):  # a whitened-like and a C-ordered sample
        for budget in (37 * 8 * 5, 37 * 8 * 5 + 39):
            monkeypatch.setattr(mslca.asymptotics, "_GRAM_BLOCK_BYTES", budget)
            lengths, buffers = [], set()
            gram = _row_gram(sample, features, 5)
            assert lengths == [37] * 5 + [15]
            assert len(buffers) == 1  # the last, partial block reuses the buffer
            np.testing.assert_allclose(gram, full.T @ full, rtol=1e-12)
        monkeypatch.setattr(mslca.asymptotics, "_GRAM_BLOCK_BYTES", 1)  # below one row: a row a block
        lengths, buffers = [], set()
        np.testing.assert_allclose(_row_gram(sample, features, 5), full.T @ full, rtol=1e-12)
        assert lengths == [1] * 200 and len(buffers) == 1


def test_gram_estimators_over_several_row_blocks_match_oracles(monkeypatch):
    rng = np.random.default_rng(191)
    for i in range(8):
        model = random_whitened_model(rng, random_structure(rng))
        if i % 2:
            data = sample_gaussian(model, 200, rng)
        else:
            data = sample_student_t(model, 9.0, 200, rng)
        white = fit_mslca(data).whitened
        d = white.structure.cross_entries[0].size
        monkeypatch.setattr(mslca.asymptotics, "_GRAM_BLOCK_BYTES", 37 * 8 * d)
        gamma = build_gamma(white)
        np.testing.assert_allclose(gamma, _build_gamma_per_pair(white), rtol=1e-12)
        np.testing.assert_allclose(gamma, _gamma_one_shot(white), rtol=1e-12)
        assert np.array_equal(gamma, gamma.T)
        assert np.array_equal(build_gamma(white), gamma)
        # a C-ordered sample is transposed block by block into the same features
        assert np.array_equal(build_gamma(_c_ordered(white)), gamma)
    for model in (WHITENED_111, WHITENED_222, WHITENED_213):
        solution = solve_mslca(model)
        white = _whitened_sample(model, 300, seed=193, sampler="t", nu=9.0)
        q = model.structure.total_dim
        monkeypatch.setattr(mslca.asymptotics, "_GRAM_BLOCK_BYTES", 37 * 8 * q * q)
        tensor = c_tensor(white, solution, model)
        top = np.abs(tensor).max()
        np.testing.assert_allclose(
            tensor, _c_tensor_one_shot(white, solution, model), rtol=1e-12, atol=1e-12 * top
        )
        for m, r, s, t in [(0, 0, 0, 0), (0, 1, 2, 0), (q - 1, 0, 1, q - 1), (1, 1, 2, 2)]:
            assert tensor[m, r, s, t] == pytest.approx(
                _c_coefficient(white, solution, model, m, r, s, t), rel=1e-12, abs=1e-12 * top
            )
        assert np.array_equal(c_tensor(white, solution, model), tensor)
        assert np.array_equal(c_tensor(_c_ordered(white), solution, model), tensor)


def test_gram_estimators_in_one_block_are_the_one_shot_formulas():
    # at the default block budget these samples fit in one block, which must
    # give exactly the whole-sample Gram product
    for model in (WHITENED_111, WHITENED_213):
        solution = solve_mslca(model)
        white = _whitened_sample(model, 2000, seed=197, sampler="t", nu=9.0)
        assert np.array_equal(build_gamma(white), _gamma_one_shot(white))
        assert np.array_equal(build_gamma(white), build_gamma(white))
        tensor = c_tensor(white, solution, model)
        assert np.array_equal(tensor, _c_tensor_one_shot(white, solution, model))
        assert np.array_equal(c_tensor(white, solution, model), tensor)
        outside = _c_ordered(white)
        assert np.array_equal(build_gamma(outside), _gamma_one_shot(outside))
        assert np.array_equal(c_tensor(outside, solution, model), tensor)


@pytest.mark.parametrize("estimator", ["gamma", "c-tensor"])
def test_gram_working_memory_does_not_grow_with_n(monkeypatch, estimator):
    budget = 256 * 1024
    monkeypatch.setattr(mslca.asymptotics, "_GRAM_BLOCK_BYTES", budget)
    if estimator == "gamma":
        model = CovarianceModel(BlockStructure((5, 5, 5, 5)), np.eye(20))
        white = _whitened_sample(model, 20000, seed=199)
        result_bytes = 8 * white.structure.cross_entries[0].size ** 2

        def run(sample):
            return build_gamma(sample)
    else:
        solution = solve_mslca(WHITENED_222)
        white = _whitened_sample(WHITENED_222, 20000, seed=199)
        result_bytes = 8 * WHITENED_222.structure.total_dim ** 4

        def run(sample):
            return c_tensor(sample, solution, WHITENED_222)
    # a fit's whitened sample, and a C-ordered one from outside a fit, which
    # is transposed one block at a time rather than copied whole
    for sample in (white, _c_ordered(white)):
        tracemalloc.start()
        try:
            run(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's features and their factors, and a few result-sized arrays;
        # the whole-sample products held two n x width arrays (45.8 MB for Gamma here)
        assert peak < 3 * budget + 4 * result_bytes


def _eigenbasis_forms_from_psi(model, solution):
    """Reference for the eigenbasis forms, read from Psi without the eigen-relation.

    A[m, r] holds the off-diagonal blocks of beta_m beta_r^T, less half of
    the diagonal blocks of beta_m (Psi beta_r)^T + (Psi beta_m) beta_r^T,
    where Psi is the model's off-diagonal part.
    """
    beta = solution.beta
    diag_mask = model.structure.diagonal_mask.astype(float)
    off_mask = 1.0 - diag_mask
    psi_beta = (model.v * off_mask) @ beta
    return np.einsum("um,vr,uv->mruv", beta, beta, off_mask) - 0.5 * (
        np.einsum("um,vr,uv->mruv", beta, psi_beta, diag_mask)
        + np.einsum("um,vr,uv->mruv", psi_beta, beta, diag_mask)
    )


def _c_tensor_gaussian_from_psi(model, solution):
    """Reference for ``c_tensor_gaussian`` from the Psi forms, its mean term kept."""
    forms = _eigenbasis_forms_from_psi(model, solution)
    v = model.v
    a_sym = 0.5 * (forms + forms.transpose(0, 1, 3, 2))
    means = np.einsum("mruv,uv->mr", forms, v)
    av = np.einsum("mruv,vw->mruw", a_sym, v)
    cov = 2.0 * np.einsum("mruw,stwu->mrst", av, np.einsum("stwz,zu->stwu", a_sym, v))
    return cov + means[:, :, None, None] * means[None, None, :, :]


def test_eigenbasis_forms_match_psi_oracle_and_have_zero_mean():
    rng = np.random.default_rng(181)
    for _ in range(20):
        model = random_whitened_model(rng, random_structure(rng))
        solution = solve_mslca(model)
        forms = mslca.asymptotics._eigenbasis_forms(model, solution)
        oracle = _eigenbasis_forms_from_psi(model, solution)
        np.testing.assert_allclose(forms, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())
        # tr(A_mr V) = E <beta_m, Z(x) beta_r>, which is zero
        np.testing.assert_allclose(np.einsum("mruv,uv->mr", forms, model.v), 0.0, atol=1e-12)
        expected = _c_tensor_gaussian_from_psi(model, solution)
        np.testing.assert_allclose(
            c_tensor_gaussian(model, solution),
            expected,
            rtol=1e-12,
            atol=1e-12 * np.abs(expected).max(),
        )


def _limit_operator_products_mc(model, solution, n, seed):
    """Independent oracle: average products of eigenbasis-projected limit
    operator entries over fresh draws, evaluating the per-draw sums directly
    (no term-by-term expansion)."""
    rng = np.random.default_rng(seed)
    structure = model.structure
    beta = solution.beta
    data = sample_gaussian(model, n, rng).rows
    q = structure.total_dim
    g = np.zeros((n, q, q))
    for k in range(structure.n_blocks):
        for l in range(structure.n_blocks):
            if k == l:
                continue
            xk = data[:, structure.block_slice(k)]
            xl = data[:, structure.block_slice(l)]
            u_k = xk @ beta[structure.block_slice(k), :]
            u_l = xl @ beta[structure.block_slice(l), :]
            w_kl = xk @ (block(model, k, l) @ beta[structure.block_slice(l), :])
            g += (
                -0.5 * (np.einsum("im,ir->imr", w_kl, u_k) + np.einsum("ir,im->imr", w_kl, u_k))
                + np.einsum("im,ir->imr", u_l, u_k)
            )
    return np.einsum("imr,ist->mrst", g, g) / n, g, data


def test_limit_operator_products_equal_projected_z():
    solution = solve_mslca(WHITENED_111)
    _, g, data = _limit_operator_products_mc(WHITENED_111, solution, 5, seed=163)
    for i in range(5):
        projected = solution.beta.T @ _z_operator_per_pair(data[i], WHITENED_111) @ solution.beta
        np.testing.assert_allclose(g[i], projected, atol=1e-12)


def test_c_plugin_against_independent_oracles():
    solution = solve_mslca(WHITENED_111)
    closed_form = c_tensor_gaussian(WHITENED_111, solution)
    white = _whitened_sample(WHITENED_111, 150_000, seed=167)
    plug_in = c_tensor(white, solution, WHITENED_111)
    mc_oracle, _, _ = _limit_operator_products_mc(WHITENED_111, solution, 150_000, seed=173)
    assert np.abs(plug_in - mc_oracle).max() < 0.15
    assert np.abs(plug_in - closed_form).max() < 0.15
    assert np.abs(mc_oracle - closed_form).max() < 0.15


def test_sigma_matrix_simple_spectrum():
    solution = solve_mslca(WHITENED_111)
    assert solution.is_simple
    tensor = c_tensor_gaussian(WHITENED_111, solution)
    sigma = sigma_matrix(tensor, solution)
    np.testing.assert_allclose(sigma, sigma.T, atol=1e-9)
    assert np.all(np.diag(sigma) >= -1e-12)
    # read on and above the diagonal, mirrored below it
    for i in range(3):
        for j in range(i, 3):
            assert sigma[i, j] == tensor[i, i, j, j]
            assert sigma[j, i] == tensor[i, i, j, j]


def test_sigma_matrix_rejects_wrong_tensor_shape():
    solution = solve_mslca(WHITENED_111)
    tensor = c_tensor_gaussian(WHITENED_111, solution)
    for bad in (np.zeros((4, 4, 4, 4)), np.zeros((2, 2, 2, 2)), tensor[..., 0], np.zeros((3, 3, 3, 4))):
        with pytest.raises(ValueError, match="shape"):
            sigma_matrix(bad, solution)


def test_sigma_matrix_repeated_eigenvalues_guard():
    model = equicorrelation_model(3, 0.5)
    solution = solve_mslca(model)
    tensor = c_tensor_gaussian(model, solution)
    with pytest.raises(RepeatedEigenvaluesError):
        sigma_matrix(tensor, solution)


def _monte_carlo_tail(weights, observed, draws, seed):
    """Seeded Monte Carlo estimate of P(sum_i w_i chi2_1 >= observed): the oracle."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights = np.asarray(weights, dtype=float)
    hits = 0
    chunk = max(1, 4_000_000 // weights.size)
    for start in range(0, draws, chunk):
        normals = rng.standard_normal((min(chunk, draws - start), weights.size))
        hits += int(np.count_nonzero((normals * normals) @ weights >= observed))
    return hits / draws


def test_quad_form_pvalue_zero_observed():
    dist = EigenChiSquareDist(np.ones(3))
    assert quad_form_pvalue(dist, 0.0) == 1.0
    assert quad_form_pvalue(EigenChiSquareDist([2.0, 0.5]), 0.0) == 1.0


def test_quad_form_pvalue_all_zero_weights():
    dist = EigenChiSquareDist([0.0, -1e-9, 0.0])
    assert quad_form_pvalue(dist, 0.0) == 1.0
    assert quad_form_pvalue(dist, 1e-300) == 0.0
    assert quad_form_pvalue(dist, 3.0) == 0.0


def _bracket(weights, x):
    """The exact tails of lam chi2(m) and lam chi2(M), which bound P(Q >= x) below and above."""
    positive = np.asarray(weights, dtype=float)
    positive = positive[positive > 0.0]
    lam = positive.max()
    with np.errstate(over="ignore"):  # x / lam = inf is a tail of 0
        y = x / lam
    return _chi2_sf(int(np.sum(positive == lam)), y), _chi2_sf(positive.size, y)


@pytest.mark.parametrize("weights", [[1.0, 2.0], [0.5, 1.0, 2.0], [1e-200, 2e-200]])
def test_quad_form_pvalue_decides_the_extremes_from_its_bracket(weights):
    # far below and far above the body of Q the two exact tails agree within
    # TAIL_ATOL, so the tail is decided without the inversion and its overflows
    dist = EigenChiSquareDist(weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e-300, 1e-307, 1e-308, 5e-324):
            assert quad_form_pvalue(dist, x) == 1.0
        p = quad_form_pvalue(dist, 1e300)
        assert _bracket(weights, 1e300)[0] <= p <= TAIL_ATOL
        for x in np.r_[0.0, np.geomspace(1e-300, 1e300, 241)]:
            lower, upper = _bracket(weights, x)
            assert lower <= quad_form_pvalue(dist, x) <= upper


def test_quad_form_pvalue_is_the_inversion_inside_a_wide_bracket():
    rng = np.random.default_rng(312)
    inside = 0
    for _ in range(30):
        lam = rng.uniform(0.05, 3.0, size=int(rng.integers(2, 13)))
        mult = rng.integers(1, 4, size=lam.size)
        weights = np.repeat(lam, mult)
        dist = EigenChiSquareDist(weights)
        order = np.argsort(lam)[::-1]
        for x in weights.sum() * np.array([0.05, 0.5, 1.0, 2.0, 4.0]):
            lower, upper = _bracket(weights, x)
            if upper - lower <= TAIL_ATOL:
                continue
            p = quad_form_pvalue(dist, x)
            inverted = _inversion_sf(lam[order], mult[order].astype(float), x)
            assert lower <= p <= upper
            if lower <= inverted <= upper:
                assert p == inverted
                inside += 1
    assert inside > 100


def test_quad_form_pvalue_chi2_twelve_quantile():
    # 21.0261 is the 0.95 quantile of chi-square(12), rounded to 4 decimals
    dist = EigenChiSquareDist(np.ones(12))
    assert quad_form_pvalue(dist, 21.0261) == pytest.approx(0.05, abs=1e-6)


def test_quad_form_pvalue_single_weight_scaling():
    lam, x = 2.5, 4.0
    dist = EigenChiSquareDist([lam, 0.0])
    expected = float(stats.chi2.sf(x / lam, df=1))
    assert quad_form_pvalue(dist, x) == pytest.approx(expected, rel=1e-14)
    # one distinct weight closes the bracket: the tail is _chi2_sf itself
    for lam, m in ((2.5, 1), (0.3, 2), (1.0, 7), (1e-3, 600)):
        dist = EigenChiSquareDist(np.r_[np.full(m, lam), 0.0])
        for x in (0.0, 1e-300, 1e-3 * lam, lam, 2.5 * m * lam, 40.0 * m * lam, 1e300):
            assert quad_form_pvalue(dist, x) == _chi2_sf(m, x / lam)


def test_quad_form_pvalue_grid_against_chi2_cdf():
    d = 3
    dist = EigenChiSquareDist(np.ones(d))
    for level in (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
        x = float(stats.chi2.ppf(level, df=d))
        assert quad_form_pvalue(dist, x) == pytest.approx(1.0 - level, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 12, 600])
def test_quad_form_pvalue_equal_weights_match_chi2(d):
    # alternate weights differ by 1e-13, so for d >= 2 the bracket of exact
    # tails is wide in the body of Q and the inversion sum runs there; that
    # moves the exact tail by far less than 1e-8
    weights = 1.0 + 1e-13 * (np.arange(d) % 2)
    dist = EigenChiSquareDist(weights)
    for level in (1e-9, 1e-3, 0.05, 0.5, 0.95, 1 - 1e-9):
        x = float(stats.chi2.isf(level, df=d))
        assert abs(quad_form_pvalue(dist, x) - stats.chi2.sf(x, df=d)) <= 1e-8


def test_quad_form_pvalue_even_multiplicities_closed_form():
    # each distinct weight twice: the law is a mixture of exponential tails,
    # P(Q >= x) = sum_j prod_{i != j} lam_j / (lam_j - lam_i) exp(-x / (2 lam_j))
    lam = np.array([2.0, 1.0, 0.5, 0.2])
    dist = EigenChiSquareDist(np.repeat(lam, 2))
    coef = np.array([np.prod([lj / (lj - li) for li in lam if li != lj]) for lj in lam])
    for x in (1e-6, 1e-2, 0.5, 3.0, 7.4, 20.0, 60.0):
        exact = float(np.sum(coef * np.exp(-x / (2.0 * lam))))
        assert abs(quad_form_pvalue(dist, x) - exact) <= TAIL_ATOL


@pytest.mark.parametrize("weights", [[1.0, 0.3], [2.0, 1.0, 0.5], list(np.linspace(1.6, 0.4, 12))])
def test_quad_form_pvalue_unequal_weights_match_monte_carlo(weights):
    draws = 1_000_000
    dist = EigenChiSquareDist(weights)
    mean = float(np.sum(weights))
    for x in (0.5 * mean, mean, 2.5 * mean):
        p = quad_form_pvalue(dist, x)
        oracle = _monte_carlo_tail(weights, x, draws, seed=len(weights))
        se = np.sqrt(p * (1.0 - p) / draws)
        assert abs(p - oracle) <= 4 * se


@pytest.mark.parametrize("d", [2, 3, 12])
def test_quad_form_pvalue_far_tail_is_positive(d):
    # a sampled tail would read exactly 0 here unless some draw reached x
    weights = 1.0 + 1e-13 * (np.arange(d) % 2)
    x = float(stats.chi2.isf(1e-9, df=d))
    p = quad_form_pvalue(EigenChiSquareDist(weights), x)
    assert 0.0 < p <= 1e-8


def test_quad_form_pvalue_near_zero_weights_stay_cheap():
    # near-zero Gamma eigenvalues must not inflate the number of terms
    weights = np.r_[[1.5, 1.0, 0.7], np.geomspace(1e-9, 1e-14, 40)]
    dist = EigenChiSquareDist(weights)
    leading = EigenChiSquareDist(weights[:3])
    lam = dist.weights
    for x in (0.01, 3.2, 15.0):
        n_terms = mslca.asymptotics._tail_plan(lam, np.ones(lam.size), x, TAIL_ATOL / 2)[2]
        assert n_terms <= 1000
        # the tiny weights move Q by about 4e-9 on average
        assert abs(quad_form_pvalue(dist, x) - quad_form_pvalue(leading, x)) < 1e-7


def test_quad_form_pvalue_raises_when_budget_is_too_small(monkeypatch):
    monkeypatch.setattr(mslca.asymptotics, "_TERM_GRID", np.array([1, 2]))
    with pytest.raises(MslcaError, match="terms"):
        quad_form_pvalue(EigenChiSquareDist([1.0, 0.3]), 1.3)


def test_quad_form_pvalue_refuses_bools_and_strings():
    # float(True) and float("1.0") are 1.0: either would read as a statistic of 1
    dist = EigenChiSquareDist([1.0, 0.5])
    bad_values = (True, np.True_, False, "1.0", b"1.0", np.str_("1.0"), None, [1.0], {},
                  -1.0, float("nan"), float("inf"))
    for bad in bad_values:
        with pytest.raises(ValueError, match="finite nonnegative number"):
            quad_form_pvalue(dist, bad)
    assert quad_form_pvalue(dist, np.float64(1.0)) == quad_form_pvalue(dist, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 12, 13, 99, 600, 601, 2000, 5001])
def test_chi2_sf_matches_scipy(d):
    x = np.r_[0.0, 1e-300, np.linspace(0.01, 12 * d + 200, 3000)]
    expected = special.chdtrc(d, x)
    got = np.array([_chi2_sf(d, v) for v in x])
    body = expected >= 1e-300
    assert body.sum() > 100
    # scipy's own far-tail error grows with d: 4.6e-12 at d = 5001 against 40-digit arithmetic
    np.testing.assert_allclose(got[body], expected[body], rtol=1e-12 if d <= 601 else 1e-10, atol=0.0)
    # below 1e-300 the tail only has to stay a tiny probability
    assert np.all((got[~body] >= 0.0) & (got[~body] < 1e-290))
    assert _chi2_sf(d, 0.0) == 1.0
    assert _chi2_sf(d, np.inf) == 0.0
    assert _chi2_sf(d, 1e308) == 0.0


def test_quad_form_pvalue_deterministic():
    dist = EigenChiSquareDist([2.0, 1.0, 0.5])
    assert quad_form_pvalue(dist, 3.7) == quad_form_pvalue(dist, 3.7)


def test_gamma_eigenvalue_clamp_and_abort():
    # Gamma's weights reach the distribution as eigvalsh of the plain matrix:
    # a round-off negative eigenvalue is clamped to zero, a real one aborts
    ok = np.linalg.eigvalsh(np.array([[1.0]]) * -1e-9)
    assert EigenChiSquareDist(ok).weights[0] == 0.0
    bad = np.linalg.eigvalsh(np.array([[-1e-3]]))
    with pytest.raises(NegativeWeightError):
        EigenChiSquareDist(bad)


def test_eigen_chi_square_dist_validation():
    # the one weight check: round-off negatives down to the clamp floor
    # become zero, anything lower is refused, alone or among other weights
    for weights in ([1.0, -1e-3], [-1e-3]):
        with pytest.raises(NegativeWeightError):
            EigenChiSquareDist(weights)
    dist = EigenChiSquareDist([0.5, 1.0, -1e-9])
    assert np.array_equal(dist.weights, [1.0, 0.5, 0.0])
    assert not dist.weights.flags.writeable
    assert EigenChiSquareDist([mslca.asymptotics.WEIGHT_CLAMP_FLOOR]).weights[0] == 0.0
    with pytest.raises(ValueError):
        quad_form_pvalue(dist, -1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            quad_form_pvalue(dist, bad)
    with pytest.raises(ValueError):
        EigenChiSquareDist([1.0, float("nan")])
    with pytest.raises(ValueError, match="at least one weight"):
        EigenChiSquareDist([])
    # a scalar or a matrix of weights is refused by shape, not by numpy's sort
    for bad in (1.0, np.ones((2, 2)), [[1.0, 0.5]]):
        message = f"1-d array of at least one weight, got shape {np.shape(bad)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            EigenChiSquareDist(bad)


def _plugin_scale(data):
    """The elliptical scale the chi-square route estimates from a sample."""
    return chi2_test(fit_mslca(data), scale="plugin").scale


TWO_POINT = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def test_elliptical_scale_plugin_two_point_design():
    data = Dataset(BlockStructure((1, 1)), np.tile(TWO_POINT, (10, 1)))
    assert _plugin_scale(data) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_elliptical_scale_plugin_gaussian_and_t():
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    rng = np.random.default_rng(179)
    gauss = sample_gaussian(model, 20000, rng)
    assert _plugin_scale(gauss) == pytest.approx(1.0, abs=0.08)
    heavy = sample_student_t(model, 10, 20000, rng)
    assert _plugin_scale(heavy) == pytest.approx(4.0 / 3.0, abs=0.25)


def test_elliptical_scale_plugin_whitens_the_sample_first():
    # a scaled or shifted two-point design whitens back to the design itself
    for rows in (2.0 * np.tile(TWO_POINT, (10, 1)), 1.0 + np.tile(TWO_POINT, (10, 1))):
        assert _plugin_scale(Dataset(BlockStructure((1, 1)), rows)) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )


def test_elliptical_scale_plugin_needs_thirty_rows():
    data = Dataset(BlockStructure((1, 1)), np.tile(TWO_POINT, (2, 1)))
    with pytest.raises(InsufficientSampleError):
        _plugin_scale(data)
