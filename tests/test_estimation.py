"""Empirical covariance arithmetic, fitting, alignment and whitening."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from mslca import (
    BlockStructure,
    CovarianceModel,
    Dataset,
    InsufficientSampleError,
    NearSingularError,
    SimulationPlan,
    align_sign,
    build_gamma,
    fit_mslca,
    psd_sqrt,
    run_experiment,
    sample_gaussian,
    sample_student_t,
    solve_mslca,
    sym_power,
    whiten,
)
from mslca.asymptotics import _require_whitened_data
from mslca.blocks import require_symmetric
from mslca.estimation import _fit_stack, _means_and_covs
from mslca.exceptions import CovarianceOverflowError
from conftest import (
    blockdiag,
    correlation_model,
    random_block_transforms,
    random_spd_model,
    random_structure,
    s_statistic,
)


def test_dataset_validation():
    s = BlockStructure((1, 1))
    with pytest.raises(ValueError):
        Dataset(s, np.zeros((2, 3)))
    with pytest.raises(ValueError) as exc:
        Dataset(s, np.array([[1.0, np.nan], [0.0, 1.0]]))
    assert "row 0" in str(exc.value) and "column 1" in str(exc.value)
    single = Dataset(s, np.array([[1.0, 2.0]]))
    assert single.n == 1
    with pytest.raises(ValueError, match="at least one row"):
        Dataset(s, np.zeros((0, 2)))


def test_empirical_cov_examples():
    # neither sample can be fitted, so read the one covariance routine directly
    s = BlockStructure((1, 1))
    identical = Dataset(s, [[1.0, 2.0], [1.0, 2.0]])
    assert np.array_equal(_means_and_covs([identical])[1][0], np.zeros((2, 2)))

    two_point = Dataset(s, [[-1.0, -1.0], [1.0, 1.0]])
    assert np.array_equal(_means_and_covs([two_point])[1][0], [[1.0, 1.0], [1.0, 1.0]])


def test_means_and_covs_match_exact_sums_and_stacks_change_no_bit():
    # columns on large offsets, where a running sum down the rows loses about
    # sqrt(n) eps of the mean; the oracle is the exactly rounded sum
    eps = np.finfo(float).eps
    structure = BlockStructure((2, 2))
    rng = np.random.default_rng(127)
    for n in (2000, 10000, 20000):
        samples = []
        for _ in range(4):
            offsets = 1e8 + rng.uniform(-1e5, 1e5, 4)
            mixing = rng.uniform(-1.0, 1.0, (4, 4)) * rng.uniform(1e2, 1e5, 4)
            samples.append(Dataset(structure, offsets + rng.standard_normal((n, 4)) @ mixing))
        means, covs, stacks = _means_and_covs(samples)
        for data, mean, cov, stack in zip(samples, means, covs, stacks):
            # the stack the fits whiten from is each sample less its means
            assert np.array_equal(stack, (data.rows - mean).T)
            exact = np.array([math.fsum(column) / n for column in data.rows.T])
            centred = data.rows - exact  # exact: every entry is within a factor 2 of its mean
            exact_cov = np.array(
                [[math.fsum(centred[:, a] * centred[:, b]) / n for b in range(4)] for a in range(4)]
            )
            mean_abs = np.abs(data.rows).mean(axis=0)
            ulps = np.abs(mean - exact) / (eps * mean_abs)
            assert (ulps <= 3.0).all(), (n, ulps)
            largest = np.diag(exact_cov).max()
            np.testing.assert_allclose(cov, exact_cov, rtol=0, atol=1e-12 * largest)
    # the chunk shapes of the perfbench workloads: a stacked fit is each
    # sample's own fit, bit for bit
    null_222 = CovarianceModel(BlockStructure((2, 2, 2)), np.eye(6))
    whitened_111 = correlation_model((1, 1, 1), {(1, 0): 0.3, (2, 0): 0.15, (2, 1): 0.1})
    chunks = [
        [sample_gaussian(null_222, 2000, seed) for seed in range(8)],
        [sample_student_t(null_222, 10.0, 5000, seed) for seed in range(3)],
        [sample_gaussian(whitened_111, 10000, seed) for seed in range(3)],
    ]
    for samples in chunks:
        for stacked, data in zip(_fit_stack(samples), samples):
            alone = fit_mslca(data)
            for a, b in (
                (stacked.means, alone.means),
                (stacked.vhat, alone.vhat),
                (stacked.that, alone.that),
                (stacked.solution.rho, alone.solution.rho),
                (stacked.solution.beta, alone.solution.beta),
            ):
                assert np.array_equal(a, b)
            assert stacked.s == alone.s
            assert type(stacked.vhat) is np.ndarray and not stacked.vhat.flags.writeable
            # the whitened sample and its fourth moments, read from the stack
            assert np.array_equal(stacked.whitened.rows, alone.whitened.rows)
            assert not stacked.whitened.rows.flags.writeable
            assert np.array_equal(build_gamma(stacked.whitened), build_gamma(alone.whitened))


def test_empirical_cov_divisor_is_n():
    s = BlockStructure((1, 1))
    rows = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    vhat = fit_mslca(Dataset(s, rows)).vhat
    np.testing.assert_allclose(vhat, np.eye(2), atol=1e-15)  # divisor 4, not 3


def test_empirical_cov_monte_carlo_rate():
    rng = np.random.default_rng(71)
    model = random_spd_model(rng, BlockStructure((2, 2)))
    errs = []
    for n in (500, 8000):
        data = sample_gaussian(model, n, rng)
        errs.append(np.abs(fit_mslca(data).vhat - model.v).max())
    assert errs[1] < errs[0]
    assert errs[1] < 4 * np.sqrt(np.diag(model.v).max() ** 2 / 8000) * 4


def test_fit_two_point_design():
    s = BlockStructure((1, 1))
    data = Dataset(s, [[-1.0, -1.0], [1.0, 1.0]])
    fit = fit_mslca(data)
    np.testing.assert_allclose(fit.solution.rho, [1.0, -1.0], atol=1e-12)
    # the fit keeps no reference to its sample and leaves no copy in its repr
    assert fit.n == 2
    assert "data=" not in repr(fit)


def test_fit_keeps_no_reference_to_its_sample():
    # the fit keeps only the centred copy of its sample, so the caller's can go
    rng = np.random.default_rng(115)
    structure = BlockStructure((2, 1, 3))
    data = sample_student_t(random_spd_model(rng, structure), 9.0, 200, rng)
    expected = whiten(data).rows
    fit = fit_mslca(data)
    sample, rows = weakref.ref(data), weakref.ref(data.rows)
    del data
    gc.collect()
    assert sample() is None and rows() is None
    assert not hasattr(fit, "data")
    assert fit.n == 200 and fit.structure == structure
    assert np.array_equal(fit.whitened.rows, expected)


def test_fit_collinear_block_raises_with_block_index():
    s = BlockStructure((2, 1))
    rng = np.random.default_rng(73)
    base = rng.standard_normal((40, 1))
    rows = np.hstack([base, base, rng.standard_normal((40, 1))])
    with pytest.raises(NearSingularError) as exc:
        fit_mslca(Dataset(s, rows))
    assert exc.value.block == 0


@pytest.mark.parametrize(
    "dims, copies, constant, block",
    [
        ((1, 2, 1), {}, 3, 2),
        ((2, 1, 2), {1: 0, 4: 3}, None, 0),
        ((2, 1, 2), {4: 3}, 2, 1),  # size 2 is powered first, yet block 1 is named
    ],
)
def test_blocks_powered_together_name_the_lowest_singular_block(dims, copies, constant, block):
    structure = BlockStructure(dims)
    rows = np.random.default_rng(74).standard_normal((40, structure.total_dim))
    for column, source in copies.items():
        rows[:, column] = rows[:, source]
    if constant is not None:
        rows[:, constant] = 0.3
    data = Dataset(structure, rows)
    with pytest.raises(NearSingularError) as exc:
        fit_mslca(data)
    assert exc.value.block == block
    sl = structure.block_slice(block)
    with pytest.raises(NearSingularError) as alone:
        sym_power(require_symmetric(_means_and_covs([data])[1][0])[sl, sl], -0.5)
    assert (exc.value.lambda_min, exc.value.lambda_max) == (
        alone.value.lambda_min,
        alone.value.lambda_max,
    )


def test_fit_solution_is_read_only_and_equals_its_covariances_own():
    structure = BlockStructure((2, 1, 2))
    model = random_spd_model(np.random.default_rng(76), structure)
    samples = [sample_gaussian(model, 200, seed) for seed in (76, 77)]
    for fit in (fit_mslca(samples[1]), _fit_stack(samples)[1]):
        # blocks 0 and 2 are powered together, each as it would be alone
        for k in range(structure.n_blocks):
            sl = structure.block_slice(k)
            assert np.array_equal(fit.inv_root[sl, sl], sym_power(fit.vhat[sl, sl], -0.5))
        solution = fit.solution
        expected = solve_mslca(CovarianceModel(fit.structure, fit.vhat))
        for name in ("rho", "beta", "alpha"):
            assert np.array_equal(getattr(solution, name), getattr(expected, name))
            assert not getattr(solution, name).flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.solution = expected
        with pytest.raises(dataclasses.FrozenInstanceError):
            del fit.solution
        assert fit.solution is solution


def test_package_built_datasets_are_read_only_and_not_copied(monkeypatch):
    structure = BlockStructure((2, 1))
    model = random_spd_model(np.random.default_rng(75), structure)
    gauss = sample_gaussian(model, 60, 75)
    heavy = sample_student_t(model, 8.0, 60, 75)
    built = [gauss, heavy, whiten(gauss)]
    for data in built:
        assert not data.rows.flags.writeable
        with pytest.raises(ValueError):
            data.rows[0, 0] = 1.0
    # the sample is the seeded draw itself
    rng = np.random.default_rng(np.random.SeedSequence(75))
    np.testing.assert_array_equal(gauss.rows, rng.standard_normal((60, 3)) @ psd_sqrt(model.v))
    # the public constructor still copies; the private path adopts the array
    raw = np.ones((4, 3))
    public = Dataset(structure, raw)
    raw[0, 0] = 7.0
    assert public.rows[0, 0] == 1.0 and raw.flags.writeable
    adopted = Dataset._from_fresh(structure, raw)
    assert adopted.rows is raw and not raw.flags.writeable
    with pytest.raises(ValueError, match="non-finite"):
        Dataset._from_fresh(structure, np.full((2, 3), np.nan))
    # records are the same as when every Dataset is a copy
    plan = SimulationPlan(
        kind="null-dist", model=CovarianceModel(structure, np.eye(3)), sizes=(60,),
        replications=4, sampler="student-t", nu=8.0, seed=5, methods=("chi2", "general"),
    )
    fresh = run_experiment(plan)
    monkeypatch.setattr(Dataset, "_from_fresh", classmethod(lambda cls, s, rows: cls(s, rows)))
    copied = run_experiment(plan)
    assert fresh.records == copied.records


def test_fit_independent_blocks_shrinks_with_n():
    rng = np.random.default_rng(79)
    s = BlockStructure((2, 2))
    model_v = np.eye(4)
    from mslca import CovarianceModel

    model = CovarianceModel(s, model_v)
    maxima = []
    for n in (200, 20000):
        fit = fit_mslca(sample_gaussian(model, n, rng))
        maxima.append(np.abs(fit.solution.rho).max())
    assert maxima[1] < maxima[0]


def test_fit_insufficient_sample():
    s = BlockStructure((1, 1))
    with pytest.raises(InsufficientSampleError):
        fit_mslca(Dataset(s, [[1.0, 2.0]]))


def test_align_sign():
    b = np.array([1.0, 2.0])
    assert np.array_equal(align_sign(-b, b), b)
    assert np.array_equal(align_sign(b, b), b)
    orth = np.array([2.0, -1.0])
    assert np.array_equal(align_sign(orth, b), orth)  # sign(0) = +1
    with pytest.raises(ValueError):
        align_sign(np.zeros(3), b)


def test_whiten_properties():
    rng = np.random.default_rng(83)
    model = random_spd_model(rng, BlockStructure((2, 3)))
    data = sample_gaussian(model, 400, rng)
    white = whiten(data)
    vhat = fit_mslca(white).vhat
    for k in range(2):
        sl = white.structure.block_slice(k)
        np.testing.assert_allclose(vhat[sl, sl], np.eye(white.structure.dims[k]), atol=1e-9)
    again = whiten(white)
    np.testing.assert_allclose(again.rows, white.rows, atol=1e-8)


def test_whiten_scalar_block_halves():
    s = BlockStructure((1, 1))
    col = np.array([-2.0, 2.0, -2.0, 2.0])  # variance 4
    rows = np.column_stack([col, np.array([-1.0, 1.0, 1.0, -1.0])])
    white = whiten(Dataset(s, rows))
    np.testing.assert_allclose(white.rows[:, 0], col / 2.0, atol=1e-12)


def test_whiten_near_singular_names_block():
    s = BlockStructure((1, 2))
    rng = np.random.default_rng(89)
    base = rng.standard_normal((30, 1))
    rows = np.hstack([rng.standard_normal((30, 1)), base, base])
    with pytest.raises(NearSingularError) as exc:
        whiten(Dataset(s, rows))
    assert exc.value.block == 1


def test_spectrum_invariant_under_data_transforms():
    rng = np.random.default_rng(97)
    structure = random_structure(rng)
    model = random_spd_model(rng, structure)
    data = sample_gaussian(model, 300, rng)
    mats = random_block_transforms(rng, structure)
    transformed = Dataset(structure, data.rows @ blockdiag(structure, mats).T)
    rho = fit_mslca(data).solution.rho
    rho_t = fit_mslca(transformed).solution.rho
    np.testing.assert_allclose(rho, rho_t, atol=1e-8)


def test_fit_on_whitened_equals_fit_on_raw():
    rng = np.random.default_rng(101)
    structure = BlockStructure((2, 2, 1))
    model = random_spd_model(rng, structure)
    data = sample_gaussian(model, 250, rng)
    rho_raw = fit_mslca(data).solution.rho
    rho_white = fit_mslca(whiten(data)).solution.rho
    np.testing.assert_allclose(rho_raw, rho_white, atol=1e-8)


def test_that_diagonal_blocks_exactly_zero():
    rng = np.random.default_rng(103)
    structure = BlockStructure((2, 2))
    model = random_spd_model(rng, structure)
    fit = fit_mslca(sample_gaussian(model, 100, rng))
    for k in range(2):
        sl = structure.block_slice(k)
        assert np.array_equal(fit.that[sl, sl], np.zeros((structure.dims[k],) * 2))


def test_fit_carries_its_statistic_and_read_only_arrays():
    rng = np.random.default_rng(107)
    structure = BlockStructure((2, 1, 2))
    model = random_spd_model(rng, structure)
    fit = fit_mslca(sample_gaussian(model, 150, rng))
    assert fit.s == s_statistic(fit.that, structure)
    assert fit.s == pytest.approx(0.5 * float(np.sum(fit.solution.rho**2)), rel=1e-12)
    solution = fit.solution
    for arr in (fit.means, fit.vhat, fit.that, solution.rho, solution.alpha, fit.inv_root):
        assert not arr.flags.writeable
    # the covariance is a plain array, as the other derived matrices are
    assert type(fit.vhat) is np.ndarray and fit.vhat.shape == (5, 5)


def test_fit_whitened_is_its_sample_whitened_read_only():
    rng = np.random.default_rng(109)
    model = random_spd_model(rng, BlockStructure((2, 1, 3)))
    data = sample_student_t(model, 9.0, 200, rng)
    fit = fit_mslca(data)
    white = fit.whitened
    assert white is fit.whitened and white.structure == data.structure
    assert not white.rows.flags.writeable
    with pytest.raises(ValueError):
        white.rows[0, 0] = 1.0
    _require_whitened_data(white.rows, white.structure)
    structure = data.structure
    assert not fit.inv_root[~structure.diagonal_mask].any()
    slices = [structure.block_slice(k) for k in range(structure.n_blocks)]
    for sl in slices:
        np.testing.assert_allclose(
            fit.inv_root[sl, sl], sym_power(fit.vhat[sl, sl], -0.5), rtol=0, atol=1e-12
        )
    expected = np.hstack([(data.rows - fit.means)[:, sl] @ fit.inv_root[sl, sl] for sl in slices])
    np.testing.assert_allclose(white.rows, expected, rtol=0, atol=1e-12)


def test_whiten_is_the_fits_whitened_sample():
    rng = np.random.default_rng(111)
    for i in range(20):
        model = random_spd_model(rng, random_structure(rng))
        if i % 2:
            data = sample_gaussian(model, int(rng.integers(50, 400)), rng)
        else:
            data = sample_student_t(model, 9.0, int(rng.integers(50, 400)), rng)
        assert np.array_equal(whiten(data).rows, fit_mslca(data).whitened.rows)


def test_covariance_overflow_is_named():
    # finite entries whose squares leave the float range
    data = Dataset(BlockStructure((2, 2)), 1e200 * np.random.default_rng(113).standard_normal((50, 4)))
    for step in (fit_mslca, whiten):
        with pytest.raises(CovarianceOverflowError, match="covariance overflows"):
            step(data)


def test_covariance_underflow_is_named():
    # variances below the smallest normal float have lost their precision;
    # scaled by 1e-150 the variances are still normal and the fit is exact
    model = correlation_model((2, 2), {(1, 0): [[0.3, 0.1], [0.0, 0.2]]})
    rows = sample_gaussian(model, 200, 415).rows
    structure = BlockStructure((2, 2))
    rho = fit_mslca(Dataset(structure, rows)).solution.rho
    scaled = fit_mslca(Dataset(structure, 1e-150 * rows)).solution.rho
    np.testing.assert_allclose(scaled, rho, rtol=0, atol=1e-14)
    for scale in (1e-155, 1e-161):
        data = Dataset(structure, scale * rows)
        for step in (fit_mslca, whiten):
            with pytest.raises(CovarianceOverflowError, match="covariance underflows"):
                step(data)
    # variances that underflow to exactly zero although their columns vary
    for scale in (1e-170, 1e-200):
        with pytest.raises(CovarianceOverflowError, match="covariance underflows"):
            fit_mslca(Dataset(structure, scale * rows))
    last_tiny = Dataset(BlockStructure((1, 1, 1)), rows[:40, :3] * [1.0, 1.0, 1e-300])
    with pytest.raises(CovarianceOverflowError, match="covariance underflows"):
        fit_mslca(last_tiny)
    # a zero variance of a constant column is a singular block, not an underflow,
    # even where the rounded mean leaves the centred column nonzero
    # (a 1x1 block included, whose own lambda_max is then zero too), at lengths
    # that cross numpy's 8- and 128-element blocks of pairwise summation
    for n in (3, 129, 200, 10000):
        head = sample_gaussian(model, n, 415).rows[:, :3]
        for value in (0.0, 3.3e-200, 1e-170, 0.1, -7.7, 1e8):
            columns = np.column_stack([head, np.full(n, value)])
            for dims, block in (((2, 2), 1), ((2, 1, 1), 2)):
                with pytest.raises(NearSingularError) as caught:
                    fit_mslca(Dataset(BlockStructure(dims), columns))
                assert caught.value.block == block, (n, value, dims)
