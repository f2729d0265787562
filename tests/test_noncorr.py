"""Mutual non-correlation statistic and both test routes."""

import dataclasses
import re
from decimal import Decimal

import numpy as np
import pytest
from scipy import stats

import mslca.asymptotics
import mslca.noncorr
from mslca.asymptotics import TAIL_ATOL, _kurtosis_scale, _require_whitened_data
from mslca import (
    BlockStructure,
    CovarianceModel,
    Dataset,
    build_t,
    chi2_test,
    degrees_of_freedom,
    fit_mslca,
    general_test,
    sample_gaussian,
    sample_student_t,
    whiten,
)
from conftest import (
    blockdiag,
    correlation_model,
    random_block_transforms,
    random_spd_model,
    random_structure,
    s_statistic,
)

UNCORRELATED_ROWS = np.array(
    [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]] * 10
)


def test_s_statistic_zero():
    assert s_statistic(np.zeros((2, 2)), BlockStructure((1, 1))) == 0.0


def test_s_statistic_single_pair():
    that = np.array([[0.0, 0.3], [0.3, 0.0]])
    assert s_statistic(that, BlockStructure((1, 1))) == pytest.approx(0.09, abs=1e-15)


def test_s_statistic_spectral_identity():
    rng = np.random.default_rng(181)
    structure = random_structure(rng)
    model = random_spd_model(rng, structure)
    fit = fit_mslca(sample_gaussian(model, 150, rng))
    s = s_statistic(fit.that, structure)
    assert 2 * s == pytest.approx(float(np.sum(fit.solution.rho**2)), abs=1e-9)


def test_s_statistic_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal block 0"):
        s_statistic(np.array([[0.5, 0.0], [0.0, 0.0]]), BlockStructure((1, 1)))
    that = np.zeros((3, 3))
    that[2, 1] = 0.5
    with pytest.raises(ValueError, match="diagonal block 1"):
        s_statistic(that, BlockStructure((1, 2)))
    with pytest.raises(ValueError, match="shape"):
        s_statistic(np.zeros(2), BlockStructure((1, 1)))


def test_degrees_of_freedom():
    assert degrees_of_freedom(BlockStructure((1, 1))) == 1
    assert degrees_of_freedom(BlockStructure((2, 2, 2))) == 12
    assert degrees_of_freedom(BlockStructure((3, 2))) == 6


def test_chi2_route_zero_statistic():
    data = Dataset(BlockStructure((1, 1)), UNCORRELATED_ROWS)
    report = chi2_test(fit_mslca(data))
    assert report.ns == 0.0
    assert report.p_value == 1.0
    assert not report.reject
    assert report.scale == 1.0
    assert report.scale_provenance == "gaussian-default"
    assert report.p_value_error_bound is None


def test_chi2_route_quantile_oracle():
    # push the statistic to the frozen 0.95 quantile of chi-square(12)
    rng = np.random.default_rng(191)
    structure = BlockStructure((2, 2, 2))
    model = CovarianceModel(structure, np.eye(6))
    fit = fit_mslca(sample_gaussian(model, 500, rng))
    value = np.sqrt(21.0261 / fit.n)
    that = np.zeros((6, 6))
    that[2, 0] = that[0, 2] = value
    fit = dataclasses.replace(fit, that=that, s=s_statistic(that, structure))
    report = chi2_test(fit)
    assert report.d == 12
    assert report.ns == pytest.approx(21.0261, rel=1e-12)
    assert report.p_value == pytest.approx(0.05, abs=1e-4)


def test_chi2_route_report_invariants():
    rng = np.random.default_rng(193)
    structure = BlockStructure((2, 1))
    model = random_spd_model(rng, structure)
    data = sample_gaussian(model, 200, rng)
    report = chi2_test(fit_mslca(data), alpha=0.1)
    fit = fit_mslca(data)
    assert report.ns == pytest.approx(report.n * report.s, rel=1e-15)
    assert 2 * report.s == pytest.approx(float(np.sum(fit.solution.rho**2)), abs=1e-9)
    assert 0.0 <= report.p_value <= 1.0
    assert report.reject == (report.p_value < 0.1)


def test_chi2_route_scales():
    rng = np.random.default_rng(197)
    model = correlation_model((1, 1), {(1, 0): 0.0})
    data = sample_student_t(model, 10, 4000, rng)
    fit = fit_mslca(data)
    plugin = chi2_test(fit, scale="plugin")
    assert plugin.scale_provenance == "plugin"
    assert plugin.scale == pytest.approx(4.0 / 3.0, abs=0.35)
    user = chi2_test(fit, scale=2.0)
    assert user.scale_provenance == "user"
    assert user.scale == 2.0
    assert user.p_value == pytest.approx(float(stats.chi2.sf(user.ns / 2.0, df=1)), rel=1e-12)
    # float(True) and float("2.0") are numbers: either would run as a user scale
    for bad in (0.0, float("nan"), float("inf"), float("-inf"), True, np.True_, "2.0", "gaussan"):
        with pytest.raises(ValueError, match="positive finite"):
            chi2_test(fit, scale=bad)
    with pytest.raises(ValueError):
        chi2_test(fit, alpha=1.5)


def test_general_route_zero_statistic():
    data = Dataset(BlockStructure((1, 1)), UNCORRELATED_ROWS)
    fit = fit_mslca(data)
    report = general_test(fit)
    assert report.p_value == 1.0
    assert report.p_value_error_bound == TAIL_ATOL
    assert report.method == "general"
    assert report.scale is None and report.scale_provenance is None
    assert report.gamma_eigenvalues is not None
    with pytest.raises(ValueError, match="alpha must be in"):
        general_test(fit, alpha=1.5)


@pytest.mark.parametrize("test", [chi2_test, general_test], ids=["chi2", "general"])
def test_tests_refuse_alpha_bools_and_strings(test):
    # float("0.05") is 0.05 and float(True) is 1.0: neither may pass as a level;
    # float(None) and float([0.05]) raise TypeError, which must not escape either
    fit = fit_mslca(Dataset(BlockStructure((1, 1)), UNCORRELATED_ROWS))
    for bad in ("0.05", b"0.05", np.str_("0.05"), True, np.True_, False, None, [0.05], {}):
        with pytest.raises(ValueError, match=re.escape(f"alpha must be in (0, 1), got {bad!r}")):
            test(fit, alpha=bad)
    # a numpy scalar, a 0-d array and a Decimal are real numbers
    for good in (np.float64(0.05), np.array(0.05), Decimal("0.05")):
        assert test(fit, alpha=good).p_value == test(fit, alpha=0.05).p_value


def test_general_route_close_to_chi2_under_gaussian_null():
    rng = np.random.default_rng(199)
    structure = BlockStructure((2, 2))
    model = CovarianceModel(structure, np.eye(4))
    fit = fit_mslca(sample_gaussian(model, 5000, rng))
    chi2_report = chi2_test(fit)
    general_report = general_test(fit)
    assert abs(chi2_report.p_value - general_report.p_value) < 0.02


def test_general_route_warns_on_small_sample():
    rng = np.random.default_rng(211)
    structure = BlockStructure((2, 2, 2))
    model = CovarianceModel(structure, np.eye(6))
    fit = fit_mslca(sample_gaussian(model, 60, rng))  # below 10 * d = 120
    with pytest.warns(UserWarning):
        general_test(fit)


def _ill_conditioned_model():
    # block 0 has eigenvalues 1e4 and 1e-5: condition number 1e9
    structure = BlockStructure((2, 1, 2))
    v = np.eye(5)
    v[0, 0], v[1, 1] = 1e4, 1e-5
    v[2, 0] = v[0, 2] = 30.0
    v[3, 2] = v[2, 3] = 0.2
    return CovarianceModel(structure, v)


def test_general_route_whitens_its_fit_exactly(monkeypatch):
    # general_test hands the fit's own whitened sample to build_gamma without
    # re-checking it; that whitening must pass the check that
    # MomentAccumulator.from_whitened applies to outside samples
    rng = np.random.default_rng(239)
    models = [random_spd_model(rng, random_structure(rng)) for _ in range(6)]
    models.append(_ill_conditioned_model())
    seen = []
    original = mslca.noncorr.build_gamma

    def recorded(whitened):
        seen.append(whitened)
        return original(whitened)

    monkeypatch.setattr(mslca.noncorr, "build_gamma", recorded)
    for i, model in enumerate(models):
        if i % 2:
            data = sample_gaussian(model, 400, rng)
        else:
            data = sample_student_t(model, 9.0, 400, rng)
        fit = fit_mslca(data)
        assert fit.n == 400
        general_test(fit)
        assert seen[-1] is fit.whitened
        assert seen[-1].n == 400 and seen[-1].structure == model.structure
        _require_whitened_data(seen[-1].rows, model.structure)
    assert len(seen) == len(models)
    first = fit.structure.block_slice(0)
    assert np.linalg.cond(fit.vhat[first, first]) > 1e8


def test_statistic_invariant_under_block_transforms():
    rng = np.random.default_rng(227)
    structure = random_structure(rng)
    model = random_spd_model(rng, structure)
    data = sample_gaussian(model, 300, rng)
    fit = fit_mslca(data)
    s_raw = s_statistic(fit.that, structure)
    mats = random_block_transforms(rng, structure)
    transformed = Dataset(structure, data.rows @ blockdiag(structure, mats).T)
    s_t = s_statistic(fit_mslca(transformed).that, structure)
    assert s_t == pytest.approx(s_raw, abs=1e-8)


def test_population_null_characterization():
    rng = np.random.default_rng(229)
    s = BlockStructure((2, 2))
    null_model = CovarianceModel(s, np.diag(rng.uniform(0.5, 2.0, 4)))
    assert s_statistic(build_t(null_model), s) == 0.0
    alt_model = correlation_model((1, 1), {(1, 0): 0.4})
    assert s_statistic(build_t(alt_model), alt_model.structure) > 0.01


def test_power_grows_with_n():
    rng = np.random.default_rng(233)
    model = correlation_model((1, 1), {(1, 0): 0.25})
    rejections = []
    for n in (60, 600):
        rejected = 0
        reps = 60
        for _ in range(reps):
            fit = fit_mslca(sample_gaussian(model, n, rng))
            rejected += chi2_test(fit).reject
        rejections.append(rejected / reps)
    assert rejections[1] >= rejections[0]
    assert rejections[1] > 0.9


@pytest.mark.parametrize("dims, sizes", [((2, 1, 3), 3), ((2, 2, 2), 1)], ids=["213", "222"])
def test_fit_powers_each_block_size_once_and_solves_t_only_when_read(monkeypatch, dims, sizes):
    # one inverse root per block size, counted at LAPACK's eigh; both test
    # routes whiten with the fit's means and roots instead of decomposing
    # again, and T's eigensolve waits for the first read of the solution
    model = CovarianceModel(BlockStructure(dims), np.eye(6))
    data = sample_student_t(model, 10, 400, 263)
    calls = []
    original = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)

    fit = fit_mslca(data)
    assert len(calls) == sizes
    general_test(fit)
    plugin = chi2_test(fit, scale="plugin")
    assert len(calls) == sizes
    solution = fit.solution
    assert len(calls) == sizes + 1 and calls[-1] == (1, 6, 6)
    assert fit.solution is solution
    assert len(calls) == sizes + 1

    monkeypatch.undo()
    assert plugin.scale == _kurtosis_scale(whiten(data))


def test_both_routes_share_one_whitened_sample(monkeypatch):
    model = CovarianceModel(BlockStructure((2, 1, 3)), np.eye(6))
    data = sample_student_t(model, 10, 400, 267)
    built = []
    original = Dataset._from_fresh.__func__

    def counted(cls, structure, rows):
        built.append(rows.shape)
        return original(cls, structure, rows)

    monkeypatch.setattr(Dataset, "_from_fresh", classmethod(counted))
    fit = fit_mslca(data)
    assert built == []
    chi2_test(fit, scale="plugin")
    general_test(fit)
    chi2_test(fit, scale="plugin")
    assert built == [(400, 6)]
    assert fit.whitened.rows.shape == (400, 6) and len(built) == 1


def test_plugin_scale_does_not_recheck_the_fits_whitening(monkeypatch):
    # both routes read the fit's own whitened sample, so the check that
    # guards outside samples must not run again
    model = CovarianceModel(BlockStructure((2, 1, 3)), np.eye(6))
    data = sample_student_t(model, 10, 400, 269)
    fit = fit_mslca(data)
    expected = [chi2_test(fit, scale="plugin"), general_test(fit)]

    def refuse(rows, structure):
        raise AssertionError("whitening re-checked")

    monkeypatch.setattr(mslca.asymptotics, "_require_whitened_data", refuse)
    fresh = fit_mslca(data)
    assert chi2_test(fresh, scale="plugin") == expected[0]
    general = general_test(fresh)
    assert np.array_equal(general.gamma_eigenvalues, expected[1].gamma_eigenvalues)
    assert general.p_value == expected[1].p_value
