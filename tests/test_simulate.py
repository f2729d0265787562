"""Samplers, RNG streams, plans and the Monte Carlo experiments."""

import re

import numpy as np
import pytest
from scipy import stats

from mslca import (
    BlockStructure,
    CovarianceModel,
    NuTooSmallError,
    PlanPreconditionError,
    SimulationPlan,
    ks_distance,
    rng_stream,
    run_experiment,
    sample_gaussian,
    sample_student_t,
    student_t_kurtosis_scale,
)
from mslca.simulate import _require_null_model
from conftest import (
    correlation_model,
    equicorrelation_model,
    random_spd_model,
    random_structure,
)

NULL_222 = CovarianceModel(BlockStructure((2, 2, 2)), np.eye(6))
WHITENED_111 = correlation_model((1, 1, 1), {(1, 0): 0.3, (2, 0): 0.15, (2, 1): 0.1})


def test_rng_streams_are_independent_and_deterministic():
    a = rng_stream(5, 0, 1).standard_normal(4)
    b = rng_stream(5, 0, 1).standard_normal(4)
    c = rng_stream(5, 1, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # None would draw OS entropy and True seed 1; both are refused like a float
    for seed in (3.0, True, None):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            rng_stream(seed, 0, 1)


def test_sample_gaussian_moments_and_determinism():
    rng = np.random.default_rng(239)
    model = random_spd_model(rng, BlockStructure((2, 2)))
    n = 40000
    data = sample_gaussian(model, n, 7)
    vhat = (data.rows - data.rows.mean(axis=0)).T @ (data.rows - data.rows.mean(axis=0)) / n
    se = np.sqrt((np.outer(np.diag(model.v), np.diag(model.v)) + model.v**2) / n)
    assert np.all(np.abs(vhat - model.v) < 4 * se)

    single = sample_gaussian(model, 1, 0)
    assert single.rows.shape == (1, 4)
    assert np.isfinite(single.rows).all()
    with pytest.raises(ValueError, match="need n >= 1"):
        sample_gaussian(model, 0, 0)

    again = sample_gaussian(model, 50, 7)
    assert np.array_equal(sample_gaussian(model, 50, 7).rows, again.rows)


def test_sample_student_t_moments():
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    n, nu = 60000, 10
    data = sample_student_t(model, nu, n, 11)
    cov = np.cov(data.rows, rowvar=False)
    assert np.abs(cov - np.eye(2)).max() < 0.05
    column = data.rows[:, 0]
    standardized_m4 = np.mean(column**4) / np.mean(column**2) ** 2
    assert standardized_m4 == pytest.approx(3 * (nu - 2) / (nu - 4), abs=0.4)
    with pytest.raises(ValueError, match="need n >= 1"):
        sample_student_t(model, nu, 0, 11)


def test_sample_student_t_gaussian_limit():
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    data = sample_student_t(model, 5000, 40000, 13)
    column = data.rows[:, 0]
    ratio = np.mean(column**4) / 3.0
    assert ratio == pytest.approx(1.0, abs=0.1)


def test_sample_student_t_nu_guard():
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    with pytest.raises(NuTooSmallError):
        sample_student_t(model, 4, 10, 0)
    assert student_t_kurtosis_scale(10) == pytest.approx(4.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("nu", [float("nan"), float("inf")])
def test_student_t_refuses_non_finite_nu(nu):
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="nu must be finite"):
        sample_student_t(model, nu, 10, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="nu must be finite"):
        student_t_kurtosis_scale(nu)


@pytest.mark.parametrize("nu", [None, 9.0], ids=["gaussian", "student-t"])
def test_sampler_seeds_follow_the_plan_integer_rule(nu):
    model = random_spd_model(np.random.default_rng(61), BlockStructure((2, 1)))
    n = 30

    def sample(seed):
        if nu is None:
            return sample_gaussian(model, n, seed)
        return sample_student_t(model, nu, n, seed)

    for seed in (5, np.int64(5), np.random.default_rng(np.random.SeedSequence(5))):
        # the Gaussian draw, then (student-t) the mixing column from the same generator
        rng = np.random.default_rng(np.random.SeedSequence(5))
        expected = rng.standard_normal((n, 3)) @ model.root
        if nu is not None:
            expected = expected * np.sqrt((nu - 2.0) / rng.chisquare(nu, size=n))[:, None]
        assert np.array_equal(sample(seed).rows, expected), seed
    # refused rather than truncated, as in a plan
    for seed in (3.0, 3.7, True, None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample(seed)


@pytest.mark.parametrize("nu", [None, 9.0], ids=["gaussian", "student-t"])
def test_sampler_sizes_follow_the_plan_integer_rule(nu):
    model = random_spd_model(np.random.default_rng(67), BlockStructure((2, 1)))

    def sample(n):
        if nu is None:
            return sample_gaussian(model, n, 5)
        return sample_student_t(model, nu, n, 5)

    assert np.array_equal(sample(np.int64(3)).rows, sample(3).rows)
    assert sample(3).rows.shape == (3, 3)
    for n in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            sample(n)


def test_ks_distance_known_values():
    # single observation at 0.5 against the uniform CDF
    assert ks_distance([0.5], lambda x: np.asarray(x)) == pytest.approx(0.5, abs=1e-12)
    rng = np.random.default_rng(241)
    sample = stats.chi2.rvs(df=3, size=4000, random_state=rng)
    assert ks_distance(sample, stats.chi2(df=3).cdf) < 0.03
    with pytest.raises(ValueError, match="empty sample"):
        ks_distance([], lambda x: np.asarray(x))


def test_plan_validation():
    with pytest.raises(ValueError):
        SimulationPlan(kind="nope", model=NULL_222, sizes=(100,), replications=5)
    with pytest.raises(ValueError):
        SimulationPlan(kind="null-dist", model=NULL_222, sizes=(100,), replications=5, sampler="beta")
    with pytest.raises(PlanPreconditionError):
        SimulationPlan(kind="null-dist", model=NULL_222, sizes=(100,), replications=0)
    with pytest.raises(PlanPreconditionError):
        SimulationPlan(kind="null-dist", model=NULL_222, sizes=(100,), replications=5, seed=-1)
    with pytest.raises(NuTooSmallError):
        SimulationPlan(
            kind="null-dist", model=NULL_222, sizes=(100,), replications=5,
            sampler="student-t", nu=3,
        )
    with pytest.raises(ValueError):
        SimulationPlan(
            kind="null-dist", model=NULL_222, sizes=(100,), replications=5, sampler="student-t"
        )
    with pytest.raises(ValueError, match="must not repeat"):
        # summaries are keyed by size, so the first size's would be lost
        SimulationPlan(kind="null-dist", model=NULL_222, sizes=(200, 200), replications=20)
    with pytest.raises(ValueError, match="sizes must all be >= 2"):
        SimulationPlan(kind="null-dist", model=NULL_222, sizes=(1,), replications=5)
    with pytest.raises(ValueError, match="methods must be chi2/general"):
        SimulationPlan(
            kind="null-dist", model=NULL_222, sizes=(100,), replications=5, methods=("bogus",)
        )
    with pytest.raises(ValueError, match=r"nonempty, got \(\)"):
        SimulationPlan(kind="power", model=NULL_222, sizes=(100,), replications=5, methods=())


def test_plan_rejects_removed_mc_draws_key():
    # the general route's tail is computed, not sampled: plans take no draw count
    with pytest.raises(TypeError):
        SimulationPlan(kind="null-dist", model=NULL_222, sizes=(100,), replications=5, mc_draws=0)
    raw = SimulationPlan(kind="null-dist", model=NULL_222, sizes=(100,), replications=5).to_dict()
    assert "mc_draws" not in raw
    raw["mc_draws"] = 20_000
    with pytest.raises(ValueError, match=r"unknown keys: \['mc_draws'\]"):
        SimulationPlan.from_dict(raw)


def test_plan_refuses_nu_without_the_student_t_sampler():
    # the Gaussian sampler has no nu: a plan that sets one would run Gaussian
    # while echoing it, so it is refused, naming both keys
    plan = dict(kind="null-dist", model=NULL_222, sizes=(100,), replications=5)
    message = "nu applies only to sampler 'student-t', got sampler 'gaussian'"
    for nu in (5, 9.0, 3):
        with pytest.raises(ValueError, match=message) as exc:
            SimulationPlan(**plan, nu=nu)
        assert not isinstance(exc.value, NuTooSmallError)
    raw = SimulationPlan(**plan).to_dict()
    with pytest.raises(ValueError, match="nu applies only"):
        SimulationPlan.from_dict({**raw, "nu": 5})
    assert SimulationPlan(**plan, nu=None).nu is None
    assert SimulationPlan(**plan, sampler="student-t", nu=5).nu == 5


def test_plan_rejects_sizes_not_above_largest_block():
    # a centered sample of n rows has rank at most n - 1, so n = 3 cannot
    # support a 3-dimensional block; the plan fails before any cell runs
    model = CovarianceModel(BlockStructure((3, 3)), np.eye(6))
    with pytest.raises(PlanPreconditionError, match="largest block dimension 3"):
        SimulationPlan(kind="null-dist", model=model, sizes=(50, 3), replications=5)
    SimulationPlan(kind="null-dist", model=model, sizes=(50, 4), replications=5)


def test_plan_refuses_a_size_numpy_cannot_index():
    # n rows of q floats must stay below numpy's largest array; the plan
    # checks the product, so no sample is ever drawn at such a size
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    plan = dict(kind="null-dist", model=model, replications=2)
    for size in (2**59, 2**62):
        with pytest.raises(ValueError, match=f"sizes: a {size} x 2 sample is too large"):
            SimulationPlan(**plan, sizes=(100, size))
    assert SimulationPlan(**plan, sizes=(2**59 - 1,)).sizes == (2**59 - 1,)


def test_plan_from_dict_rejects_unknown_keys():
    raw = SimulationPlan(kind="power", model=NULL_222, sizes=(100,), replications=5).to_dict()
    raw["method"] = ["general"]
    with pytest.raises(ValueError, match=r"unknown keys: \['method'\]"):
        SimulationPlan.from_dict(raw)


def test_plan_refuses_bools_and_strings_as_numbers():
    # float() reads True as 1.0 and "0.05" as 0.05; each message names the value as given
    plan = dict(kind="null-dist", model=NULL_222, sizes=(100,), replications=5)
    for alphas in (["0.05"], [True], (0.05, np.True_), [b"0.1"], [None], [[0.05]], [{}]):
        with pytest.raises(ValueError, match=re.escape(f"got {alphas!r}")):
            SimulationPlan(**plan, alphas=alphas)
    for sampler in ("gaussian", "student-t"):
        for nu in (True, np.True_, "10", b"10", [10.0]):
            # a ValueError, not the NuTooSmallError that nu = 1.0 would raise
            message = re.escape(f"nu must be finite, got {nu!r}")
            with pytest.raises(ValueError, match=message) as exc:
                SimulationPlan(**plan, sampler=sampler, nu=nu)
            assert not isinstance(exc.value, NuTooSmallError)
    with pytest.raises(ValueError, match="nu must be finite, got True"):
        sample_student_t(NULL_222, True, 10, 0)
    assert SimulationPlan(**plan, alphas=[np.float64(0.05), 0.1]).alphas == (0.05, 0.1)
    # a plan's covariance entries follow the same rule
    raw = SimulationPlan(**plan).to_dict()
    for entry in ("0", False, np.False_, b"0"):
        covariance = np.eye(6).tolist()
        covariance[0][1] = covariance[1][0] = entry
        message = re.escape(f"covariance entries must be finite numbers, got {entry!r}")
        with pytest.raises(ValueError, match=message):
            SimulationPlan.from_dict({**raw, "covariance": covariance})
    as_ints = SimulationPlan.from_dict({**raw, "covariance": np.eye(6, dtype=int).tolist()})
    assert as_ints.to_dict() == raw


@pytest.mark.parametrize(
    "covariance, entry",
    [([[1, 0], [0]], "[1, 0]"), ([[1, None], [None, 1]], "None"), ([[1, {}], [{}, 1]], "{}")],
    ids=["ragged", "null", "object"],
)
def test_plan_names_a_covariance_that_is_no_matrix_of_numbers(covariance, entry):
    # a ValueError naming the covariance, not float()'s TypeError
    raw = {"kind": "null-dist", "dims": [1, 1], "covariance": covariance, "sizes": [100],
           "replications": 5}
    message = re.escape(f"covariance entries must be finite numbers, got {entry}")
    with pytest.raises(ValueError, match=message):
        SimulationPlan.from_dict(raw)


def test_plan_roundtrip():
    plan = SimulationPlan(
        kind="null-dist", model=NULL_222, sizes=(100, 200), replications=3,
        sampler="student-t", nu=8.0, seed=4, alphas=(0.05, 0.1), methods=("chi2",),
    )
    again = SimulationPlan.from_dict(plan.to_dict())
    assert again.to_dict() == plan.to_dict()
    with pytest.raises(KeyError):
        SimulationPlan.from_dict({"kind": "null-dist"})


def test_run_consistency_medians_decrease():
    plan = SimulationPlan(
        kind="consistency", model=WHITENED_111, sizes=(100, 1000), replications=30, seed=1
    )
    result = run_experiment(plan)
    assert len(result.records) == 2 * 30
    med_small = result.summaries["100"]["median_t_error"]
    med_large = result.summaries["1000"]["median_t_error"]
    assert med_large < med_small
    beta_small = np.array(result.summaries["100"]["median_beta_errors"])
    beta_large = np.array(result.summaries["1000"]["median_beta_errors"])
    assert np.all(beta_large <= beta_small)


def test_run_consistency_null_model_errors_equal_estimates():
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    plan = SimulationPlan(kind="consistency", model=model, sizes=(50,), replications=5, seed=2)
    result = run_experiment(plan)
    for record in result.records:
        fit_errors = np.array(record["rho_errors"])
        assert np.all(fit_errors >= 0)
    # with T = 0 the error in each coefficient is the coefficient itself
    plan_rng = rng_stream(2, 0, 0)
    from mslca import fit_mslca

    fit = fit_mslca(sample_gaussian(model, 50, plan_rng))
    np.testing.assert_allclose(
        np.abs(fit.solution.rho), result.records[0]["rho_errors"], atol=1e-12
    )


def test_run_consistency_group_projectors_converge_for_degenerate_spectra():
    # individual eigenvectors of a repeated eigenvalue are not identified,
    # but the spanned projector still converges
    model = equicorrelation_model(3, 0.5)
    plan = SimulationPlan(kind="consistency", model=model, sizes=(200, 5000), replications=30, seed=21)
    result = run_experiment(plan)
    small = result.summaries["200"]["median_group_projector_errors"]
    large = result.summaries["5000"]["median_group_projector_errors"]
    assert len(small) == 2  # groups: top eigenvalue, repeated pair
    assert large[0] < small[0]
    assert large[1] < small[1]
    assert large[1] < 0.1


def test_run_consistency_median_stability_in_replications():
    base = dict(kind="consistency", model=WHITENED_111, sizes=(400,), seed=3)
    med_30 = run_experiment(SimulationPlan(replications=30, **base)).summaries["400"][
        "median_t_error"
    ]
    med_60 = run_experiment(SimulationPlan(replications=60, **base)).summaries["400"][
        "median_t_error"
    ]
    assert abs(med_60 - med_30) / med_30 < 0.2


def test_run_clt_check_smoke():
    model = CovarianceModel(BlockStructure((1, 1, 1)), np.eye(3))
    plan = SimulationPlan(kind="clt-check", model=model, sizes=(500,), replications=400, seed=5)
    result = run_experiment(plan)
    summary = result.summaries["500"]
    cov_t = np.array(summary["cov_scaled_error"])
    # under the null each off-diagonal entry of the limit operator has unit variance
    assert np.abs(np.diag(cov_t) - 1.0).max() < 0.25
    assert summary["relative_discrepancy"] < 0.3
    assert len(result.records) == 400


def test_run_clt_check_requires_whitened_model():
    model = CovarianceModel(BlockStructure((1, 1)), np.diag([2.0, 1.0]))
    plan = SimulationPlan(kind="clt-check", model=model, sizes=(100,), replications=3)
    with pytest.raises(PlanPreconditionError, match="whitened"):
        run_experiment(plan)


def test_clt_check_checks_its_model_at_set_up_only(monkeypatch):
    # the model is checked before any cell runs; the cells read forms built
    # from it, so the count of checks does not grow with the replications
    import mslca.asymptotics
    import mslca.simulate

    calls = []
    original = mslca.asymptotics._require_whitened_model

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(mslca.asymptotics, "_require_whitened_model", counting)
    monkeypatch.setattr(mslca.simulate, "_require_whitened_model", counting)
    counts = []
    for replications in (2, 6):
        calls.clear()
        plan = SimulationPlan(
            kind="clt-check", model=WHITENED_111, sizes=(30, 80), replications=replications
        )
        result = run_experiment(plan)
        assert len(result.records) == 2 * replications
        assert all(model is WHITENED_111 for model in calls)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_run_coeff_clt_smoke_and_guard():
    plan = SimulationPlan(
        kind="coeff-clt", model=WHITENED_111, sizes=(2000,), replications=300, seed=7
    )
    result = run_experiment(plan)
    ratios = np.array(result.summaries["2000"]["variance_ratios"])
    assert np.all(ratios > 0.5) and np.all(ratios < 1.6)

    degenerate = equicorrelation_model(3, 0.5)
    bad_plan = SimulationPlan(kind="coeff-clt", model=degenerate, sizes=(100,), replications=3)
    with pytest.raises(PlanPreconditionError, match="simple spectrum"):
        run_experiment(bad_plan)


@pytest.mark.parametrize(
    "model",
    [
        correlation_model((1, 1, 1), {(1, 0): 0.5}),
        correlation_model((2, 1), {(1, 0): 0.5 * np.array([np.cos(0.3), np.sin(0.3)])}),
    ],
    ids=["exact-zero", "round-off"],
)
def test_run_coeff_clt_refuses_zero_asymptotic_variance(model, monkeypatch):
    # coefficients 0.5, 0 and -0.5: the middle one's asymptotic variance is 0,
    # which a variance ratio cannot divide by
    import mslca.simulate

    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(mslca.simulate, "rng_stream", no_cell)
    plan = SimulationPlan(kind="coeff-clt", model=model, sizes=(500,), replications=20, seed=1)
    with pytest.raises(PlanPreconditionError, match="variance: coefficient 1 "):
        run_experiment(plan)


def test_run_null_dist_smoke():
    plan = SimulationPlan(
        kind="null-dist", model=NULL_222, sizes=(300,), replications=200, seed=9,
        alphas=(0.05, 0.1),
    )
    result = run_experiment(plan)
    summary = result.summaries["300"]
    assert summary["ks_to_chi2"] < 0.12
    assert abs(summary["mean_ns"] - 12) < 1.5
    assert 0.0 <= summary["size_chi2"]["0.05"] <= 0.15
    assert summary["p_uniformity_ks"] < 0.15
    assert len(result.records) == 200


def test_null_dist_ks_to_chi2_is_the_statistics_ks_distance():
    # computed from the p-values, it must equal the KS distance of nS / scale to chi-square(d)
    plan = SimulationPlan(
        kind="null-dist", model=NULL_222, sizes=(300,), replications=100, seed=11,
        sampler="student-t", nu=8.0,
    )
    result = run_experiment(plan)
    summary = result.summaries["300"]
    statistic = np.array([r["ns"] for r in result.records]) / plan.true_scale
    expected = stats.kstest(statistic, stats.chi2(12).cdf).statistic
    assert summary["ks_to_chi2"] == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert summary["p_uniformity_ks"] == summary["ks_to_chi2"]


def test_run_null_dist_rejects_alternative_model():
    model = correlation_model((1, 1), {(1, 0): 0.3})
    plan = SimulationPlan(kind="null-dist", model=model, sizes=(100,), replications=3)
    with pytest.raises(PlanPreconditionError, match="violates the null"):
        run_experiment(plan)


def _require_null_model_per_pair(model):
    """Reference for ``_require_null_model``: the former loop over the lower block pairs."""
    structure = model.structure
    for k, l in [(k, l) for k in range(1, structure.n_blocks) for l in range(k)]:
        cross = model.v[structure.block_slice(k), structure.block_slice(l)]
        if np.abs(cross).max() > 0:
            raise PlanPreconditionError(f"model violates the null: block ({k}, {l}) is nonzero")


def _null_refusal(check, model):
    """The message of the PlanPreconditionError ``check(model)`` raises, or None."""
    try:
        check(model)
    except PlanPreconditionError as exc:
        return str(exc)
    return None


def test_null_model_check_matches_per_pair_oracle():
    # every block position of a null model, moved by the smallest float or more
    rng = np.random.default_rng(197)
    for _ in range(15):
        structure = random_structure(rng)
        v = np.where(structure.diagonal_mask, random_spd_model(rng, structure).v, 0.0)
        assert _null_refusal(_require_null_model, CovarianceModel(structure, v)) is None
        for k in range(structure.n_blocks):
            for l in range(k + 1):
                bump = np.zeros_like(v)
                bump[structure.block_slice(k), structure.block_slice(l)] = rng.uniform(
                    0.6, 1.0, (structure.dims[k], structure.dims[l])
                )
                for size in (5e-324, 1e-300, 0.3):
                    moved = CovarianceModel(structure, v + size * (bump + bump.T))
                    got = _null_refusal(_require_null_model, moved)
                    assert got == _null_refusal(_require_null_model_per_pair, moved)
                    assert (got is None) == (k == l), (k, l, size, got)
                    if got is not None:
                        assert got.endswith(f"block ({k}, {l}) is nonzero")
        # several cross blocks at once: the first in pair order is named
        for _ in range(8):
            moved = v.copy()
            for k in range(1, structure.n_blocks):
                for l in range(k):
                    if rng.random() < 0.5:
                        moved[structure.block_slice(k), structure.block_slice(l)] = 0.3
                        moved[structure.block_slice(l), structure.block_slice(k)] = 0.3
            moved = CovarianceModel(structure, moved)
            assert _null_refusal(_require_null_model, moved) == _null_refusal(
                _require_null_model_per_pair, moved
            )


def test_run_power_smoke():
    model = correlation_model((1, 1), {(1, 0): 0.3})
    plan = SimulationPlan(
        kind="power", model=model, sizes=(500,), replications=60, seed=11,
        methods=("chi2", "general"),
    )
    result = run_experiment(plan)
    summary = result.summaries["500"]
    assert summary["rejection_chi2"]["0.05"] > 0.9
    assert summary["rejection_general"]["0.05"] > 0.9


def test_run_power_null_model_reduces_to_size():
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    plan = SimulationPlan(kind="power", model=model, sizes=(400,), replications=200, seed=13)
    rate = run_experiment(plan).summaries["400"]["rejection_chi2"]["0.05"]
    assert abs(rate - 0.05) < 0.05


def test_null_dist_and_power_record_the_same_route_p_values():
    # both kinds record the chi-square route at unit scale and the general
    # route through one record, so a null plan gives them the same p-values
    plan = dict(
        model=NULL_222, sizes=(150, 200), replications=5, seed=23, sampler="student-t",
        nu=9.0, methods=("chi2", "general"),
    )
    null = run_experiment(SimulationPlan(kind="null-dist", **plan)).records
    power = run_experiment(SimulationPlan(kind="power", **plan)).records
    assert len(null) == len(power) == 10
    for a, b in zip(null, power):
        assert (a["n"], a["rep"]) == (b["n"], b["rep"])
        assert a["p_chi2"] == b["p_chi2"] and a["p_general"] == b["p_general"]
        assert a["p_chi2_scaled"] != a["p_chi2"]


def test_power_chi2_p_value_is_the_chi2_tests():
    from mslca import chi2_test, fit_mslca

    plan = SimulationPlan(
        kind="power", model=WHITENED_111, sizes=(120, 300), replications=4, seed=5
    )
    records = run_experiment(plan).records
    assert len(records) == 8
    for record in records:
        rng = rng_stream(plan.seed, plan.sizes.index(record["n"]), record["rep"])
        fit = fit_mslca(plan.sample(record["n"], rng))
        assert record["p_chi2"] == chi2_test(fit, scale="gaussian").p_value


@pytest.mark.parametrize("methods", [("chi2",), ("chi2", "general"), ("general",)])
def test_test_kinds_summarize_exactly_the_routes_they_record(methods):
    # the chi-square route is always recorded; "general" in methods adds the general route
    general = ["general"] if "general" in methods else []
    expected = {
        "null-dist": (["chi2", "chi2_scaled", *general], "size", ["ns"],
                      ["mean_ns", "ks_to_chi2", "p_uniformity_ks"]),
        "power": (["chi2", *general], "rejection", [], []),
    }
    for kind, (routes, prefix, own_records, own_summaries) in expected.items():
        plan = SimulationPlan(
            kind=kind, model=NULL_222, sizes=(150,), replications=6, seed=2,
            alphas=(0.05, 0.5), methods=methods,
        )
        result = run_experiment(plan)
        for record in result.records:
            assert list(record) == ["n", "rep", *own_records, *(f"p_{r}" for r in routes)]
        summary = result.summaries["150"]
        assert list(summary) == [*own_summaries, *(f"{prefix}_{r}" for r in routes)]
        for route in routes:
            p_values = np.array([record[f"p_{route}"] for record in result.records])
            assert summary[f"{prefix}_{route}"] == {
                "0.05": float(np.mean(p_values < 0.05)), "0.5": float(np.mean(p_values < 0.5))
            }


def test_experiments_are_reproducible_and_exchangeable():
    plan = SimulationPlan(
        kind="null-dist", model=NULL_222, sizes=(150,), replications=40, seed=17
    )
    first = run_experiment(plan)
    second = run_experiment(plan)
    assert first.records == second.records
    assert first.summaries == second.summaries

    # summaries are order-free functions of the records
    ns = sorted(record["ns"] for record in first.records)
    mean_from_records = float(np.mean(ns))
    assert mean_from_records == pytest.approx(first.summaries["150"]["mean_ns"], rel=1e-12)


def test_result_payload_is_json_ready():
    import json

    model = correlation_model((1, 1), {(1, 0): 0.2})
    plan = SimulationPlan(kind="power", model=model, sizes=(80,), replications=3, seed=19)
    result = run_experiment(plan)
    payload = json.dumps(result.to_dict())
    assert "rejection_chi2" in payload
    assert result.to_dict() == {
        "kind": result.kind,
        "plan": result.plan,
        "records": result.records,
        "summaries": result.summaries,
        "meta": result.meta,
    }


# Plans of every kind for the chunking tests: two sizes each, an uneven
# number of replications, both samplers and both test routes.
CHUNK_PLANS = {
    "consistency": dict(kind="consistency", model=WHITENED_111, sizes=(30, 80), seed=31),
    "clt-check": dict(
        kind="clt-check", model=WHITENED_111, sizes=(30, 80), seed=37,
        sampler="student-t", nu=9.0,
    ),
    "coeff-clt": dict(kind="coeff-clt", model=WHITENED_111, sizes=(50, 120), seed=41),
    "null-dist": dict(
        kind="null-dist", model=NULL_222, sizes=(130, 300), seed=43,
        sampler="student-t", nu=9.0, methods=("chi2", "general"), alphas=(0.05, 0.1),
    ),
    "power": dict(
        kind="power", model=correlation_model((1, 1), {(1, 0): 0.3}), sizes=(40, 90),
        seed=47, methods=("chi2", "general"),
    ),
}


def _chunk_budget(plan, cells):
    """A byte budget under which a chunk at the plan's largest size holds ``cells`` cells."""
    return cells * 8 * plan.model.structure.total_dim * max(plan.sizes)


@pytest.mark.parametrize("kind", sorted(CHUNK_PLANS))
def test_records_do_not_depend_on_chunk_length(kind, monkeypatch):
    import json

    import mslca.simulate

    plan = SimulationPlan(replications=7, **CHUNK_PLANS[kind])
    outputs = []
    # one cell per chunk, three cells at the largest size, a whole size
    for budget in (1, _chunk_budget(plan, 3), _chunk_budget(plan, 1000)):
        monkeypatch.setattr(mslca.simulate, "_CHUNK_BYTES", budget)
        result = run_experiment(plan)
        assert [(r["n"], r["rep"]) for r in result.records] == [
            (n, rep) for n in plan.sizes for rep in range(7)
        ]
        outputs.append(json.dumps([result.records, result.summaries], sort_keys=True))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_chunk_runs_one_eigensolve_per_block_and_one_for_t(monkeypatch):
    import mslca.population
    import mslca.simulate

    plan = SimulationPlan(
        kind="null-dist", model=NULL_222, sizes=(130, 300), replications=7, seed=53
    )
    monkeypatch.setattr(mslca.simulate, "_CHUNK_BYTES", _chunk_budget(plan, 3))
    calls, t_calls = [], []
    original_eigh = np.linalg.eigh
    original_sym_eig = mslca.population.sym_eig

    def counting_eigh(a):
        calls.append(np.shape(a))
        return original_eigh(a)

    def counting_sym_eig(a):
        t_calls.append(np.shape(a))
        return original_sym_eig(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(mslca.population, "sym_eig", counting_sym_eig)
    run_experiment(plan)
    # K + 1 = 4 eigensolves per chunk, counted at LAPACK's eigh. At n=300 a
    # chunk holds 3 cells, so 7 replications take 3 chunks; at n=130 it holds
    # 3 * 300 // 130 = 6 cells, so they take 2. Only T's solve goes through
    # sym_eig, once per chunk.
    assert len(calls) == 4 * (3 + 2)
    assert sorted({shape[0] for shape in calls}) == [1, 3, 6]
    assert len(t_calls) == 3 + 2
    assert all(shape[-1] == NULL_222.structure.total_dim for shape in t_calls)


def test_near_singular_cell_raises_its_own_error(monkeypatch):
    import mslca.simulate
    from mslca import Dataset, NearSingularError, fit_mslca

    original = mslca.simulate.sample_gaussian
    bad_samples = {}

    def collinear_sampler(model, n, rng):
        # cell 2 gets a singular block 1, cell 4 (same chunk) a singular block 0
        data = original(model, n, rng)
        cell = len(bad_samples.setdefault("calls", []))
        bad_samples["calls"].append(cell)
        column = {2: 3, 4: 1}.get(cell)
        if column is None:
            return data
        rows = data.rows.copy()
        rows[:, column] = rows[:, column - 1]
        bad_samples[cell] = Dataset(data.structure, rows)
        return bad_samples[cell]

    monkeypatch.setattr(mslca.simulate, "sample_gaussian", collinear_sampler)
    plan = SimulationPlan(kind="null-dist", model=NULL_222, sizes=(200,), replications=6, seed=59)
    errors = []
    for budget in (1, _chunk_budget(plan, 6)):
        monkeypatch.setattr(mslca.simulate, "_CHUNK_BYTES", budget)
        bad_samples.clear()
        with pytest.raises(NearSingularError) as exc:
            run_experiment(plan)
        errors.append((exc.value.block, exc.value.lambda_min, exc.value.lambda_max))
    with pytest.raises(NearSingularError) as alone:
        fit_mslca(bad_samples[2])
    assert alone.value.block == 1
    assert errors == [(1, alone.value.lambda_min, alone.value.lambda_max)] * 2


def test_chunk_with_a_constant_column_raises_that_cells_error():
    from mslca import Dataset, NearSingularError, fit_mslca
    from mslca.simulate import _chunk_fits

    structure = BlockStructure((1, 1, 1))
    rows = np.random.default_rng(0).standard_normal((40, 3))
    good = Dataset(structure, rows)
    rows[:, 2] = 0.1
    bad = Dataset(structure, rows)
    with pytest.raises(NearSingularError) as alone:
        fit_mslca(bad)
    assert alone.value.block == 2
    fits = iter(_chunk_fits([good, bad]))
    assert np.array_equal(next(fits).that, fit_mslca(good).that)
    with pytest.raises(NearSingularError) as stacked:
        next(fits)
    assert str(stacked.value) == str(alone.value)
    assert stacked.value.block == 2
