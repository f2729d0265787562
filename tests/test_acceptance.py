"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Everything is seeded, so
reruns are exact; total runtime is about a minute on a laptop-class machine.
"""

import numpy as np

from mslca import (
    BlockStructure,
    CovarianceModel,
    SimulationPlan,
    build_gamma,
    chi2_test,
    fit_mslca,
    general_test,
    rng_stream,
    run_experiment,
    sample_gaussian,
    sample_student_t,
    solve_mslca,
    sym_power,
    verify_constraints,
)
from conftest import (
    block,
    correlation_model,
    equicorrelation_model,
    random_block_transforms,
    random_spd_model,
    random_structure,
    transform_model,
)

NULL_222 = CovarianceModel(BlockStructure((2, 2, 2)), np.eye(6))
WHITENED_111 = correlation_model((1, 1, 1), {(1, 0): 0.3, (2, 0): 0.15, (2, 1): 0.1})
MODEL_22 = CovarianceModel(
    BlockStructure((2, 2)),
    np.array(
        [
            [1.0, 0.3, 0.4, 0.1],
            [0.3, 1.0, 0.2, 0.3],
            [0.4, 0.2, 1.5, 0.25],
            [0.1, 0.3, 0.25, 0.8],
        ]
    ),
)


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_population_exactness():
    sol3 = solve_mslca(equicorrelation_model(3, 0.5))
    err3 = np.abs(sol3.rho - np.array([1.0, -0.5, -0.5])).max()
    sol2 = solve_mslca(correlation_model((1, 1), {(1, 0): 0.8}))
    err2 = np.abs(sol2.rho - np.array([0.8, -0.8])).max()
    _criterion(
        "criterion 1 (population exactness)",
        err3 <= 1e-12 and err2 <= 1e-12,
        f"equicorrelation error {err3:.2e}, two-set error {err2:.2e} (tol 1e-12)",
    )


def test_criterion_02_structural_invariants_random_models():
    rng = np.random.default_rng(202)
    worst = {"trace": 0.0, "low": 0.0, "high": 0.0, "orth": 0.0, "constr": 0.0, "invar": 0.0}
    for _ in range(200):
        structure = random_structure(rng, max_blocks=4, max_block_dim=3, max_total=10)
        model = random_spd_model(rng, structure)
        k = structure.n_blocks
        sol = solve_mslca(model)
        worst["trace"] = max(worst["trace"], abs(float(sol.rho.sum())))
        worst["low"] = max(worst["low"], float(-1.0 - sol.rho.min()))
        worst["high"] = max(worst["high"], float(sol.rho.max() - k * (k - 1)))
        gram_gap = np.abs(sol.beta.T @ sol.beta - np.eye(structure.total_dim)).max()
        worst["orth"] = max(worst["orth"], float(gram_gap))
        diag = verify_constraints(model, sol)
        worst["constr"] = max(
            worst["constr"], diag.max_unit_violation, diag.max_orthogonality_violation
        )
        transformed = transform_model(model, random_block_transforms(rng, structure))
        gap = np.abs(sol.rho - solve_mslca(transformed).rho).max()
        worst["invar"] = max(worst["invar"], float(gap))
    ok = (
        worst["trace"] <= 1e-9
        and worst["low"] <= 1e-9
        and worst["high"] <= 1e-9
        and worst["orth"] <= 1e-10
        and worst["constr"] <= 1e-9
        and worst["invar"] <= 1e-8
    )
    _criterion(
        "criterion 2 (structural invariants, 200 random models)",
        ok,
        "worst: trace {trace:.2e}, bound slack ({low:.2e}, {high:.2e}), "
        "orthonormality {orth:.2e}, constraints {constr:.2e}, invariance {invar:.2e}".format(
            **worst
        ),
    )


def test_criterion_03_two_set_equivalence():
    rng = np.random.default_rng(303)
    worst_eig, worst_norm = 0.0, 0.0
    for _ in range(50):
        model = random_spd_model(rng, BlockStructure((3, 2)))
        sol = solve_mslca(model)
        s_mat = (
            sym_power(block(model, 0, 0), -0.5)
            @ block(model, 0, 1)
            @ sym_power(block(model, 1, 1), -0.5)
        )
        r_eigs = np.sort(np.linalg.eigvalsh(s_mat @ s_mat.T))[::-1]
        positive = sol.rho[sol.rho > 1e-6]
        worst_eig = max(worst_eig, float(np.abs(positive**2 - r_eigs[: positive.size]).max()))
        worst_eig = max(worst_eig, float(abs(r_eigs[positive.size:].max(initial=0.0))))
        for j in range(5):
            if abs(sol.rho[j]) <= 1e-6:
                continue
            for k in (0, 1):
                part = sol.beta[model.structure.block_slice(k), j]
                worst_norm = max(worst_norm, abs(float(np.linalg.norm(part)) - 1 / np.sqrt(2)))
    _criterion(
        "criterion 3 (two-set equivalence, 50 random models)",
        worst_eig <= 1e-9 and worst_norm <= 1e-9,
        f"worst eigenvalue gap {worst_eig:.2e}, worst split-norm gap {worst_norm:.2e} (tol 1e-9)",
    )


def test_criterion_04_consistency_rate():
    plan = SimulationPlan(
        kind="consistency", model=MODEL_22, sizes=(1000, 4000, 16000), replications=50, seed=0
    )
    result = run_experiment(plan)
    medians = [result.summaries[str(n)]["median_t_error"] for n in plan.sizes]
    ratios = [medians[0] / medians[1], medians[1] / medians[2]]
    ok = all(1.6 <= r <= 2.5 for r in ratios) and medians[0] > medians[1] > medians[2]
    _criterion(
        "criterion 4 (consistency rate)",
        ok,
        f"medians {['%.4f' % m for m in medians]}, successive ratios "
        f"{['%.2f' % r for r in ratios]} (target [1.6, 2.5])",
    )


def test_criterion_05_operator_clt():
    plan = SimulationPlan(
        kind="clt-check", model=WHITENED_111, sizes=(5000,), replications=2000, seed=2
    )
    result = run_experiment(plan)
    rel = result.summaries["5000"]["relative_discrepancy"]
    _criterion(
        "criterion 5 (operator CLT covariance match)",
        rel < 0.10,
        f"relative covariance discrepancy {rel:.4f} (tol 0.10), n=5000, R=2000",
    )


def test_criterion_06_coefficient_clt():
    plan = SimulationPlan(
        kind="coeff-clt", model=WHITENED_111, sizes=(10_000,), replications=2000, seed=0
    )
    result = run_experiment(plan)
    ratios = np.array(result.summaries["10000"]["variance_ratios"])
    ok = bool(np.all(ratios >= 0.85) and np.all(ratios <= 1.15))
    _criterion(
        "criterion 6 (coefficient CLT variance ratios)",
        ok,
        f"ratios {['%.3f' % r for r in ratios]} (target [0.85, 1.15])",
    )


def test_criterion_07_gaussian_null_distribution():
    plan = SimulationPlan(
        kind="null-dist", model=NULL_222, sizes=(2000,), replications=2000, seed=0
    )
    summary = run_experiment(plan).summaries["2000"]
    ks = summary["ks_to_chi2"]
    mean_ns = summary["mean_ns"]
    size = summary["size_chi2"]["0.05"]
    ok = ks < 0.04 and abs(mean_ns - 12.0) <= 0.5 and 0.035 <= size <= 0.065
    _criterion(
        "criterion 7 (Gaussian null distribution)",
        ok,
        f"KS {ks:.4f} (tol 0.04), mean nS {mean_ns:.3f} (target 12 +/- 0.5), "
        f"size at 0.05 = {size:.3f} (target [0.035, 0.065])",
    )


def test_criterion_08_elliptical_scale():
    plugin = chi2_test(fit_mslca(sample_student_t(NULL_222, 10, 5000, 0)), scale="plugin").scale
    plugin_ok = abs(plugin - 4.0 / 3.0) <= 0.1

    ks_plan = SimulationPlan(
        kind="null-dist", model=NULL_222, sizes=(2000,), replications=2000,
        seed=0, sampler="student-t", nu=10,
    )
    ks = run_experiment(ks_plan).summaries["2000"]["ks_to_chi2"]

    size_plan = SimulationPlan(
        kind="null-dist", model=NULL_222, sizes=(5000,), replications=2000,
        seed=0, sampler="student-t", nu=10, methods=("chi2", "general"),
    )
    sizes = run_experiment(size_plan).summaries["5000"]
    chi2_size = sizes["size_chi2"]["0.05"]
    general_size = sizes["size_general"]["0.05"]
    ok = (
        plugin_ok
        and ks < 0.06
        and chi2_size > 0.08
        and 0.03 <= general_size <= 0.07
    )
    _criterion(
        "criterion 8 (student-t elliptical scale)",
        ok,
        f"plugin {plugin:.4f} (target 4/3 +/- 0.1), scaled KS {ks:.4f} (tol 0.06), "
        f"uncorrected chi2 size {chi2_size:.3f} (> 0.08), general size {general_size:.3f} "
        f"(target [0.03, 0.07])",
    )


def test_criterion_09_gaussian_gamma_identity():
    gamma = build_gamma(fit_mslca(sample_gaussian(NULL_222, 5000, 0)).whitened)
    gamma_gap = float(np.abs(gamma - np.eye(12)).max())

    diffs = []
    for rep in range(100):
        rng = rng_stream(0, 0, rep)
        fit = fit_mslca(sample_gaussian(NULL_222, 5000, rng))
        p_chi2 = chi2_test(fit).p_value
        p_general = general_test(fit).p_value
        diffs.append(abs(p_chi2 - p_general))
    max_diff = float(np.max(diffs))
    ok = gamma_gap < 0.1 and max_diff < 0.02
    _criterion(
        "criterion 9 (Gaussian fourth-moment identity)",
        ok,
        f"max |Gamma - I| = {gamma_gap:.4f} (tol 0.1), max chi2-vs-general p gap "
        f"{max_diff:.4f} over 100 datasets (tol 0.02)",
    )


def test_criterion_10_power():
    model = correlation_model((1, 1), {(1, 0): 0.3})
    plan = SimulationPlan(kind="power", model=model, sizes=(500,), replications=1000, seed=0)
    rate = run_experiment(plan).summaries["500"]["rejection_chi2"]["0.05"]
    _criterion(
        "criterion 10 (power at a fixed alternative)",
        rate > 0.95,
        f"rejection rate {rate:.3f} at n=500, alpha=0.05 (target > 0.95)",
    )
