"""Population solver: construction, spectral solution, structural claims."""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from mslca import (
    BlockStructure,
    CovarianceModel,
    Dataset,
    MslcaSolution,
    build_phi,
    build_t,
    fit_mslca,
    psd_sqrt,
    sample_gaussian,
    solve_mslca,
    sym_power,
    verify_constraints,
)
from mslca.population import DEFAULT_GROUP_TOL
from conftest import (
    block,
    correlation_model,
    equicorrelation_model,
    random_spd_model,
    random_structure,
    random_whitened_model,
    transform_model,
    random_block_transforms,
)


def varphi(model, a):
    """Reference between-set quadratic form sum_{k != l} <a_k, V_kl a_l> = <a, Psi a>.

    Evaluates to rho_j at the j-th canonical direction.
    """
    structure = model.structure
    a = np.asarray(a, dtype=float)
    parts = [a[structure.block_slice(k)] for k in range(structure.n_blocks)]
    total = 0.0
    for k in range(structure.n_blocks):
        for l in range(structure.n_blocks):
            if k != l:
                total += float(parts[k] @ block(model, k, l) @ parts[l])
    return total


@dataclass(frozen=True)
class CcaEquivalence:
    """K=2 reduction to classical linear canonical analysis.

    ``canonical_correlations`` are the singular values of
    S = V_1^{-1/2} V_12 V_2^{-1/2} in nonincreasing order; squared, they are
    the nonzero eigenvalues of R = S S^T. ``directions_first``/``_second``
    hold the unit-norm paired directions sqrt(2) * (block of beta) for every
    strictly positive coefficient. ``spectrum_pairing_gap`` measures how far
    the nonzero spectrum is from exact +/- pairing (should be round-off).
    """

    canonical_correlations: np.ndarray
    directions_first: np.ndarray
    directions_second: np.ndarray
    spectrum_pairing_gap: float


def cca_equivalence(model):
    """Reference reduction of a two-set model to classical canonical correlation analysis.

    Only defined for K = 2. The nonzero spectrum of T comes in +/- pairs and
    the positive half matches the singular values of S.
    """
    structure = model.structure
    if structure.n_blocks != 2:
        raise ValueError(f"only defined for 2 blocks, model has {structure.n_blocks}")
    s = (
        sym_power(block(model, 0, 0), -0.5)
        @ block(model, 0, 1)
        @ sym_power(block(model, 1, 1), -0.5)
    )
    correlations = np.linalg.svd(s, compute_uv=False)

    solution = solve_mslca(model)
    positive = solution.rho[solution.rho > DEFAULT_GROUP_TOL]
    negative = -solution.rho[solution.rho < -DEFAULT_GROUP_TOL][::-1]
    if positive.size != negative.size:
        pairing_gap = float("inf")
    else:
        pairing_gap = float(np.abs(positive - negative).max()) if positive.size else 0.0

    n_dir = positive.size
    sqrt2 = np.sqrt(2.0)
    first = sqrt2 * solution.beta[structure.block_slice(0), :n_dir]
    second = sqrt2 * solution.beta[structure.block_slice(1), :n_dir]
    return CcaEquivalence(
        canonical_correlations=correlations,
        directions_first=first,
        directions_second=second,
        spectrum_pairing_gap=pairing_gap,
    )


def test_model_validation():
    s = BlockStructure((1, 1))
    with pytest.raises(ValueError):
        CovarianceModel(s, np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        CovarianceModel(s, np.eye(3))


def test_model_root_is_computed_once_and_read_only():
    model = correlation_model((2, 1), {(1, 0): [[0.3, -0.2]]})
    root = model.root
    assert model.root is root
    assert not root.flags.writeable
    np.testing.assert_array_equal(root, psd_sqrt(model.v))
    np.testing.assert_allclose(root @ root, model.v, atol=1e-12)


def test_build_phi_identity_blocks():
    model = correlation_model((1, 1, 1), {(1, 0): 0.3, (2, 0): 0.1, (2, 1): 0.2})
    assert np.array_equal(build_phi(model), np.eye(3))


def test_build_phi_scalar_pair():
    model = correlation_model((1, 1), {(1, 0): 0.5})
    assert np.array_equal(build_phi(model), np.eye(2))


def test_build_phi_block_assembly():
    s = BlockStructure((2, 1))
    v = np.diag([2.0, 3.0, 4.0])
    model = CovarianceModel(s, v)
    assert np.array_equal(build_phi(model), np.diag([2.0, 3.0, 4.0]))


def test_phi_plus_psi_is_covariance():
    # Psi enters through its quadratic form <a, Psi a> (the reference varphi)
    rng = np.random.default_rng(23)
    model = random_spd_model(rng, random_structure(rng))
    phi = build_phi(model)
    for a in rng.standard_normal((5, model.structure.total_dim)):
        assert float(a @ phi @ a) + varphi(model, a) == pytest.approx(
            float(a @ model.v @ a), rel=1e-12
        )


def test_build_t_uncorrelated():
    model = CovarianceModel(BlockStructure((2, 2)), np.diag([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(build_t(model), np.zeros((4, 4)))


def test_build_t_scalar_pair():
    r = 0.45
    model = correlation_model((1, 1), {(1, 0): r})
    np.testing.assert_allclose(build_t(model), [[0.0, r], [r, 0.0]], atol=1e-14)


def test_build_t_equicorrelation():
    r = 0.4
    model = equicorrelation_model(3, r)
    expected = r * (np.ones((3, 3)) - np.eye(3))
    np.testing.assert_allclose(build_t(model), expected, atol=1e-14)


def test_build_t_blocks_match_quoted_form():
    # block (k, l) must equal V_k^{-1/2} V_kl V_l^{-1/2}
    rng = np.random.default_rng(29)
    model = random_spd_model(rng, BlockStructure((2, 3)))
    t = build_t(model)
    lhs = t[model.structure.block_slice(1), model.structure.block_slice(0)]
    rhs = (
        sym_power(block(model, 1, 1), -0.5)
        @ block(model, 1, 0)
        @ sym_power(block(model, 0, 0), -0.5)
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_solve_uncorrelated_canonical_basis():
    model = CovarianceModel(BlockStructure((2, 1)), np.eye(3))
    sol = solve_mslca(model)
    assert np.array_equal(sol.rho, np.zeros(3))
    assert np.array_equal(sol.beta, np.eye(3))
    assert sol.groups == ((0, 1, 2),)
    assert sol.zero_group == 0


def test_solve_equicorrelation():
    sol = solve_mslca(equicorrelation_model(3, 0.5))
    np.testing.assert_allclose(sol.rho, [1.0, -0.5, -0.5], atol=1e-12)
    assert sol.groups == ((0,), (1, 2))
    assert not sol.is_simple


def test_solve_scalar_pair_directions():
    sol = solve_mslca(correlation_model((1, 1), {(1, 0): 0.8}))
    np.testing.assert_allclose(sol.rho, [0.8, -0.8], atol=1e-12)
    np.testing.assert_allclose(np.abs(sol.alpha[:, 0]), np.full(2, 1 / np.sqrt(2)), atol=1e-12)


def test_varphi_uncorrelated():
    model = CovarianceModel(BlockStructure((1, 2)), np.eye(3))
    assert varphi(model, np.array([0.3, -1.2, 0.5])) == 0.0


def test_varphi_equicorrelation():
    r = 0.35
    model = equicorrelation_model(3, r)
    a = np.ones(3) / np.sqrt(3.0)
    assert varphi(model, a) == pytest.approx(2 * r, abs=1e-12)


def test_varphi_equals_psi_quadratic_form_and_rho():
    rng = np.random.default_rng(31)
    model = random_spd_model(rng, random_structure(rng))
    a = rng.standard_normal(model.structure.total_dim)
    psi = model.v - build_phi(model)
    assert varphi(model, a) == pytest.approx(float(a @ psi @ a), rel=1e-10)
    sol = solve_mslca(model)
    for j in (0, model.structure.total_dim - 1):
        assert varphi(model, sol.alpha[:, j]) == pytest.approx(sol.rho[j], abs=1e-9)


def test_verify_constraints_solver_output():
    rng = np.random.default_rng(37)
    for _ in range(5):
        model = random_spd_model(rng, random_structure(rng))
        sol = solve_mslca(model)
        diag = verify_constraints(model, sol)
        assert diag.max_unit_violation < 1e-9
        assert diag.max_orthogonality_violation < 1e-9


def test_verify_constraints_scaled_directions():
    import dataclasses

    rng = np.random.default_rng(41)
    model = random_spd_model(rng, BlockStructure((2, 2)))
    sol = solve_mslca(model)
    doubled = dataclasses.replace(sol, alpha=2.0 * sol.alpha)
    diag = verify_constraints(model, doubled)
    assert diag.max_unit_violation == pytest.approx(3.0, abs=1e-8)


def test_verify_constraints_identity_model():
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    diag = verify_constraints(model, solve_mslca(model))
    assert diag.max_unit_violation == 0.0
    assert diag.max_orthogonality_violation == 0.0


def test_trace_and_bounds_random_models():
    rng = np.random.default_rng(43)
    for _ in range(30):
        model = random_spd_model(rng, random_structure(rng))
        k = model.structure.n_blocks
        sol = solve_mslca(model)
        assert abs(sol.rho.sum()) < 1e-9
        assert sol.rho.min() >= -1.0 - 1e-9
        assert sol.rho.max() <= k * (k - 1) + 1e-9


def test_zero_spectrum_characterization():
    # all coefficients vanish iff every cross block does, in both directions
    rng = np.random.default_rng(47)
    s = BlockStructure((2, 1, 2))
    diag_model = CovarianceModel(s, np.diag(rng.uniform(0.5, 2.0, size=5)))
    assert np.abs(solve_mslca(diag_model).rho).max() < 1e-12

    v = diag_model.v.copy()
    v[0, 3] = v[3, 0] = 0.2
    corr_model = CovarianceModel(s, v)
    assert np.abs(solve_mslca(corr_model).rho).max() > 0.01


def test_spectrum_invariance_under_block_transforms():
    rng = np.random.default_rng(53)
    for _ in range(10):
        structure = random_structure(rng)
        model = random_spd_model(rng, structure)
        transformed = transform_model(model, random_block_transforms(rng, structure))
        rho = solve_mslca(model).rho
        rho_t = solve_mslca(transformed).rho
        np.testing.assert_allclose(rho, rho_t, atol=1e-8)


def test_cca_equivalence_scalar():
    r = 0.55
    eq = cca_equivalence(correlation_model((1, 1), {(1, 0): r}))
    np.testing.assert_allclose(eq.canonical_correlations, [r], atol=1e-12)
    assert eq.spectrum_pairing_gap < 1e-12
    np.testing.assert_allclose(np.abs(eq.directions_first), [[1.0]], atol=1e-12)


def test_cca_equivalence_uncorrelated():
    model = CovarianceModel(BlockStructure((2, 2)), np.eye(4))
    eq = cca_equivalence(model)
    np.testing.assert_allclose(eq.canonical_correlations, np.zeros(2), atol=1e-12)
    assert eq.directions_first.shape == (2, 0)


def test_cca_equivalence_random_three_two():
    rng = np.random.default_rng(59)
    for _ in range(10):
        model = random_spd_model(rng, BlockStructure((3, 2)))
        eq = cca_equivalence(model)
        sol = solve_mslca(model)
        s_mat = (
            sym_power(block(model, 0, 0), -0.5)
            @ block(model, 0, 1)
            @ sym_power(block(model, 1, 1), -0.5)
        )
        r_eigs = np.sort(np.linalg.eigvalsh(s_mat @ s_mat.T))[::-1]
        top = sol.rho[:2] ** 2
        np.testing.assert_allclose(top, r_eigs[:2], atol=1e-9)
        np.testing.assert_allclose(eq.canonical_correlations**2, r_eigs[:2], atol=1e-9)
        # unit-norm paired directions, i.e. each beta splits evenly across blocks
        for j in range(eq.directions_first.shape[1]):
            assert np.linalg.norm(eq.directions_first[:, j]) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(eq.directions_second[:, j]) == pytest.approx(1.0, abs=1e-9)


def test_cca_equivalence_two_blocks_only():
    rng = np.random.default_rng(61)
    model = random_spd_model(rng, BlockStructure((1, 1, 1)))
    with pytest.raises(ValueError):
        cca_equivalence(model)


def test_k2_spectrum_pairs_and_split_norms():
    rng = np.random.default_rng(67)
    for _ in range(10):
        structure = BlockStructure((2, 2))
        model = random_spd_model(rng, structure)
        sol = solve_mslca(model)
        positive = sol.rho[sol.rho > 1e-8]
        negative = -sol.rho[sol.rho < -1e-8][::-1]
        np.testing.assert_allclose(positive, negative, atol=1e-9)
        for j in range(4):
            if abs(sol.rho[j]) <= 1e-8:
                continue
            for k in (0, 1):
                part = sol.beta[structure.block_slice(k), j]
                assert np.linalg.norm(part) == pytest.approx(1 / np.sqrt(2), abs=1e-9)


def _oracle_group_indices(rho, group_tol):
    """Group nonincreasing eigenvalues by |rho_anchor - rho_j| <= tol * max(1, |rho_anchor|)."""
    groups = []
    for j, value in enumerate(rho):
        if groups:
            anchor = rho[groups[-1][0]]
            if abs(anchor - value) <= group_tol * max(1.0, abs(anchor)):
                groups[-1].append(j)
                continue
        groups.append([j])
    return tuple(tuple(g) for g in groups)


def _oracle_groups(rho, group_tol):
    """Reference (groups, group_values, zero_group) for ``MslcaSolution``'s derived groups."""
    groups = _oracle_group_indices(rho.tolist(), group_tol)
    group_values = rho[[g[0] for g in groups]]
    zero_group = None
    for gi, value in enumerate(group_values.tolist()):
        if abs(value) <= group_tol:
            zero_group = gi
            break
    return groups, group_values, zero_group


def _assert_groups_match_oracle(sol):
    groups, group_values, zero_group = _oracle_groups(sol.rho, DEFAULT_GROUP_TOL)
    assert sol.groups == groups
    assert np.array_equal(sol.group_values, group_values)
    assert sol.zero_group == zero_group
    assert sol.is_simple == all(len(g) == 1 for g in groups)


def _spectrum_solution(rho):
    """A solution carrying a hand-made nonincreasing spectrum and identity directions."""
    rho = np.asarray(rho, dtype=float)
    eye = np.eye(rho.size)
    return MslcaSolution(BlockStructure((1,) * rho.size), rho, eye, eye)


def test_solution_fields_are_what_the_eigensolve_gives():
    names = [f.name for f in dataclasses.fields(MslcaSolution)]
    assert names == ["structure", "rho", "beta", "alpha"]


def test_derived_groups_match_oracle_on_random_models():
    rng = np.random.default_rng(401)
    for i in range(30):
        structure = random_structure(rng)
        if i % 2:
            model = random_whitened_model(rng, structure)
        else:
            model = random_spd_model(rng, structure)
        _assert_groups_match_oracle(solve_mslca(model))
    for model in (
        equicorrelation_model(3, 0.5),
        equicorrelation_model(4, -0.2),
        CovarianceModel(BlockStructure((2, 1)), np.eye(3)),
        correlation_model((1, 1, 1), {(1, 0): 0.5}),
        correlation_model((2, 2), {(1, 0): 0.4 * np.eye(2)}),
    ):
        _assert_groups_match_oracle(solve_mslca(model))


@pytest.mark.parametrize(
    "rho, groups, zero_group",
    [
        # each group is anchored at its first value, not chained
        ([1.0, 1.0 - 0.6e-8, 1.0 - 1.2e-8], ((0, 1), (2,)), None),
        ([0.5, 0.5 - 0.9e-8, 0.5 - 1.1e-8], ((0, 1), (2,)), None),
        # the tolerance is relative above |rho| = 1
        ([3.0, 3.0 - 2.9e-8, 3.0 - 3.1e-8], ((0, 1), (2,)), None),
        ([-2.0, -2.0 - 1.9e-8, -2.0 - 2.1e-8], ((0, 1), (2,)), None),
        ([0.3, 1e-9, 0.0, -1e-9, -0.3], ((0,), (1, 2, 3), (4,)), 1),
        # two groups within tolerance of zero: the first is the zero group
        ([0.5, 5e-9, -6e-9, -0.5], ((0,), (1,), (2,), (3,)), 1),
        ([0.4, 0.4, 0.4, 0.4], ((0, 1, 2, 3),), None),
        ([0.0, 0.0, 0.0], ((0, 1, 2),), 0),
        ([0.7, -0.7], ((0,), (1,)), None),
    ],
    ids=["anchor-unit", "anchor-half", "relative-above-one", "negative", "zero-group",
         "first-zero-group", "all-equal", "all-zero", "distinct"],
)
def test_derived_groups_on_hand_made_spectra(rho, groups, zero_group):
    sol = _spectrum_solution(rho)
    assert sol.groups == groups
    assert sol.zero_group == zero_group
    assert sol.group_values.tolist() == [rho[g[0]] for g in groups]
    _assert_groups_match_oracle(sol)


def test_group_values_are_read_only():
    sol = solve_mslca(equicorrelation_model(3, 0.5))
    assert not sol.group_values.flags.writeable
    with pytest.raises(ValueError):
        sol.group_values[0] = 0.0


def test_groups_are_derived_on_first_read():
    rows = np.random.default_rng(405).standard_normal((60, 3))
    sol = fit_mslca(Dataset(BlockStructure((2, 1)), rows)).solution
    derived = {"groups", "group_values", "zero_group"}
    assert not derived & set(vars(sol))
    assert sol.is_simple
    assert derived & set(vars(sol)) == {"groups"}
    groups = sol.groups
    # two sets of sizes 2 and 1: T has rank 2, so its middle eigenvalue is 0
    assert sol.zero_group == 1 and sol.groups is groups
    assert set(vars(sol)) >= derived
