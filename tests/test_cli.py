"""Command-line interface: exit codes, CSV handling, JSON reports."""

import json

import numpy as np
import pytest

from mslca import BlockStructure, CovarianceModel, sample_gaussian
from mslca.cli import main
from conftest import correlation_model


def write_csv(path, rows, header=None):
    lines = []
    if header is not None:
        lines.append(",".join(header))
    lines.extend(",".join(repr(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def gaussian_csv(tmp_path):
    model = correlation_model((1, 1, 1), {(1, 0): 0.3, (2, 0): 0.1, (2, 1): 0.2})
    data = sample_gaussian(model, 400, 23)
    path = tmp_path / "data.csv"
    write_csv(path, data.rows.tolist())
    return path


def test_fit_writes_report(gaussian_csv, tmp_path):
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", str(gaussian_csv), "--blocks", "1,1,1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 400
    assert payload["dims"] == [1, 1, 1]
    assert len(payload["rho"]) == 3
    assert abs(sum(payload["rho"])) < 1e-9
    assert payload["diagnostics"]["max_unit_violation"] < 1e-9


def test_fit_json_roundtrips_exactly(gaussian_csv, tmp_path):
    out = tmp_path / "fit.json"
    main(["fit", "--data", str(gaussian_csv), "--blocks", "1,1,1", "--out", str(out)])
    payload = json.loads(out.read_text())
    from mslca import Dataset, empirical_cov
    from mslca.cli import read_csv_matrix

    matrix = read_csv_matrix(str(gaussian_csv))
    vhat = empirical_cov(Dataset(BlockStructure((1, 1, 1)), matrix)).v
    assert np.array_equal(np.asarray(payload["vhat"]), vhat)


def test_fit_header_autodetect(tmp_path):
    path = tmp_path / "with_header.csv"
    write_csv(path, [[0.1, 0.2], [0.3, -0.1], [-0.4, 0.5]], header=["left", "right"])
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(path), "--blocks", "1,1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 3


def test_bom_csv_without_header_keeps_first_row(tmp_path):
    rows = sample_gaussian(CovarianceModel(BlockStructure((1, 1)), np.eye(2)), 50, 43).rows
    path = tmp_path / "bom.csv"
    write_csv(path, rows.tolist())
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(path), "--blocks", "1,1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 50


def test_bom_csv_with_header_detects_header(tmp_path):
    path = tmp_path / "bom_header.csv"
    write_csv(path, [[0.1, 0.2], [0.3, -0.1], [-0.4, 0.5]], header=["left", "right"])
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(path), "--blocks", "1,1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 3


def test_fit_non_numeric_cell_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(path), "--blocks", "1,1", "--out", str(out)]) == 2
    message = capsys.readouterr().err
    assert "row 2" in message and "column 2" in message


def test_fit_blocks_mismatch_exit_2(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, [[1.0] * 6, [2.0] * 6])
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(path), "--blocks", "2,3", "--out", str(out)]) == 2


def test_fit_collinear_block_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(29)
    base = rng.standard_normal(50)
    rows = np.column_stack([base, base, rng.standard_normal(50)])
    path = tmp_path / "collinear.csv"
    write_csv(path, rows.tolist())
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(path), "--blocks", "2,1", "--out", str(out)]) == 3
    assert "block 0" in capsys.readouterr().err


def test_fit_missing_file_exit_2(tmp_path):
    assert main(["fit", "--data", str(tmp_path / "nope.csv"), "--blocks", "1,1",
                 "--out", str(tmp_path / "o.json")]) == 2


def test_fit_single_row_exit_2(tmp_path):
    path = tmp_path / "one.csv"
    write_csv(path, [[1.0, 2.0]])
    assert main(["fit", "--data", str(path), "--blocks", "1,1",
                 "--out", str(tmp_path / "o.json")]) == 2


def test_test_command_independent_blocks(gaussian_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    data = sample_gaussian(model, 600, 31)
    path = tmp_path / "indep.csv"
    write_csv(path, data.rows.tolist())
    code = main(["test", "--data", str(path), "--blocks", "1,1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["method"] == "chi2"
    assert report["p_value_error_bound"] is None
    assert report["p_value"] > 0.05
    line = capsys.readouterr().out.strip()
    assert line == (
        f"nS={report['nS']} d={report['d']} p={report['p_value']} reject={report['reject']}"
    )


def test_test_command_correlated_blocks_rejects(tmp_path):
    model = correlation_model((1, 1), {(1, 0): 0.5})
    data = sample_gaussian(model, 500, 37)
    path = tmp_path / "corr.csv"
    write_csv(path, data.rows.tolist())
    out = tmp_path / "report.json"
    assert main(["test", "--data", str(path), "--blocks", "1,1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["p_value"] < 0.01
    assert report["reject"] is True


def test_test_command_general_route(tmp_path):
    model = CovarianceModel(BlockStructure((1, 1)), np.eye(2))
    data = sample_gaussian(model, 500, 41)
    path = tmp_path / "indep.csv"
    write_csv(path, data.rows.tolist())
    out = tmp_path / "report.json"
    code = main([
        "test", "--data", str(path), "--blocks", "1,1", "--method", "general", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["method"] == "general"
    assert report["scale"] is None
    assert len(report["gamma_eigenvalues"]) == 1
    assert report["p_value_error_bound"] == 1e-10


def test_test_command_flag_rules(gaussian_csv, tmp_path):
    out = tmp_path / "report.json"
    base = ["test", "--data", str(gaussian_csv), "--blocks", "1,1,1", "--out", str(out)]
    assert main(base + ["--method", "chi2", "--scale", "0"]) == 2
    assert main(base + ["--scale", "nan"]) == 2
    assert main(base + ["--scale", "inf"]) == 2
    assert main(base + ["--method", "general", "--scale", "gaussian"]) == 2
    assert main(base + ["--scale", "bogus"]) == 2
    assert main(base + ["--alpha", "1.5"]) == 2
    assert main(base + ["--scale", "plugin"]) == 0
    report = json.loads(out.read_text())
    assert report["scale_provenance"] == "plugin"


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("fit", "--group-tol", "0"),
        ("fit", "--cond-floor", "-1"),
        ("fit", "--cond-floor", "1"),
        # the general route draws no Monte Carlo samples, so the flag is unknown
        ("test", "--mc-reps", "0"),
        ("test", "--mc-reps", "-5"),
    ],
)
def test_numeric_flag_out_of_range_exit_2(gaussian_csv, tmp_path, capsys, command, flag, value):
    out = tmp_path / "o.json"
    argv = [command, "--data", str(gaussian_csv), "--blocks", "1,1,1", "--out", str(out)]
    if command == "test":
        argv += ["--method", "general"]
    assert main(argv + [flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flags_exit_2(gaussian_csv, tmp_path):
    assert main(["fit", "--data", str(gaussian_csv), "--bogus", "1"]) == 2
    assert main(["frobnicate"]) == 2
    # the general route's tail is deterministic: ``test`` takes no seed
    out = tmp_path / "o.json"
    argv = ["test", "--data", str(gaussian_csv), "--blocks", "1,1,1", "--out", str(out)]
    assert main(argv + ["--method", "general", "--seed", "0"]) == 2
    assert not out.exists()


def _null_plan_config(tmp_path, **overrides):
    config = {
        "kind": "null-dist",
        "dims": [1, 1],
        "covariance": np.eye(2).tolist(),
        "sizes": [200],
        "replications": 25,
        "seed": 3,
    }
    config.update(overrides)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(config))
    return path


def test_simulate_null_dist(tmp_path):
    config = _null_plan_config(tmp_path)
    out = tmp_path / "result.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["kind"] == "null-dist"
    assert "ks_to_chi2" in result["summaries"]["200"]
    assert len(result["records"]) == 25
    assert result["plan"]["seed"] == 3


def test_simulate_rerun_identical_modulo_wall_time(tmp_path):
    config = _null_plan_config(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
    first = json.loads(out1.read_text())
    second = json.loads(out2.read_text())
    first["meta"].pop("wall_time_s")
    second["meta"].pop("wall_time_s")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_simulate_malformed_config_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.json")]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"kind": "null-dist"}))
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o.json")]) == 2
    bad_kind = _null_plan_config(tmp_path, kind="bogus")
    assert main(["simulate", "--config", str(bad_kind), "--out", str(tmp_path / "o.json")]) == 2


def test_simulate_plan_preconditions_exit_4(tmp_path):
    nu_bad = _null_plan_config(tmp_path, sampler="student-t", nu=3)
    assert main(["simulate", "--config", str(nu_bad), "--out", str(tmp_path / "o.json")]) == 4
    reps_bad = _null_plan_config(tmp_path, replications=0)
    assert main(["simulate", "--config", str(reps_bad), "--out", str(tmp_path / "o.json")]) == 4


WHITENED_111 = correlation_model((1, 1, 1), {(1, 0): 0.3, (2, 0): 0.15, (2, 1): 0.1}).v
# the same canonical analysis with the first variable's variance doubled
SCALED_111 = (np.sqrt([2.0, 1.0, 1.0])[:, None] * WHITENED_111 * np.sqrt([2.0, 1.0, 1.0])).tolist()
EQUICORRELATED_111 = (0.5 * np.eye(3) + 0.5).tolist()


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"method": ["general"]}, 2),
        ({"mc_draws": 0}, 2),
        ({"dims": [3, 3], "covariance": np.eye(6).tolist(), "sizes": [50, 3]}, 4),
        # malformed values: exit 2
        ({"seed": 1.5}, 2),
        ({"seed": 3.0}, 2),
        ({"sizes": [200.7]}, 2),
        ({"replications": 2.5}, 2),
        ({"dims": [1.9, 1]}, 2),
        ({"alphas": [], "methods": ["chi2", "general"]}, 2),
        ({"alphas": []}, 2),
        ({"sampler": "student-t", "nu": float("nan")}, 2),
        ({"sampler": "student-t", "nu": float("inf")}, 2),
        ({"covariance": [[1.0, 2.0], [2.0, 1.0]]}, 2),
        ({"covariance": [[1.0, float("nan")], [float("nan"), 1.0]]}, 2),
        # a kind's precondition: exit 4
        ({"covariance": [[1.0, 0.3], [0.3, 1.0]]}, 4),
        ({"kind": "coeff-clt", "dims": [1, 1, 1], "covariance": EQUICORRELATED_111}, 4),
        ({"kind": "coeff-clt", "dims": [1, 1, 1], "covariance": SCALED_111}, 4),
        ({"kind": "clt-check", "covariance": [[2.0, 0.0], [0.0, 1.0]]}, 4),
        ({"kind": "coeff-clt", "dims": [1, 1, 1], "covariance": WHITENED_111.tolist(),
          "replications": 1}, 4),
        ({"kind": "clt-check", "replications": 1}, 4),
    ],
)
def test_simulate_plan_rejected_before_any_cell(tmp_path, capsys, overrides, code):
    config = _null_plan_config(tmp_path, **overrides)
    out = tmp_path / "o.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
