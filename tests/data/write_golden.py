"""Write the golden files the test suite compares outputs against.

Run by hand from the repository root:

    PYTHONPATH=src python tests/data/write_golden.py [OUT_DIR]

It writes two files into OUT_DIR (default: this directory):

* ``golden_records.json`` -- one small plan per experiment kind, with the
  records and summaries ``run_experiment`` returns for it.
* ``golden_cli.json`` -- a seeded student-t sample, the ``mslca fit`` JSON
  for it, and the JSON report and stdout line of ``mslca test`` for each
  route: chi2, chi2 with the plug-in scale, chi2 with a user scale, and
  general.

``tests/test_golden_records.py`` runs this script into a temporary
directory and compares both files with the stored ones. The golden files
pin the numbers the package produces, so rewriting one is a change of
behaviour: a refresh needs a line in CHANGES.md that says why the numbers
moved.

The stored files are not reproduced byte for byte on every host: BLAS
builds and CPUs round differently. On a 2-core x86-64 host with OpenBLAS
0.3.31, a fresh ``golden_records.json`` differs from the stored one in 165
floats, by at most 2.5e-12 relative, while ``golden_cli.json`` is
identical. So the tests compare within rtol 1e-9 (``assert_matches_golden``),
and a change that claims to keep the numbers bit for bit is checked by
writing both files before and after it on one host and comparing bytes.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from mslca import (
    BlockStructure,
    CovarianceModel,
    SimulationPlan,
    run_experiment,
    sample_student_t,
)
from mslca.cli import main

CORRELATED_111 = [[1.0, 0.3, 0.15], [0.3, 1.0, 0.1], [0.15, 0.1, 1.0]]

PLANS = [
    {"kind": "consistency", "dims": [1, 1, 1], "covariance": CORRELATED_111,
     "sizes": [100, 300], "replications": 5, "seed": 1},
    {"kind": "clt-check", "dims": [1, 1, 1], "covariance": CORRELATED_111,
     "sizes": [200], "replications": 5, "seed": 2},
    {"kind": "coeff-clt", "dims": [1, 1, 1], "covariance": CORRELATED_111,
     "sizes": [300], "replications": 5, "sampler": "student-t", "nu": 12.0, "seed": 3},
    {"kind": "null-dist", "dims": [2, 1, 1],
     "covariance": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
     "sizes": [200], "replications": 5, "sampler": "student-t", "nu": 10.0, "seed": 4,
     "alphas": [0.05, 0.1], "methods": ["chi2", "general"]},
    {"kind": "power", "dims": [1, 2],
     "covariance": [[1.0, 0.25, -0.1], [0.25, 1.0, 0.0], [-0.1, 0.0, 1.0]],
     "sizes": [150, 300], "replications": 5, "seed": 5,
     "alphas": [0.05, 0.1], "methods": ["chi2", "general"]},
]

# n = 300 is well above 10 d (d = 8), so the general route does not warn.
CLI_SAMPLE = {
    "dims": [2, 1, 2],
    "covariance": [
        [1.0, 0.2, 0.1, 0.0, 0.05],
        [0.2, 1.0, 0.0, 0.1, 0.0],
        [0.1, 0.0, 1.0, 0.1, -0.1],
        [0.0, 0.1, 0.1, 1.0, 0.3],
        [0.05, 0.0, -0.1, 0.3, 1.0],
    ],
    "nu": 9.0,
    "n": 300,
    "seed": 17,
}
TEST_ROUTES = [
    ["--method", "chi2"],
    ["--method", "chi2", "--scale", "plugin"],
    ["--method", "chi2", "--scale", "1.7"],
    ["--method", "general"],
]


def write_cli_sample(path: Path) -> None:
    """Draw ``CLI_SAMPLE`` and write it as CSV, each value in its round-trip repr."""
    sample = CLI_SAMPLE
    model = CovarianceModel(BlockStructure(sample["dims"]), sample["covariance"])
    rows = sample_student_t(model, sample["nu"], sample["n"], sample["seed"]).rows
    path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows.tolist()))


def golden_records() -> list[dict]:
    entries = []
    for raw in PLANS:
        plan = SimulationPlan.from_dict(raw)
        result = run_experiment(plan)
        entries.append({
            "name": plan.kind,
            "plan": plan.to_dict(),
            "records": result.records,
            "summaries": result.summaries,
        })
    return json.loads(json.dumps(entries))


def _run_cli(argv: list[str], out: Path) -> tuple[dict, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"mslca {' '.join(argv)} exited {code}")
    return json.loads(out.read_text()), stdout.getvalue()


def golden_cli() -> dict:
    blocks = ",".join(str(p) for p in CLI_SAMPLE["dims"])
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "sample.csv"
        write_cli_sample(csv_path)
        data = ["--data", str(csv_path), "--blocks", blocks]
        fit, _ = _run_cli(["fit", *data], Path(tmp) / "fit.json")
        tests = []
        for route in TEST_ROUTES:
            report, stdout = _run_cli(["test", *data, *route], Path(tmp) / "test.json")
            tests.append({"args": route, "report": report, "stdout": stdout})
    return {"sample": CLI_SAMPLE, "fit": fit, "test": tests}


def write(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    write(out_dir / "golden_records.json", golden_records())
    write(out_dir / "golden_cli.json", golden_cli())
