"""Command-line front end: fit, test and simulate with JSON reports.

Exit codes: 0 success, 1 internal error, 2 bad input (CSV/flags/config),
3 near-singular block covariance, 4 simulation-plan precondition violation.
Every command is deterministic given its inputs; a simulation plan without
a seed uses 0, never the wall clock. ``test --method general`` inverts the
weighted chi-square tail numerically; the report's ``p_value_error_bound``
(1e-10) bounds the absolute error of its p-value. Floats in JSON use
Python's shortest round-trip representation, so re-parsing an output
reconstructs every value bit-for-bit.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback

import numpy as np

from .blocks import DEFAULT_COND_FLOOR, BlockStructure
from .estimation import Dataset, fit_mslca
from .exceptions import (
    InsufficientSampleError,
    NearSingularError,
    NuTooSmallError,
    PlanPreconditionError,
)
from .noncorr import chi2_test, general_test
from .population import DEFAULT_GROUP_TOL, verify_constraints
from .simulate import SimulationPlan, run_experiment

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_NEAR_SINGULAR = 3
EXIT_PLAN_PRECONDITION = 4


class InputError(ValueError):
    """User-facing input problem (CSV, flags, config); maps to exit 2."""


def parse_blocks(spec: str, n_columns: int) -> BlockStructure:
    """Parse a comma-separated block-size spec and check it against the CSV width."""
    try:
        dims = [int(part) for part in spec.split(",")]
    except ValueError:
        raise InputError(f"invalid --blocks value {spec!r}: expected comma-separated integers")
    if len(dims) < 2:
        raise InputError("--blocks needs at least 2 parts")
    if any(p < 1 for p in dims):
        raise InputError(f"--blocks parts must be >= 1, got {dims}")
    if sum(dims) != n_columns:
        raise InputError(
            f"--blocks sums to {sum(dims)} but the CSV has {n_columns} columns"
        )
    return BlockStructure(dims)


def read_csv_matrix(path: str) -> np.ndarray:
    """Read a numeric RFC-4180-style CSV, auto-detecting a single header row.

    The first row counts as a header when any of its cells fails to parse as
    a number; a leading UTF-8 byte-order mark is dropped first, so it cannot
    turn a data row into a header. Errors report 1-based file row and column.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            raw = [row for row in csv.reader(fh) if row]
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}")
    if not raw:
        raise InputError(f"{path} contains no data")

    def parse_row(row: list[str]) -> list[float] | None:
        try:
            return [float(cell) for cell in row]
        except ValueError:
            return None

    start = 0
    if parse_row(raw[0]) is None:
        start = 1
    if start >= len(raw):
        raise InputError(f"{path} has a header but no data rows")
    width = len(raw[start])
    values = []
    for file_row, row in enumerate(raw[start:], start=start + 1):
        if len(row) != width:
            raise InputError(
                f"{path}: row {file_row} has {len(row)} cells, expected {width}"
            )
        parsed = []
        for file_col, cell in enumerate(row, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise InputError(
                    f"{path}: non-numeric cell at row {file_row}, column {file_col}: {cell!r}"
                )
        values.append(parsed)
    return np.asarray(values, dtype=float)


def load_dataset(data_path: str, blocks_spec: str) -> Dataset:
    matrix = read_csv_matrix(data_path)
    structure = parse_blocks(blocks_spec, matrix.shape[1])
    try:
        return Dataset(structure, matrix)
    except ValueError as err:
        raise InputError(str(err))


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_fit(args) -> int:
    if not (args.group_tol > 0 and math.isfinite(args.group_tol)):
        raise InputError(f"--group-tol must be a positive finite number, got {args.group_tol}")
    if not 0 < args.cond_floor < 1:
        raise InputError(f"--cond-floor must be in (0, 1), got {args.cond_floor}")
    data = load_dataset(args.data, args.blocks)
    fit = fit_mslca(data, group_tol=args.group_tol, cond_floor=args.cond_floor)
    diagnostics = verify_constraints(fit.vhat, fit.solution)
    payload = {
        "n": fit.n,
        "dims": list(fit.structure.dims),
        "means": fit.means.tolist(),
        "vhat": fit.vhat.v.tolist(),
        "rho": fit.solution.rho.tolist(),
        "beta": fit.solution.beta.tolist(),
        "alpha_directions": fit.solution.alpha.tolist(),
        "groups": [list(g) for g in fit.solution.groups],
        "group_values": fit.solution.group_values.tolist(),
        "zero_group": fit.solution.zero_group,
        "diagnostics": {
            "max_unit_violation": diagnostics.max_unit_violation,
            "max_orthogonality_violation": diagnostics.max_orthogonality_violation,
            "rho_sum": float(fit.solution.rho.sum()),
        },
    }
    write_json(args.out, payload)
    return EXIT_OK


def _parse_scale(raw: str):
    if raw in ("gaussian", "plugin"):
        return raw
    try:
        value = float(raw)
    except ValueError:
        raise InputError(
            f"invalid --scale {raw!r}: expected 'gaussian', 'plugin' or a positive number"
        )
    if not 0 < value < math.inf:
        raise InputError(f"--scale must be a positive finite number, got {value}")
    return value


def _cmd_test(args) -> int:
    if args.method == "general" and args.scale is not None:
        raise InputError("--scale only applies to --method chi2")
    if not 0 < args.alpha < 1:
        raise InputError(f"--alpha must be in (0, 1), got {args.alpha}")
    fit = fit_mslca(load_dataset(args.data, args.blocks))
    if args.method == "chi2":
        scale = _parse_scale(args.scale) if args.scale is not None else "gaussian"
        report = chi2_test(fit, scale=scale, alpha=args.alpha)
    else:
        report = general_test(fit, alpha=args.alpha)
    write_json(args.out, report.to_dict())
    print(report.summary_line())
    return EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {args.config}: {err}")
    except json.JSONDecodeError as err:
        raise InputError(f"malformed config {args.config}: {err}")
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    try:
        plan = SimulationPlan.from_dict(raw)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed config: {err}")
    result = run_experiment(plan)
    write_json(args.out, result.to_dict())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mslca",
        description="Multiple-set linear canonical analysis: fit, non-correlation tests, simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", help="estimate the canonical analysis from a CSV sample")
    fit_p.add_argument("--data", required=True, help="CSV file, one observation per row")
    fit_p.add_argument("--blocks", required=True, help="comma-separated block sizes, e.g. 2,3,2")
    fit_p.add_argument("--out", required=True, help="output JSON path")
    fit_p.add_argument("--group-tol", type=float, default=DEFAULT_GROUP_TOL)
    fit_p.add_argument("--cond-floor", type=float, default=DEFAULT_COND_FLOOR)
    fit_p.set_defaults(func=_cmd_fit)

    test_p = sub.add_parser("test", help="test mutual non-correlation of the blocks")
    test_p.add_argument("--data", required=True)
    test_p.add_argument("--blocks", required=True)
    test_p.add_argument("--method", choices=("chi2", "general"), default="chi2")
    test_p.add_argument("--scale", default=None, help="chi2 route: gaussian | plugin | positive float")
    test_p.add_argument("--alpha", type=float, default=0.05)
    test_p.add_argument("--out", required=True)
    test_p.set_defaults(func=_cmd_test)

    sim_p = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON plan")
    sim_p.add_argument("--config", required=True, help="flat JSON object describing the plan")
    sim_p.add_argument("--out", required=True)
    sim_p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_BAD_INPUT if err.code else EXIT_OK
    try:
        return args.func(args)
    except (InputError, InsufficientSampleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NearSingularError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NEAR_SINGULAR
    except (NuTooSmallError, PlanPreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PLAN_PRECONDITION
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
