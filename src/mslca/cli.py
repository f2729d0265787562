"""Command-line front end: fit, test and simulate with JSON reports.

Exit codes: 0 success, 1 internal error, 2 bad input (CSV/flags/config, an
unreadable or non-UTF-8 input, an unwritable --out, a sample whose
covariance over- or underflows, or an input too large for memory), 3
near-singular block covariance, 4 simulation-plan precondition violation. CSV
errors name the 1-based file line and column. Every command is deterministic
given its inputs; a simulation plan without a seed uses 0, never the wall
clock. ``test --method general`` inverts the weighted chi-square tail
numerically; the report's ``p_value_error_bound`` (1e-10) bounds the absolute
error of its p-value. Floats in JSON use Python's shortest round-trip
representation, so re-parsing an output reconstructs every value bit-for-bit.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import math
import os
import sys
import traceback
import warnings
from dataclasses import asdict

import numpy as np

from .blocks import BlockStructure
from .estimation import Dataset, fit_mslca
from .exceptions import (
    CovarianceOverflowError,
    InsufficientSampleError,
    NearSingularError,
    NuTooSmallError,
    PlanPreconditionError,
)
from .noncorr import chi2_test, general_test
from .population import CovarianceModel, verify_constraints
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


# Characters np.loadtxt strips from a cell as whitespace but float() refuses.
_LOADTXT_ONLY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _is_header(row: list[str]) -> bool:
    """A row is a header when none of its cells parses as a number."""
    for cell in row:
        try:
            float(cell)
        except ValueError:
            continue
        return False
    return True


def read_csv_matrix(path: str) -> np.ndarray:
    """Read a numeric RFC-4180-style CSV, auto-detecting a single header row.

    The first non-blank row is a header when none of its cells parses as a
    number; a leading UTF-8 byte-order mark is dropped first, so it cannot
    turn a data row into a header. A ragged row and a non-numeric or
    non-finite cell raise InputError naming the path, the 1-based file line
    (blank lines count) and the column.

    The bytes are read once, from a file or a pipe. A plain numeric UTF-8
    file (no quotes, no ``1_0``-style numbers) is parsed from memory by numpy's
    C reader; any other file, and every file with an error, is decoded whole
    for the csv scan. Both give the same values and the same errors.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    matrix = _read_plain(raw)
    if matrix is None:
        matrix = _scan_csv(path, io.StringIO(raw.decode("utf-8-sig"), newline=""))
    return matrix


def _has_long_line(raw: bytes, limit: int, start: int = 0) -> bool:
    """Whether a line of ``raw[start:]``, in bytes between newlines, is longer than ``limit``.

    Each step finds the last newline within limit + 1 bytes of a line start:
    with none, that line is too long; else every line up to it is short.
    """
    while len(raw) - start > limit:
        end = raw.rfind(b"\n", start, start + limit + 1)
        if end < 0:
            return True
        start = end + 1
    return False


def _read_plain(raw: bytes) -> np.ndarray | None:
    """np.loadtxt's matrix of a plain numeric file's bytes, or None for the csv scan.

    Returns None unless the matrix is what the scan would return: the bytes
    after a leading BOM are UTF-8, no line is longer than the csv field limit
    (counted in bytes between newlines, which is never shorter), each CR is
    followed by LF (numpy ends lines at LF alone, the scan at CR too), and the
    matrix has a row and only finite entries. The header search decodes only
    the first rows.
    """
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    if (_has_long_line(raw, csv.field_size_limit(), start)
            or any(space in raw for space in _LOADTXT_ONLY_SPACES)
            or (b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"))):
        return None
    body = io.BytesIO(raw)
    body.seek(start)
    try:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""))
        first = next((row for row in reader if row), None)
        if first is None:
            return None
        skip = reader.line_num if _is_header(first) else 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a header-only file
            matrix = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=float,
                                skiprows=skip, encoding="utf-8")
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    if len(matrix) == 0 or not np.isfinite(matrix).all():
        return None
    return matrix


def _scan_csv(path: str, fh) -> np.ndarray:
    """Read the CSV text ``fh`` with the csv module, raising InputError at the first bad cell.

    ``fh`` yields the file's text with its line endings kept (``newline=""``);
    ``path`` only names the file in messages.
    """
    reader = csv.reader(fh)
    rows, lines = [], []
    for row in reader:
        if row:
            rows.append(row)
            lines.append(reader.line_num)
    if rows and _is_header(rows[0]):
        del rows[0], lines[0]
    if not rows:
        raise InputError(f"{path} has no data rows")
    try:
        matrix = np.array(rows, dtype=float)
    except ValueError:
        # numpy parses each cell as float() does; find the first cell it refused
        for row, line in zip(rows, lines):
            if len(row) != len(rows[0]):
                raise InputError(
                    f"{path}: row {line} has {len(row)} cells, expected {len(rows[0])}"
                )
            for col, cell in enumerate(row, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise InputError(
                        f"{path}: non-numeric cell at row {line}, column {col}: {cell!r}"
                    ) from None
        raise
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        i, j = bad[0]
        raise InputError(
            f"{path}: non-finite cell at row {lines[i]}, column {j + 1}: {rows[i][j]!r}"
        )
    return matrix


def load_dataset(data_path: str, blocks_spec: str) -> Dataset:
    matrix = read_csv_matrix(data_path)
    return Dataset._from_fresh(parse_blocks(blocks_spec, matrix.shape[1]), matrix)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_fit(args) -> int:
    fit = fit_mslca(load_dataset(args.data, args.blocks))
    diagnostics = verify_constraints(CovarianceModel(fit.structure, fit.vhat), fit.solution)
    payload = {
        "n": fit.n,
        "dims": list(fit.structure.dims),
        "means": fit.means.tolist(),
        "vhat": fit.vhat.tolist(),
        "rho": fit.solution.rho.tolist(),
        "beta": fit.solution.beta.tolist(),
        "alpha_directions": fit.solution.alpha.tolist(),
        "groups": [list(g) for g in fit.solution.groups],
        "group_values": fit.solution.group_values.tolist(),
        "zero_group": fit.solution.zero_group,
        "diagnostics": {**asdict(diagnostics), "rho_sum": float(fit.solution.rho.sum())},
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
    with open(args.config, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    try:
        plan = SimulationPlan.from_dict(raw)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"malformed config: {err}")
    # Open --out before any cell runs, so an unwritable path fails first; a
    # failed run leaves --out as it found it.
    existed = os.path.exists(args.out)
    with open(args.out, "a", encoding="utf-8"):
        pass
    try:
        result = run_experiment(plan)
    except BaseException:
        if not existed:
            os.remove(args.out)
        raise
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
    except (InputError, InsufficientSampleError, CovarianceOverflowError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (UnicodeDecodeError, csv.Error, json.JSONDecodeError) as err:
        source = args.config if args.command == "simulate" else args.data
        print(f"error: cannot parse {source}: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except NearSingularError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NEAR_SINGULAR
    except (NuTooSmallError, PlanPreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PLAN_PRECONDITION
    except MemoryError as err:
        print(f"error: not enough memory: {str(err) or 'the input is too large'}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
