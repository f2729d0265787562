"""Command-line interface: exit codes, CSV handling, JSON reports."""

import builtins
import csv
import gzip
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mslca.cli
from mslca import BlockStructure, CovarianceModel, sample_gaussian, sample_student_t
from mslca.cli import main
from conftest import assert_matches_golden, correlation_model

GOLDEN_CLI = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())


def write_csv(path, rows, header=None):
    lines = []
    if header is not None:
        lines.append(",".join(header))
    lines.extend(",".join(repr(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _assert_one_error_line(capsys, *fragments):
    """stderr is one ``error:`` line holding every fragment, with no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err, (fragment, err)


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
    from mslca import Dataset, fit_mslca
    from mslca.cli import read_csv_matrix

    matrix = read_csv_matrix(str(gaussian_csv))
    vhat = fit_mslca(Dataset(BlockStructure((1, 1, 1)), matrix)).vhat
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


@pytest.mark.parametrize(
    "content, fragments",
    [
        (b"1.0,2.0\n3.0,\xff\n", ["can't decode byte 0xff"]),
        (b"1.0,2.0\n3.0," + b"1" * 131073 + b"\n", ["field limit"]),
        # file lines count the header and the blank lines
        (b"x,y\n\n1.0,2.0\n\n3.0,oops\n", ["non-numeric cell at row 5, column 2: 'oops'"]),
        (b"x,y\n\n1.0,2.0\n\n3.0\n", ["row 5 has 1 cells, expected 2"]),
        (b"x,y\n1.0,2.0\n3.0,nan\n", ["non-finite cell at row 3, column 2: 'nan'"]),
        (b"x,y\n1e999,2.0\n3.0,4.0\n", ["non-finite cell at row 2, column 1: '1e999'"]),
        (b"", ["has no data rows"]),
        (b"x,y\n\n", ["has no data rows"]),
    ],
    ids=["non-utf8", "over-long-field", "non-numeric", "ragged", "nan", "overflow", "empty",
         "header-only"],
)
@pytest.mark.parametrize("command", ["fit", "test"])
def test_bad_csv_exit_2_names_path_and_position(tmp_path, capsys, command, content, fragments):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    out = tmp_path / "o.json"
    assert main([command, "--data", str(path), "--blocks", "1,1", "--out", str(out)]) == 2
    _assert_one_error_line(capsys, str(path), *fragments)
    assert not out.exists()


def test_decode_error_gives_the_offset_in_the_file(tmp_path, capsys):
    path = tmp_path / "late.csv"
    path.write_bytes(b"1.0,2.0\n" * 2000 + b"3.0,\xff\n")
    assert main(["fit", "--data", str(path), "--blocks", "1,1", "--out", str(tmp_path / "o.json")]) == 2
    _assert_one_error_line(capsys, str(path), "can't decode byte 0xff in position 16004")


@pytest.mark.parametrize(
    "first_row, fragment",
    [
        ("1d5,2", "row 1, column 1: '1d5'"),
        ("1,,2", "row 1, column 2: ''"),
        ("1, ", "row 1, column 2: ' '"),
        ("1 2,3", "row 1, column 1: '1 2'"),
        (".,1", "row 1, column 1: '.'"),
        ("+-1,2", "row 1, column 1: '+-1'"),
        ("1e 5,2", "row 1, column 1: '1e 5'"),
        ("1,\x01", "row 1, column 2: '\\x01'"),
        ("id,2020", "row 1, column 1: 'id'"),
    ],
    ids=["d-exponent", "empty-cell", "blank-cell", "inner-space", "dot", "two-signs",
         "split-exponent", "control-char", "text-and-number"],
)
def test_first_row_with_a_number_is_data(tmp_path, capsys, first_row, fragment):
    # a typo in the first data row is an error, never a silently dropped header
    width = first_row.count(",") + 1
    path = tmp_path / "typo.csv"
    path.write_text(first_row + "\n" + "".join(",".join(["3.5"] * width) + "\n" for _ in range(3)))
    out = tmp_path / "o.json"
    argv = ["fit", "--data", str(path), "--blocks", ",".join(["1"] * width), "--out", str(out)]
    assert main(argv) == 2
    _assert_one_error_line(capsys, str(path), "non-numeric cell at " + fragment)
    assert not out.exists()


@pytest.mark.parametrize(
    "content, n",
    [
        (b",a,b\n0,0.1,0.2\n1,0.3,-0.1\n2,-0.4,0.5\n", 3),
        (b"\n\r\n\"a,b\",c\r\n0.1,0.2\r\n\r\n0.3,-0.1\r\n", 2),
    ],
    ids=["pandas-index", "quoted-after-blank-lines"],
)
def test_header_is_a_first_row_without_numbers(tmp_path, content, n):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    assert mslca.cli.read_csv_matrix(str(path)).shape[0] == n


def _wide_csv():
    rows = np.random.default_rng(61).standard_normal((300, 40))
    return "".join(",".join(f"{v:+.12e}" for v in row) + "\n" for row in rows).encode()


# read_csv_matrix must agree with the csv scan on every file: plain numeric
# ones take numpy's reader, the rest fall back to the scan.
_READER_CORPUS = {
    "wide.csv": _wide_csv(),
    "crlf.csv": b"1,2\r\n3,4.5\r\n5,6\r\n",
    "cr-only.csv": b"1,2\r3,4.5\r5,6\r",
    "cr-only-header.csv": b"x,y\r1,2\r3,4.5\r",
    "crlf-header.csv": b"x,y\r\n\r\n1,2\r\n3,4.5\r\n",
    "blank-lines.csv": b"\n1,2\n\n\n3,4.5\n\n",
    "whitespace-line.csv": b"1,2\n  \n3,4.5\n",
    "whitespace-first-line.csv": b" \n1,2\n3,4.5\n",
    "tab-padded.csv": b"\t1 ,2\n3, 4.5\t\n",
    "bom.csv": b"\xef\xbb\xbf1,2\n3,4.5\n",
    "bom-header.csv": b"\xef\xbb\xbfx,y\n1,2\n3,4.5\n",
    "blank-lines-before-header.csv": b"\n\r\n\nx,y\n\n1,2\n3,4.5\n",
    "quoted-cells.csv": b'"1","2.5"\n3,"4"\n',
    "quoted-header.csv": b'"a,\nb",c\n1,2\n3,4.5\n',
    "underscore.csv": b"1_0,2\n3,4.5\n",
    "inf.csv": b"1,2\n3,inf\n",
    "nan-first.csv": b"nan,2\n3,4.5\n",
    "overflow.csv": b"1e999,2\n3,4.5\n",
    "empty.csv": b"",
    "blank-only.csv": b"\n\r\n",
    "header-only.csv": b"x,y\n",
    "long-finite-field.csv": b"1,2\n3,0." + b"0" * 131070 + b"1\n",
    "long-line-short-fields.csv": b",".join([b"1"] * 70000) + b"\n" + b",".join([b"2"] * 70000) + b"\n",
    "ragged.csv": b"1,2\n3\n",
    "non-utf8.csv": b"1,2\n3,\xff\n",
    "first-row-typo.csv": b"1d5,2\n3,4.5\n",
    "record-separator.csv": b"\x1c1,2\n3,4.5\n",
    "nul.csv": b"1\x00,2\n3,4.5\n",
    "arabic-digits.csv": "١,2\n3,4.5\n".encode(),
    "no-break-space.csv": "\xa01,2\n3,4.5\n".encode(),
    "no-final-newline.csv": b"1,2\n3,4.5",
    "one-column.csv": b"1\n2\n3.5\n",
    "trailing-comma.csv": b"1,2,\n3,4.5,\n",
    "compressed.csv.gz": gzip.compress(b"1,2\n3,4.5\n", mtime=0),
    # how the bytes are decoded: UTF-8 throughout, one BOM dropped, lines
    # ending where Python's text layer ends them
    "utf8-header.csv": "température,x\n1,2\n3,4.5\n".encode(),
    "lone-0x85.csv": b"1\x85,2\n3,4.5\n",
    "late-0x85.csv": b"1,2\n" * 3000 + b"3\x85,4.5\n",
    "utf8-next-line.csv": "1\x85,2\n3,4.5\n".encode(),
    "latin1-header.csv": b"temp\xe9rature,x\n1,2\n3,4.5\n",
    "bom-crlf.csv": b"\xef\xbb\xbf1,2\r\n3,4.5\r\n",
    "two-boms.csv": b"\xef\xbb\xbf\xef\xbb\xbf1,2\n3,4.5\n",
    "cr-header-then-lf.csv": b"x,y\r1,2\r3,4.5\r\n5,6\n",
    "cr-in-header.csv": b"a\rb,c\n1,2\n3,4.5\n",
}


def _scan(path):
    """The csv scan of the whole file decoded as UTF-8 after an optional BOM: the reference."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8-sig")
    return mslca.cli._scan_csv(path, io.StringIO(text, newline=""))


def _read_outcome(reader, path):
    try:
        matrix = reader(str(path))
    except Exception as err:
        return type(err), str(err)
    return matrix.dtype.str, matrix.shape, matrix.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", [*_READER_CORPUS, "missing.csv", "directory"])
def test_read_csv_matrix_agrees_with_the_scan(tmp_path, name):
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    elif name in _READER_CORPUS:
        path.write_bytes(_READER_CORPUS[name])
    expected = _read_outcome(_scan, path)
    assert _read_outcome(mslca.cli.read_csv_matrix, path) == expected


def _refuse_the_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("the csv scan ran on a plain numeric file")

    monkeypatch.setattr(mslca.cli, "_scan_csv", refuse)


@pytest.mark.parametrize(
    "name", ["wide.csv", "crlf-header.csv", "bom-header.csv", "blank-lines-before-header.csv",
             "utf8-header.csv", "bom-crlf.csv"]
)
def test_plain_numeric_csv_never_reaches_the_scan(tmp_path, monkeypatch, name):
    path = tmp_path / name
    path.write_bytes(_READER_CORPUS[name])
    expected = _scan(str(path))
    _refuse_the_scan(monkeypatch)
    assert mslca.cli.read_csv_matrix(str(path)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("newline, ending", [(b"\n", b"\n"), (b"\r\n", b"\r\n"), (b"\n", b"")],
                         ids=["lf", "crlf", "no-final-newline"])
@pytest.mark.parametrize("longest, scanned", [(20, False), (21, True)], ids=["at-limit", "over-limit"])
def test_plain_reader_line_limit_boundary(tmp_path, monkeypatch, newline, ending, longest, scanned):
    # a line is measured in bytes between newlines, a CR included; with the
    # csv field limit at 20, a 20-byte line is read by numpy, 21 bytes by the scan
    line = b"1,2,3.5" + b"0" * (longest - 7 - len(ending.rstrip(b"\n")))
    content = b"1,2,3" + newline + line + ending
    assert max(map(len, content.split(b"\n"))) == longest
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    scan = mslca.cli._scan_csv
    calls = []

    def recorded(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(mslca.cli, "_scan_csv", recorded)
    previous = csv.field_size_limit(20)
    try:
        matrix = mslca.cli.read_csv_matrix(str(path))
    finally:
        csv.field_size_limit(previous)
    assert np.array_equal(matrix, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.5]])
    assert bool(calls) == scanned


def _read_through_a_named_pipe(tmp_path, content):
    fifo = tmp_path / "data.csv"
    os.mkfifo(fifo)
    done = threading.Event()

    def write():
        try:
            fifo.write_bytes(content)
        except BrokenPipeError:
            pass
        if not done.wait(30):
            fifo.open("wb").close()  # let a reader that reopened the pipe see its end

    writer = threading.Thread(target=write)
    writer.start()
    try:
        matrix = mslca.cli.read_csv_matrix(str(fifo))
    finally:
        done.set()
        writer.join(60)
    assert not writer.is_alive()
    return matrix


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_csv_matrix_reads_a_named_pipe_once(tmp_path, monkeypatch):
    # a plain numeric file from a pipe takes numpy's reader, as from a regular file
    _refuse_the_scan(monkeypatch)
    matrix = _read_through_a_named_pipe(tmp_path, b"x,y\n1,2\n3,4.5\n")
    assert matrix.tolist() == [[1.0, 2.0], [3.0, 4.5]]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_csv_matrix_scans_a_named_pipe_once(tmp_path):
    matrix = _read_through_a_named_pipe(tmp_path, b'x,y\n"1",2\n3,4.5\n')
    assert matrix.tolist() == [[1.0, 2.0], [3.0, 4.5]]


@pytest.mark.parametrize("name", ["wide.csv", "quoted-cells.csv", "non-utf8.csv", "empty.csv"])
def test_read_csv_matrix_opens_the_path_once(tmp_path, monkeypatch, name):
    path = tmp_path / name
    path.write_bytes(_READER_CORPUS[name])
    expected = _read_outcome(_scan, path)
    opened = []
    builtin_open = open

    def recorded(file, *args, **kwargs):
        if file == str(path):
            opened.append(args)
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recorded)
    assert _read_outcome(mslca.cli.read_csv_matrix, path) == expected
    monkeypatch.undo()
    assert len(opened) == 1


@pytest.mark.parametrize("command", ["fit", "test", "simulate"])
def test_out_in_missing_directory_exit_2(gaussian_csv, tmp_path, capsys, command):
    out = tmp_path / "missing" / "o.json"
    if command == "simulate":
        source = ["--config", str(_null_plan_config(tmp_path))]
    else:
        source = ["--data", str(gaussian_csv), "--blocks", "1,1,1"]
    assert main([command, *source, "--out", str(out)]) == 2
    _assert_one_error_line(capsys, str(out), "No such file or directory")
    assert capsys.readouterr().out == ""


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


SMALL_N_WARNING = "warning: n = 25 is small for estimating a 4x4 fourth-moment matrix (recommended n >= 40)\n"


@pytest.mark.filterwarnings("default")
def test_small_sample_warning_is_one_stderr_line_per_message(tmp_path, capsys):
    # the general route warns below n = 10 d; the CLI prints the message once,
    # as one line without a source location, in every cell of a plan too
    model = CovarianceModel(BlockStructure((2, 2)), np.eye(4))
    path = tmp_path / "small.csv"
    write_csv(path, sample_gaussian(model, 25, 43).rows.tolist())
    out = tmp_path / "report.json"
    argv = ["test", "--data", str(path), "--blocks", "2,2", "--method", "general", "--out", str(out)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == SMALL_N_WARNING
    report = json.loads(out.read_text())
    assert captured.out == f"nS={report['nS']} d=4 p={report['p_value']} reject={report['reject']}\n"
    config = _null_plan_config(
        tmp_path, dims=[2, 2], covariance=np.eye(4).tolist(), sizes=[25], replications=4,
        methods=["chi2", "general"],
    )
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", SMALL_N_WARNING)
    assert len(json.loads(out.read_text())["records"]) == 4


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
        # the grouping tolerance and the conditioning floor are fixed, so the flags are unknown
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


def test_simulate_malformed_config_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.json")]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"kind": "null-dist"}))
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o.json")]) == 2
    bad_kind = _null_plan_config(tmp_path, kind="bogus")
    assert main(["simulate", "--config", str(bad_kind), "--out", str(tmp_path / "o.json")]) == 2
    capsys.readouterr()
    non_utf8 = tmp_path / "non_utf8.json"
    non_utf8.write_bytes(b'{"kind": "null-dist\xff"}')
    assert main(["simulate", "--config", str(non_utf8), "--out", str(tmp_path / "o.json")]) == 2
    _assert_one_error_line(capsys, str(non_utf8), "can't decode byte 0xff")
    as_list = tmp_path / "list.json"
    as_list.write_text(json.dumps([json.loads(bad_kind.read_text())]))
    assert main(["simulate", "--config", str(as_list), "--out", str(tmp_path / "o.json")]) == 2
    _assert_one_error_line(capsys, "config must be a JSON object")


def test_simulate_plan_preconditions_exit_4(tmp_path):
    nu_bad = _null_plan_config(tmp_path, sampler="student-t", nu=3)
    assert main(["simulate", "--config", str(nu_bad), "--out", str(tmp_path / "o.json")]) == 4
    reps_bad = _null_plan_config(tmp_path, replications=0)
    assert main(["simulate", "--config", str(reps_bad), "--out", str(tmp_path / "o.json")]) == 4


WHITENED_111 = correlation_model((1, 1, 1), {(1, 0): 0.3, (2, 0): 0.15, (2, 1): 0.1}).v
# the same canonical analysis with the first variable's variance doubled
SCALED_111 = (np.sqrt([2.0, 1.0, 1.0])[:, None] * WHITENED_111 * np.sqrt([2.0, 1.0, 1.0])).tolist()
EQUICORRELATED_111 = (0.5 * np.eye(3) + 0.5).tolist()
# canonical coefficients 0.5, 0 and -0.5; the middle one has asymptotic
# variance 0, exactly on scalar blocks and up to round-off on blocks (2, 1)
ZERO_VARIANCE_111 = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
ZERO_VARIANCE_21 = correlation_model(
    (2, 1), {(1, 0): 0.5 * np.array([np.cos(0.3), np.sin(0.3)])}
).v.tolist()
# a list key given as no list, and a kind given as a list: exit 2, with a
# message that names the key and the value
NOT_A_LIST = [
    {"sizes": 100},
    {"alphas": 0.05},
    {"dims": 3},
    {"sizes": None},
    {"dims": None},
    {"methods": "general"},
    {"sizes": "50"},
    {"methods": {"chi2": 1}},
    {"kind": ["null-dist"]},
]


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
        # summaries are keyed by size, so a repeated size is bad input: exit 2
        ({"sizes": [200, 200]}, 2),
        # a coefficient with zero asymptotic variance, exactly or up to round-off: exit 4
        ({"kind": "coeff-clt", "dims": [1, 1, 1], "covariance": ZERO_VARIANCE_111}, 4),
        ({"kind": "coeff-clt", "dims": [2, 1], "covariance": ZERO_VARIANCE_21}, 4),
        # a limit operator that vanishes, exactly or up to round-off: exit 4
        ({"kind": "clt-check", "covariance": [[1.0, 1.0], [1.0, 1.0]]}, 4),
        ({"kind": "clt-check", "dims": [1, 1, 1], "covariance": np.ones((3, 3)).tolist()}, 4),
        # a string or a bool where a number belongs: exit 2, on either sampler
        ({"alphas": ["0.05"]}, 2),
        ({"alphas": [True]}, 2),
        ({"nu": True}, 2),
        ({"sampler": "student-t", "nu": True}, 2),
        ({"covariance": [["1", "0"], ["0", "1"]]}, 2),
        ({"covariance": [[True, False], [False, True]]}, 2),
        ({"covariance": [[1.0, 0.0], [0.0]]}, 2),
        ({"covariance": [[1.0, None], [None, 1.0]]}, 2),
        # a method list the run could not follow: exit 2, as for empty alphas
        ({"kind": "power", "methods": []}, 2),
        *[(overrides, 2) for overrides in NOT_A_LIST],
    ],
)
def test_simulate_plan_rejected_before_any_cell(tmp_path, capsys, overrides, code):
    config = _null_plan_config(tmp_path, **overrides)
    out = tmp_path / "o.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if overrides in NOT_A_LIST:
        [(key, value)] = overrides.items()
        assert key in err and repr(value) in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, line",
    [
        ({"kind": "power", "dims": [1, 1], "covariance": [[1, 0], [0, 1]], "replications": 3},
         "error: malformed config: plan config is missing keys: ['sizes']\n"),
        ({"kind": "power", "dims": [1, 1], "covariance": [[1, 0], [0, 1]], "replications": 3,
          "sizes": [50], "size": [50]},
         "error: malformed config: plan config has unknown keys: ['size']\n"),
    ],
    ids=["missing", "unknown"],
)
def test_simulate_plan_with_missing_or_unknown_keys_is_one_plain_line(tmp_path, capsys, config, line):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o.json"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert not out.exists()


@pytest.mark.parametrize(
    "key, message",
    [
        ("kind", "unknown experiment kind None"),
        ("covariance", "covariance entries must be finite numbers, got None"),
        ("replications", "replications must be an integer, got None"),
    ],
)
def test_simulate_plan_null_required_value_is_refused_by_its_check(tmp_path, capsys, key, message):
    # null stands for the default only where a key has one; a required key's
    # null reaches the check of its value
    config = _null_plan_config(tmp_path, **{key: None})
    out = tmp_path / "o.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    _assert_one_error_line(capsys, f"malformed config: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"covariance": [[1e308, 0.0], [0.0, 1.0]], "sizes": [50], "replications": 3},
         "covariance: non-finite or too large entry: max|A| = 1.000e+308"),
        ({"nu": 5}, "nu applies only to sampler 'student-t', got sampler 'gaussian'"),
        ({"sampler": "gaussian", "nu": 9.0}, "nu applies only to sampler 'student-t'"),
        ({"sizes": [2**62]}, f"sizes: a {2**62} x 2 sample is too large for numpy"),
    ],
    ids=["huge-covariance", "nu-without-sampler", "nu-with-gaussian", "size-too-large"],
)
def test_simulate_plan_refuses_a_huge_covariance_and_a_stray_nu(tmp_path, capsys, overrides, message):
    # a finite covariance whose symmetrization overflows, a nu the Gaussian
    # sampler would ignore and a size numpy cannot index are bad input: exit
    # 2, not exit 1 or a quiet Gaussian run; the size is refused before any
    # sample is drawn
    config = _null_plan_config(tmp_path, **overrides)
    out = tmp_path / "o.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    _assert_one_error_line(capsys, f"malformed config: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "error, shown",
    [(MemoryError("Unable to allocate 6.4 KiB"), "Unable to allocate 6.4 KiB"),
     (MemoryError(), "the input is too large")],
    ids=["numpy-message", "no-message"],
)
def test_simulate_out_of_memory_exits_2_and_leaves_out_as_found(
    tmp_path, capsys, monkeypatch, error, shown
):
    # a sample numpy cannot allocate raises MemoryError in the sampler
    def out_of_memory(plan, n, rng):
        raise error

    monkeypatch.setattr(mslca.cli.SimulationPlan, "sample", out_of_memory)
    config = _null_plan_config(tmp_path)
    out = tmp_path / "o.json"
    for old in (None, "old"):
        if old is not None:
            out.write_text(old)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        _assert_one_error_line(capsys, f"error: not enough memory: {shown}")
        assert (out.read_text() if out.exists() else None) == old


def test_simulate_plan_null_optional_value_takes_the_default(tmp_path):
    out = tmp_path / "default.json"
    assert main(["simulate", "--config", str(_null_plan_config(tmp_path, seed=0)),
                 "--out", str(out)]) == 0
    default = json.loads(out.read_text())
    for key in ("seed", "nu"):
        out = tmp_path / f"{key}.json"
        config = _null_plan_config(tmp_path, **{"seed": 0, key: None})
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["plan"] == default["plan"] and result["plan"]["seed"] == 0
        assert result["plan"]["nu"] is None
        assert result["records"] == default["records"]


@pytest.mark.parametrize("alphas", [[None], [[0.05]]], ids=["null", "nested"])
def test_simulate_plan_names_alphas_that_are_not_numbers(tmp_path, capsys, alphas):
    # float() raised TypeError for these, and the message named neither alphas nor the value
    config = _null_plan_config(tmp_path, alphas=alphas)
    out = tmp_path / "o.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alphas" in err and repr(alphas) in err
    assert not out.exists()


def test_simulate_opens_out_before_any_cell(tmp_path, capsys, monkeypatch):
    def no_run(plan):
        raise AssertionError("the plan ran before --out was opened")

    monkeypatch.setattr(mslca.cli, "run_experiment", no_run)
    config = _null_plan_config(tmp_path)
    out = tmp_path / "nodir" / "o.json"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    _assert_one_error_line(capsys, str(out), "No such file or directory")
    monkeypatch.undo()
    # a failed run leaves an existing --out as it found it
    out = tmp_path / "old.json"
    out.write_text("old")
    nu_bad = _null_plan_config(tmp_path, sampler="student-t", nu=3)
    assert main(["simulate", "--config", str(nu_bad), "--out", str(out)]) == 4
    assert out.read_text() == "old"


def test_load_dataset_keeps_the_array_the_reader_returned(gaussian_csv, monkeypatch):
    returned = []
    reader = mslca.cli.read_csv_matrix

    def recording_reader(path):
        returned.append(reader(path))
        return returned[-1]

    monkeypatch.setattr(mslca.cli, "read_csv_matrix", recording_reader)
    data = mslca.cli.load_dataset(str(gaussian_csv), "1,1,1")
    assert np.shares_memory(data.rows, returned[0])
    assert not data.rows.flags.writeable


def _summary_fields(line):
    """The key=value fields of a ``test`` summary line, each value read as JSON."""
    pairs = (field.split("=", 1) for field in line.split())
    return [[key, json.loads(value.lower())] for key, value in pairs]


def test_fit_and_test_outputs_match_golden(tmp_path, capsys):
    # data/golden_cli.json, written by data/write_golden.py: the fit JSON and
    # every test route's JSON and stdout line for one seeded student-t sample
    sample = GOLDEN_CLI["sample"]
    model = CovarianceModel(BlockStructure(sample["dims"]), sample["covariance"])
    path = tmp_path / "sample.csv"
    write_csv(path, sample_student_t(model, sample["nu"], sample["n"], sample["seed"]).rows.tolist())
    data = ["--data", str(path), "--blocks", ",".join(str(p) for p in sample["dims"])]
    out = tmp_path / "out.json"
    assert main(["fit", *data, "--out", str(out)]) == 0
    assert_matches_golden(json.loads(out.read_text()), GOLDEN_CLI["fit"], "fit")
    capsys.readouterr()
    for entry in GOLDEN_CLI["test"]:
        where = " ".join(entry["args"])
        assert main(["test", *data, *entry["args"], "--out", str(out)]) == 0
        assert_matches_golden(json.loads(out.read_text()), entry["report"], where)
        stdout = capsys.readouterr().out
        assert stdout.count("\n") == 1 and stdout.endswith("\n"), where
        assert_matches_golden(
            _summary_fields(stdout), _summary_fields(entry["stdout"]), f"{where} stdout"
        )


_EVERY_COMMAND_ROUTE = pytest.mark.parametrize(
    "argv",
    [
        ["fit"],
        ["test"],
        ["test", "--scale", "plugin"],
        ["test", "--method", "general"],
        ["simulate"],
    ],
    ids=["fit", "chi2", "chi2-plugin", "general", "simulate"],
)


@_EVERY_COMMAND_ROUTE
def test_covariance_overflow_exit_2(tmp_path, capsys, argv):
    # finite entries whose covariance exceeds the float range are bad input
    out = tmp_path / "o.json"
    if argv[0] == "simulate":
        config = _null_plan_config(tmp_path, covariance=(1e307 * np.eye(2)).tolist(), sizes=[100])
        source = ["--config", str(config)]
    else:
        path = tmp_path / "huge.csv"
        write_csv(path, (1e200 * np.random.default_rng(0).standard_normal((50, 4))).tolist())
        source = ["--data", str(path), "--blocks", "2,2"]
    assert main([argv[0], *source, *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "covariance overflows" in err
    assert "Traceback" not in err
    assert not out.exists()


@_EVERY_COMMAND_ROUTE
def test_covariance_underflow_exit_2(tmp_path, capsys, argv):
    # finite entries whose variances are subnormal have lost their precision:
    # unrefused, this sample's second coefficient read 0.1405 for 0.1277
    out = tmp_path / "o.json"
    if argv[0] == "simulate":
        config = _null_plan_config(tmp_path, covariance=(1e-310 * np.eye(2)).tolist(), sizes=[100])
        assert main([argv[0], "--config", str(config), *argv[1:], "--out", str(out)]) == 2
        _assert_one_error_line(capsys, "covariance underflows")
        assert not out.exists()
        return
    model = correlation_model((2, 2), {(1, 0): [[0.3, 0.1], [0.0, 0.2]]})
    normal = np.random.default_rng(0).standard_normal((200, 4))
    last_tiny = np.random.default_rng(0).standard_normal((40, 3)) * [1.0, 1.0, 1e-300]
    # variances that underflow to exactly zero in columns that still vary
    underflows = [
        (1e-161 * sample_gaussian(model, 200, 411).rows, "2,2"),
        (1e-170 * normal, "2,2"),
        (1e-200 * normal, "2,2"),
        (last_tiny, "1,1,1"),
    ]
    path = tmp_path / "tiny.csv"
    for rows, blocks in underflows:
        write_csv(path, rows.tolist())
        assert main([argv[0], "--data", str(path), "--blocks", blocks, *argv[1:],
                     "--out", str(out)]) == 2, blocks
        _assert_one_error_line(capsys, "covariance underflows")
        assert not out.exists()
    # a constant column is a singular block, whatever its value rounds to
    # (a 1x1 block included)
    for value in (3.3e-200, 1e-170, 0.1):
        write_csv(path, np.column_stack([normal[:, :3], np.full(200, value)]).tolist())
        for blocks, block in (("2,2", 1), ("2,1,1", 2)):
            assert main([argv[0], "--data", str(path), "--blocks", blocks, *argv[1:],
                         "--out", str(out)]) == 3, (value, blocks)
            _assert_one_error_line(capsys, f"near-singular block {block}")
            assert not out.exists()


@pytest.mark.parametrize(
    "spec, fragment",
    [("2,x", "invalid --blocks value '2,x'"), ("4", "--blocks needs at least 2 parts"),
     ("0,4", "--blocks parts must be >= 1")],
    ids=["not-an-integer", "one-part", "zero-part"],
)
def test_bad_blocks_exit_2(tmp_path, capsys, spec, fragment):
    path = tmp_path / "data.csv"
    write_csv(path, np.random.default_rng(413).standard_normal((20, 4)).tolist())
    out = tmp_path / "o.json"
    assert main(["fit", "--data", str(path), "--blocks", spec, "--out", str(out)]) == 2
    _assert_one_error_line(capsys, fragment)
    assert not out.exists()


def _run_python(*args):
    """Run ``python *args`` in a fresh interpreter on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )


def _run_module(*argv):
    """Run ``python -m mslca.cli`` in a fresh interpreter on this checkout's sources."""
    return _run_python("-m", "mslca.cli", *argv)


def test_module_entry_point_sets_the_process_exit_status(gaussian_csv, tmp_path):
    data = ["--data", str(gaussian_csv), "--blocks", "1,1,1"]
    bad = _run_module("fit", *data, "--out", str(tmp_path / "missing" / "o.json"))
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ") and "Traceback" not in bad.stderr
    out = tmp_path / "report.json"
    good = _run_module("test", *data, "--out", str(out))
    assert good.returncode == 0, good.stderr
    assert "Traceback" not in good.stderr
    assert good.stdout.startswith("nS=") and json.loads(out.read_text())["method"] == "chi2"


def test_importing_the_cli_loads_no_scipy_module():
    # importing scipy.special alone took two thirds of a fresh CLI start;
    # the package computes its chi-square tails itself
    code = "import mslca, mslca.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = _run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
