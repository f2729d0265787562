"""Experiment outputs against stored golden records, one small plan per kind.

``data/golden_records.json`` holds, for each plan, the plan as
``SimulationPlan.to_dict`` writes it and the records and summaries
``run_experiment`` returned for it when the file was written. A change that
must keep the numbers has to keep these: floats within rtol 1e-9 and atol
1e-12, integers, strings and booleans exactly (``assert_matches_golden``).
``data/write_golden.py`` wrote the file; the last test runs it again and
compares both files it writes with the stored ones. A ``mslca test`` stdout
line in ``golden_cli.json`` prints the floats of its report in full, so it is
checked exactly against the summary line of its own report, and the report is
what is compared with the stored one.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

import mslca
from mslca import SimulationPlan, run_experiment
from conftest import assert_matches_golden

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_records.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[entry["name"] for entry in GOLDEN])
def test_records_and_summaries_match_golden(entry):
    result = run_experiment(SimulationPlan.from_dict(entry["plan"]))
    assert result.plan == entry["plan"]
    # a JSON round trip gives the types the golden file was read with
    records = json.loads(json.dumps(result.records))
    summaries = json.loads(json.dumps(result.summaries))
    assert_matches_golden(records, entry["records"], "records")
    assert_matches_golden(summaries, entry["summaries"], "summaries")


def _without_stdout(golden_cli, where):
    """``golden_cli`` with each test's stdout dropped, once it equals its report's summary line."""
    tests = []
    for entry in golden_cli["test"]:
        fields = dict(entry["report"])
        fields["s"], fields["ns"] = fields.pop("S"), fields.pop("nS")
        summary = mslca.TestReport(**fields).summary_line() + "\n"
        assert entry["stdout"] == summary, f"{where} {' '.join(entry['args'])} stdout"
        tests.append({key: value for key, value in entry.items() if key != "stdout"})
    return {**golden_cli, "test": tests}


def test_writer_reproduces_stored_goldens(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["write_golden.py", str(tmp_path)])
    runpy.run_path(str(DATA / "write_golden.py"), run_name="__main__")
    for name in ("golden_records.json", "golden_cli.json"):
        written = json.loads((tmp_path / name).read_text())
        stored = json.loads((DATA / name).read_text())
        if name == "golden_cli.json":
            written, stored = _without_stdout(written, "written"), _without_stdout(stored, "stored")
        assert_matches_golden(written, stored, name)
