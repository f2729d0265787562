"""Experiment outputs against stored golden records, one small plan per kind.

``data/golden_records.json`` holds, for each plan, the plan as
``SimulationPlan.to_dict`` writes it and the records and summaries
``run_experiment`` returned for it when the file was written. A change that
must keep the numbers has to keep these: floats within rtol 1e-9 and atol
1e-12, integers, strings and booleans exactly (``assert_matches_golden``).
``data/write_golden.py`` wrote the file; the last test runs it again and
compares both files it writes with the stored ones.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

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


def test_writer_reproduces_stored_goldens(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["write_golden.py", str(tmp_path)])
    runpy.run_path(str(DATA / "write_golden.py"), run_name="__main__")
    for name in ("golden_records.json", "golden_cli.json"):
        written = json.loads((tmp_path / name).read_text())
        assert_matches_golden(written, json.loads((DATA / name).read_text()), name)
