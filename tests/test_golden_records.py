"""Experiment outputs against stored golden records, one small plan per kind.

``data/golden_records.json`` holds, for each plan, the plan as
``SimulationPlan.to_dict`` writes it and the records and summaries
``run_experiment`` returned for it when the file was written. A change that
must keep the numbers has to keep these: floats within rtol 1e-9 and atol
1e-12, integers, strings and booleans exactly.
"""

import json
import math
from pathlib import Path

import pytest

from mslca import SimulationPlan, run_experiment

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_records.json").read_text())


def _assert_same(actual, expected, where="result"):
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{where}: {actual!r} is not a float"
        assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}[{key!r}]")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


@pytest.mark.parametrize("entry", GOLDEN, ids=[entry["name"] for entry in GOLDEN])
def test_records_and_summaries_match_golden(entry):
    result = run_experiment(SimulationPlan.from_dict(entry["plan"]))
    assert result.plan == entry["plan"]
    # a JSON round trip gives the types the golden file was read with
    records = json.loads(json.dumps(result.records))
    summaries = json.loads(json.dumps(result.summaries))
    _assert_same(records, entry["records"], "records")
    _assert_same(summaries, entry["summaries"], "summaries")
