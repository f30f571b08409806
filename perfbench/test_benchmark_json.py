"""BENCHMARK.json agrees with the metrics the benchmark reports.

Run with ``python -m pytest perfbench/test_benchmark_json.py``.
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import END_TO_END, result_line  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_paths():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_run_py():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200


def test_metrics_match_what_runs_report():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == END_TO_END
    assert layer == PER_LAYER
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = list(e2e) + list(layer)
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")


def test_result_line_shape():
    line = json.loads(result_line(True, 3, 0, {"setup_s": 1.25}, {"setup_s": "s"}))
    assert line == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"setup_s": {"value": 1.25, "unit": "s"}},
    }
