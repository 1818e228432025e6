"""The e2e trajectory recorder (``benchmarks/record_e2e.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

RECORDER = Path(__file__).resolve().parents[1] / "benchmarks" / "record_e2e.py"


def _recorder():
    spec = importlib.util.spec_from_file_location("record_e2e", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(trace: int, scale: float) -> dict:
    metrics = {
        "ops_per_s": 10.0 * scale,
        "stmt.sort_limit.p50_ms": 7.0 * scale,
        "stmt.sort_limit.calls_per_op": 1.0,
        "db.vectorized.self_ms_per_op": 3.0 * scale,
        "db.vectorized.codegen_share": 0.7,
    }
    return {
        "workload": "analytic_sql",
        "trace": trace,
        "scale": "full",
        "environment": {"date": "d", "python": "3", "nproc": 2, "seed": 1},
        "exact": {"virtual_ms_per_op": 1.5, "failed_share": 0.0},
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def test_traced_sets_add_stmt_and_self_rows():
    recorder = _recorder()
    summary = {
        "environment": {
            "commit": "c", "date": "d", "python": "3", "nproc": 2, "seed": 1
        },
        "scale": "full",
        "sets": [
            {"analytic_sql": {"0": _run(0, 1.0), "1": _run(1, 1.0)}},
            {"analytic_sql": {"0": _run(0, 3.0), "1": _run(1, 2.0)}},
        ],
    }
    (record,) = recorder.records(summary, "note", False)
    assert record["sets"] == 2
    assert record["metrics"]["ops_per_s"] == 20.0
    assert record["traced"] == {
        "stmt.sort_limit.p50_ms": 10.5,
        "db.vectorized.self_ms_per_op": 4.5,
    }
    assert record["note"] == "note"


def test_one_workload_file_records_without_traced_rows(tmp_path):
    recorder = _recorder()
    path = tmp_path / "analytic_sql.trace0.json"
    path.write_text(json.dumps(_run(0, 1.0)))
    out = tmp_path / "trajectory.jsonl"
    assert recorder.main(["--results", str(path), "--out", str(out)]) == 0
    (line,) = out.read_text().splitlines()
    record = json.loads(line)
    assert record["workload"] == "analytic_sql"
    assert record["metrics"]["stmt.sort_limit.p50_ms"] == 7.0
    assert "traced" not in record
