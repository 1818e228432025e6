"""Tier-1 smoke test of the end-to-end benchmark.

Runs every workload at ``smoke`` scale, untraced and traced, in this process:
names and units must equal ``BENCHMARK.json``, every value must be finite,
nothing may fail its reference check, and the virtual time must repeat
exactly.  No pools, no timing assertions.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import e2e_harness as harness
from e2e_workloads import WORKLOADS
from repro.db.executor import Executor

DECLARED = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(
        encoding="utf-8"
    )
)


def declared_units(section: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in DECLARED[section]}


def test_benchmark_json_declares_what_the_code_reports():
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert DECLARED["command"][-1] == "benchmarks/e2e/run.py"
    assert [entry["name"] for entry in DECLARED["workloads"]] == list(WORKLOADS)
    for entry in DECLARED["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert declared_units("end_to_end") == harness.END_TO_END_UNITS
    assert declared_units("per_layer") == harness.PER_LAYER_UNITS
    assert len(DECLARED["per_layer"]) <= 128
    assert "setup_s" in harness.END_TO_END_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_correctly_at_smoke_scale(name, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    untraced = harness.measure_workload(name, 5, 0.1, trace=False, scale="smoke")
    traced = harness.measure_workload(name, 5, 0.1, trace=True, scale="smoke")

    for record, units in (
        (untraced, harness.END_TO_END_UNITS),
        (traced, harness.PER_LAYER_UNITS),
    ):
        assert record["errors"] == []
        assert record["correct"] and record["failed"] == 0
        assert record["exact"]["failed_share"] == 0.0
        assert record["attempted"] >= 1
        assert list(record["metrics"]) == list(units)
        for metric, entry in record["metrics"].items():
            assert entry["unit"] == units[metric]
            assert math.isfinite(entry["value"]), metric
    for metric, entry in untraced["metrics"].items():
        assert entry["value"] > 0.0, metric

    # The cost model's currency repeats bit-for-bit for a seed.
    assert (
        untraced["exact"]["virtual_ms_per_op"]
        == traced["exact"]["virtual_ms_per_op"]
        > 0.0
    )
    # Layer self times plus harness partition the traced op wall time.
    coverage = traced["metrics"]["obs.span_coverage_ratio"]["value"]
    assert abs(coverage - 1.0) < 0.05
    assert (tmp_path / f"{name}.spans.jsonl").stat().st_size > 0
    # The wrappers are gone again: nothing stays patched after a traced run.
    assert not hasattr(Executor.execute, "__wrapped__")
