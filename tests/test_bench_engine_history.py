"""The engine benchmark's report writer (``benchmarks/bench_engine.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _bench_engine(monkeypatch):
    # bench_engine imports its sibling record_e2e as a top-level module.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        "bench_engine", BENCHMARKS / "bench_engine.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(run: int) -> dict:
    return {
        "benchmark": "engine",
        "environment": {"commit": "c", "src_digest": f"digest-{run}"},
        "rows": 10,
        "codegen": {"string_filter_codegen": {"speedup_vs_kernel": 2.0}},
    }


def test_default_run_writes_the_json_and_appends_one_history_line(
    tmp_path, monkeypatch
):
    bench = _bench_engine(monkeypatch)
    for run in (1, 2):
        path = bench.write_report(_report(run), None, root=str(tmp_path))
        assert path == str(tmp_path / "BENCH_engine.json")
        assert json.loads(Path(path).read_text()) == _report(run)
    lines = (tmp_path / "BENCH_engine.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [_report(1), _report(2)]
    assert [
        json.loads(line)["environment"]["src_digest"] for line in lines
    ] == ["digest-1", "digest-2"]


def test_redirected_run_appends_nothing(tmp_path, monkeypatch):
    bench = _bench_engine(monkeypatch)
    out = tmp_path / "smoke.json"
    assert bench.write_report(_report(1), str(out), root=str(tmp_path)) == str(
        out
    )
    assert json.loads(out.read_text()) == _report(1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["smoke.json"]
