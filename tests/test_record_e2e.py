"""The e2e trajectory recorder (``benchmarks/record_e2e.py``)."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

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
    (record,) = recorder.records(summary, "note", False, "abc")
    assert record["src_digest"] == "abc"
    assert record["sets"] == 2
    assert record["metrics"]["ops_per_s"] == 20.0
    assert record["traced"] == {
        "stmt.sort_limit.p50_ms": 10.5,
        "db.vectorized.self_ms_per_op": 4.5,
    }
    assert record["note"] == "note"


needs_git = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def _git(checkout: Path, *arguments: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *arguments],
        cwd=checkout, check=True, capture_output=True,
    )


def _checkout(root: Path) -> Path:
    """A one-commit git repository with one module under ``src/``."""
    module = root / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("A = 1\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "parent")
    return module


def _record(results: Path, out: Path) -> int:
    return _recorder().main(["--results", str(results), "--out", str(out)])


@needs_git
def test_one_workload_file_records_without_traced_rows(tmp_path):
    _checkout(tmp_path)
    path = tmp_path / "analytic_sql.trace0.json"
    path.write_text(json.dumps(_run(0, 1.0)))
    out = tmp_path / "trajectory.jsonl"
    assert _record(path, out) == 0
    (line,) = out.read_text().splitlines()
    record = json.loads(line)
    assert record["workload"] == "analytic_sql"
    assert record["metrics"]["stmt.sort_limit.p50_ms"] == 7.0
    assert "traced" not in record
    assert record["src_digest"] == _recorder().src_digest(tmp_path)


def test_results_outside_a_checkout_are_refused(tmp_path, capsys):
    path = tmp_path / "analytic_sql.trace0.json"
    path.write_text(json.dumps(_run(0, 1.0)))
    out = tmp_path / "trajectory.jsonl"
    assert _record(path, out) == 2
    assert not out.exists()
    assert "no git checkout" in capsys.readouterr().err


@needs_git
def test_results_older_than_the_source_are_refused(tmp_path, capsys):
    module = _checkout(tmp_path)
    path = tmp_path / "analytic_sql.trace0.json"
    path.write_text(json.dumps(_run(0, 1.0)))
    written = path.stat().st_mtime_ns
    # The run wrote its results, then the code was edited (committed or
    # not): the digest taken now would not name the code that ran.
    os.utime(module, ns=(written + 10**9, written + 10**9))
    out = tmp_path / "trajectory.jsonl"
    assert _record(path, out) == 2
    assert not out.exists()
    assert "src/pkg/mod.py" in capsys.readouterr().err
    # Results written after the last edit record normally.
    os.utime(path, ns=(written + 2 * 10**9, written + 2 * 10**9))
    assert _record(path, out) == 0
    assert len(out.read_text().splitlines()) == 1


@needs_git
def test_src_digest_follows_the_code_not_the_commit(tmp_path):
    recorder = _recorder()

    def git(*arguments):
        _git(tmp_path, *arguments)

    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("A = 1\n")
    (tmp_path / ".gitignore").write_text("__pycache__/\n")
    (tmp_path / "README").write_text("docs\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "parent")
    out = tmp_path / "src" / "pkg" / "out"
    out.mkdir()
    parent = recorder.src_digest(out)  # any directory of the checkout
    assert parent is not None and len(parent) == 64

    # Ignored files and files outside src/ leave the digest alone.
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir()
    (tmp_path / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"x")
    (tmp_path / "README").write_text("changed\n")
    assert recorder.src_digest(tmp_path) == parent

    # A modified or new file under src/ changes it; reverting restores it.
    module.write_text("A = 2\n")
    change = recorder.src_digest(tmp_path)
    assert change != parent
    assert recorder.src_modified(tmp_path) is True
    module.write_text("A = 1\n")
    assert recorder.src_digest(tmp_path) == parent
    (tmp_path / "src" / "pkg" / "new.py").write_text("")
    assert recorder.src_digest(tmp_path) not in (parent, change)
    (tmp_path / "src" / "pkg" / "new.py").unlink()

    # Committing the change keeps its digest: it names code, not commits.
    module.write_text("A = 2\n")
    git("commit", "-qam", "change")
    assert recorder.src_modified(tmp_path) is False
    assert recorder.src_digest(tmp_path) == change


def test_src_digest_is_none_outside_git(tmp_path):
    assert _recorder().src_digest(tmp_path) is None
