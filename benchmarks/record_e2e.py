#!/usr/bin/env python3
"""Append the last end-to-end benchmark run to the tracked trajectory.

    python3 benchmarks/e2e/run.py               # writes benchmarks/e2e/out/results.json
    python3 benchmarks/record_e2e.py            # appends one line per workload
    python3 benchmarks/record_e2e.py --note "parent of the cache fast path"
    python3 benchmarks/e2e/run.py --workload analytic_sql
    python3 benchmarks/record_e2e.py --note "pair 1, change" \
        --results benchmarks/e2e/out/analytic_sql.trace0.json

Reads ``benchmarks/e2e/out/results.json`` (or, with ``--results``, another
summary or the one-workload file a ``run.py --workload`` run writes) and
appends one JSON record per workload to ``BENCH_e2e.jsonl`` at the
repository root: the commit of the checkout that produced the results and
whether its ``src/`` differed from that commit, date, Python, ``nproc``,
seed and scale, the six gated end-to-end metrics (the median over the
run's untraced ``--repeat`` sets) and the ``exact`` block (virtual time and
failed share, which must repeat bit for bit).  When the results hold traced
(``--trace 1``) runs, the record also keeps their ``stmt.*.p50_ms`` and
``*.self_ms_per_op`` rows (medians) under ``traced``.  ``make bench-e2e``
runs it after ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RESULTS = REPO / "benchmarks" / "e2e" / "out" / "results.json"
TRAJECTORY = REPO / "BENCH_e2e.jsonl"


def _git(checkout: Path, *arguments: str) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(
            ["git", "-C", str(checkout), *arguments],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None


def src_modified(checkout: Path) -> bool | None:
    """True when ``src/`` differs from the checkout's commit (None: no git)."""
    completed = _git(checkout, "diff", "--quiet", "HEAD", "--", ":/src")
    if completed is None:
        return None
    return {0: False, 1: True}.get(completed.returncode)


def git_commit(checkout: Path) -> str:
    completed = _git(checkout, "rev-parse", "HEAD")
    if completed is None or completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip()


def as_summary(loaded: dict, checkout: Path) -> dict:
    """A ``results.json`` summary, or one ``run.py --workload`` record
    wrapped as a one-set summary of that workload."""
    if "sets" in loaded:
        return loaded
    environment = dict(loaded["environment"], commit=git_commit(checkout))
    return {
        "environment": environment,
        "scale": loaded["scale"],
        "sets": [{loaded["workload"]: {str(loaded["trace"]): loaded}}],
    }


def _traced_row(name: str) -> bool:
    if name.startswith("stmt."):
        return name.endswith(".p50_ms")
    return name.endswith(".self_ms_per_op")


def _medians(runs: list[dict], names) -> dict:
    return {
        name: statistics.median(run["metrics"][name]["value"] for run in runs)
        for name in names
    }


def records(summary: dict, note: str | None, modified: bool | None) -> list[dict]:
    """One trajectory record per workload of a ``results.json`` summary."""
    environment = summary["environment"]
    out = []
    for workload in summary["sets"][0]:
        runs = [run_set[workload] for run_set in summary["sets"]]
        untraced = [run["0"] for run in runs if "0" in run]
        traced = [run["1"] for run in runs if "1" in run]
        record = {
            "workload": workload,
            "commit": environment["commit"],
            "src_modified": modified,
            "date": environment["date"],
            "python": environment["python"],
            "nproc": environment["nproc"],
            "seed": environment["seed"],
            "scale": summary["scale"],
            "sets": len(untraced),
        }
        if untraced:
            record["metrics"] = _medians(untraced, untraced[0]["metrics"])
        record["exact"] = (untraced or traced)[0]["exact"]
        if traced:
            record["traced"] = _medians(
                traced, filter(_traced_row, traced[0]["metrics"])
            )
        if note:
            record["note"] = note
        out.append(record)
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results", type=Path, default=RESULTS)
    parser.add_argument("--out", type=Path, default=TRAJECTORY)
    parser.add_argument("--note", help="free text stored with every record")
    arguments = parser.parse_args(argv)
    if not arguments.results.is_file():
        print(
            f"record_e2e.py: no results at {arguments.results}; "
            "run benchmarks/e2e/run.py first",
            file=sys.stderr,
        )
        return 2
    checkout = arguments.results.resolve().parent
    summary = as_summary(
        json.loads(arguments.results.read_text(encoding="utf-8")), checkout
    )
    lines = [
        json.dumps(record)
        for record in records(summary, arguments.note, src_modified(checkout))
    ]
    with arguments.out.open("a", encoding="utf-8") as trajectory:
        trajectory.write("".join(line + "\n" for line in lines))
    print(f"appended {len(lines)} records to {arguments.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
