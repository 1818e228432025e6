#!/usr/bin/env python3
"""Append the last end-to-end benchmark run to the tracked trajectory.

    python3 benchmarks/e2e/run.py               # writes benchmarks/e2e/out/results.json
    python3 benchmarks/record_e2e.py            # appends one line per workload
    python3 benchmarks/record_e2e.py --note "parent of the cache fast path"

Reads ``benchmarks/e2e/out/results.json`` and appends one JSON record per
workload to ``BENCH_e2e.jsonl`` at the repository root: the commit and
whether ``src/`` differed from it, date, Python, ``nproc``, seed and scale,
the six gated end-to-end metrics (the median over the run's ``--repeat``
sets) and the ``exact`` block (virtual time and failed share, which must
repeat bit for bit).  ``make bench-e2e`` runs it after ``run.py``.
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


def src_modified() -> bool | None:
    """True when ``src/`` differs from the recorded commit (None: no git)."""
    try:
        completed = subprocess.run(
            ["git", "-C", str(REPO), "diff", "--quiet", "HEAD", "--", "src"],
            capture_output=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return {0: False, 1: True}.get(completed.returncode)


def records(summary: dict, note: str | None) -> list[dict]:
    """One trajectory record per workload of a ``results.json`` summary."""
    environment = summary["environment"]
    modified = src_modified()
    out = []
    for workload in summary["sets"][0]:
        runs = [run_set[workload]["0"] for run_set in summary["sets"]]
        record = {
            "workload": workload,
            "commit": environment["commit"],
            "src_modified": modified,
            "date": environment["date"],
            "python": environment["python"],
            "nproc": environment["nproc"],
            "seed": environment["seed"],
            "scale": summary["scale"],
            "sets": len(runs),
            "metrics": {
                name: statistics.median(
                    run["metrics"][name]["value"] for run in runs
                )
                for name in runs[0]["metrics"]
            },
            "exact": runs[0]["exact"],
        }
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
    summary = json.loads(arguments.results.read_text(encoding="utf-8"))
    lines = [json.dumps(record) for record in records(summary, arguments.note)]
    with arguments.out.open("a", encoding="utf-8") as trajectory:
        trajectory.write("".join(line + "\n" for line in lines))
    print(f"appended {len(lines)} records to {arguments.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
