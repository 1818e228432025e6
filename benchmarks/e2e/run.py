#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                       # every workload
    python3 benchmarks/e2e/run.py --trace 1             # ... plus the traced run
    python3 benchmarks/e2e/run.py --workload analytic_sql --seed 7
    python3 benchmarks/e2e/run.py --repeat 2 --check-agreement

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without it every workload runs in a fresh
subprocess (so memory and caches are per workload), the results are printed
as a table and written to ``benchmarks/e2e/out/results.json`` with the
environment they were measured in.

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
repository root; see ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SOURCE = REPO / "src"
if not (SOURCE / "repro").is_dir():
    sys.exit(f"run.py: the program under test is missing: {SOURCE / 'repro'}")
for path in (str(SOURCE), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import e2e_harness as harness  # noqa: E402 - needs the path set up above
from e2e_workloads import SCALES, WORKLOADS  # noqa: E402

#: The tiers and backends are measured at their defaults only.
FORBIDDEN_ENVIRONMENT = ("REPRO_VECTOR_BACKEND", "REPRO_VECTOR_CODEGEN")


def declared() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="timed window per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1 = the traced run with the per-layer metrics",
    )
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument(
        "--repeat", type=int, default=1, help="sets of runs (all workloads)"
    )
    parser.add_argument(
        "--check-agreement",
        action="store_true",
        help="exit non-zero unless the sets agree within the declared bounds",
    )
    return parser.parse_args(argv)


def print_metrics(record: dict) -> None:
    width = max(len(name) for name in record["metrics"])
    for name, metric in record["metrics"].items():
        print(f"  {name:<{width}}  {metric['value']:>16.6f} {metric['unit']}")


def run_one(arguments: argparse.Namespace, seconds: float) -> int:
    """One workload in this process; the contract's result line comes last."""
    record = harness.measure_workload(
        arguments.workload,
        arguments.seed,
        seconds,
        bool(arguments.trace),
        arguments.scale,
    )
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = harness.OUT_DIR / f"{arguments.workload}.trace{arguments.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{record['workload']} seed={arguments.seed} sizes={record['sizes']}")
    print_metrics(record)
    for name, value in record["exact"].items():
        print(f"  {name} = {value!r} (exact)")
    for error in record["errors"]:
        print(error, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


def run_set(arguments: argparse.Namespace, seconds: float) -> dict[str, dict]:
    """Every workload, each in a fresh subprocess; workload -> records."""
    records: dict[str, dict] = {}
    for workload in declared_workloads():
        for trace in (0, 1) if arguments.trace else (0,):
            command = [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(arguments.seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
                "--scale", arguments.scale,
            ]  # fmt: skip
            completed = subprocess.run(
                command, capture_output=True, text=True, timeout=600
            )
            sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
            if completed.returncode != 0:
                sys.stderr.write(completed.stderr)
                raise SystemExit(
                    f"{workload} (trace {trace}) exited {completed.returncode}"
                )
            out = harness.OUT_DIR / f"{workload}.trace{trace}.json"
            records.setdefault(workload, {})[trace] = json.loads(
                out.read_text(encoding="utf-8")
            )
    return records


def declared_workloads() -> list[str]:
    return [entry["name"] for entry in declared()["workloads"]]


def disagreements(first: dict, second: dict) -> list[str]:
    """(metric, workload) pairs of two sets that differ by more than the
    declared bound; exact metrics must be bit-equal."""
    bounds = {entry["name"]: entry for entry in declared()["end_to_end"]}
    problems = []
    for workload in first:
        one, two = first[workload][0], second[workload][0]
        for name, entry in bounds.items():
            a = one["metrics"][name]["value"]
            b = two["metrics"][name]["value"]
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            if abs(worse) > entry["bound"]:
                problems.append(
                    f"{workload}.{name}: {a:.6g} vs {b:.6g} "
                    f"({abs(worse):.1%} > {entry['bound']:.0%})"
                )
        for name in one["exact"]:
            if one["exact"][name] != two["exact"][name]:
                problems.append(
                    f"{workload}.{name}: {one['exact'][name]!r} != "
                    f"{two['exact'][name]!r} (must be exact)"
                )
    return problems


def git_commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def main(argv: list[str]) -> int:
    arguments = parse_arguments(argv)
    present = [name for name in FORBIDDEN_ENVIRONMENT if name in os.environ]
    if present:
        print(f"run.py: unset {', '.join(present)}: defaults only", file=sys.stderr)
        return 2
    seconds = arguments.seconds
    if seconds is None:
        seconds = 0.2 if arguments.scale == "smoke" else declared()["run_seconds"]
    if arguments.workload:
        return run_one(arguments, seconds)

    sets = [run_set(arguments, seconds) for _ in range(arguments.repeat)]
    environment = harness.environment(arguments.seed)
    environment["commit"] = git_commit()
    summary = {"environment": environment, "scale": arguments.scale, "sets": sets}
    (harness.OUT_DIR / "results.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8"
    )
    print(f"environment: {json.dumps(environment)}")
    if arguments.check_agreement:
        if len(sets) < 2:
            print("--check-agreement needs --repeat 2 or more", file=sys.stderr)
            return 2
        problems = [
            problem
            for later in sets[1:]
            for problem in disagreements(sets[0], later)
        ]
        for problem in problems:
            print(f"disagree: {problem}", file=sys.stderr)
        print(f"agreement: {'FAILED' if problems else 'ok'}")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
