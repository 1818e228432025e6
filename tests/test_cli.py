"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main
from repro.workloads.programs import P0_SOURCE
from repro.workloads.wilos_programs import PATTERN_D_SOURCE


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "program.py"
    path.write_text(P0_SOURCE)
    return path


class TestOptimizeCommand:
    def test_optimize_prints_choice_and_rewrite(self, program_file):
        out = io.StringIO()
        code = main(
            [
                "optimize",
                str(program_file),
                "--network",
                "slow-remote",
                "--scale",
                "500",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "chosen strategy" in text
        assert "def process_orders" in text
        assert "estimated speedup" in text

    def test_optimize_show_alternatives_and_heuristic(self, program_file):
        out = io.StringIO()
        main(
            [
                "optimize",
                str(program_file),
                "--scale",
                "300",
                "--show-alternatives",
                "--heuristic",
            ],
            out=out,
        )
        text = out.getvalue()
        assert "alternatives per region" in text
        assert "heuristic (always push to SQL) rewrite" in text
        assert "sql-join" in text and "prefetch" in text

    def test_optimize_metrics_flag_prints_engine_statistics(self, program_file):
        out = io.StringIO()
        code = main(
            [
                "optimize",
                str(program_file),
                "--scale",
                "300",
                "--metrics",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "metrics:" in text
        assert "views.statement_cache.hits" in text
        assert "views.statement_cache.misses" in text
        assert "views.network.round_trips" in text
        assert "views.database.queries_executed" in text
        # Unconfigured subsystems have no view at all.
        assert "views.wal." not in text and "views.faults." not in text

    def test_optimize_wal_and_fault_flags_render_in_metrics(self, program_file):
        out = io.StringIO()
        code = main(
            [
                "optimize",
                str(program_file),
                "--scale",
                "300",
                "--wal",
                "--fault-rate",
                "0.1",
                "--fault-seed",
                "7",
                "--metrics",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "views.wal.records" in text
        assert "views.wal.commits" in text
        assert "views.faults.injected" in text
        assert "views.faults.retries" in text

    def test_optimize_with_wilos_workload_and_af(self, tmp_path):
        path = tmp_path / "pattern_d.py"
        path.write_text(PATTERN_D_SOURCE)
        out = io.StringIO()
        code = main(
            [
                "optimize",
                str(path),
                "--workload",
                "wilos",
                "--scale",
                "500",
                "--amortization",
                "50",
            ],
            out=out,
        )
        assert code == 0
        assert "chosen strategy      : prefetch" in out.getvalue()

    def test_optimize_with_catalog_file(self, program_file, tmp_path):
        catalog_out = io.StringIO()
        catalog_path = tmp_path / "catalog.json"
        main(
            ["catalog", "--network", "slow-remote", "--out", str(catalog_path)],
            out=catalog_out,
        )
        assert catalog_path.exists()
        data = json.loads(catalog_path.read_text())
        assert data["network_round_trip"] == pytest.approx(0.5)

        out = io.StringIO()
        code = main(
            [
                "optimize",
                str(program_file),
                "--catalog",
                str(catalog_path),
                "--scale",
                "300",
            ],
            out=out,
        )
        assert code == 0


class TestExperimentCommand:
    def test_fig14(self):
        out = io.StringIO()
        assert main(["experiment", "fig14"], out=out) == 0
        assert "Nested loops" in out.getvalue()

    def test_fig16(self):
        out = io.StringIO()
        assert main(["experiment", "fig16"], out=out) == 0
        assert "ProjectService (1139)" in out.getvalue()

    def test_opt_time(self):
        out = io.StringIO()
        assert main(["experiment", "opt-time", "--scale", "500"], out=out) == 0
        assert "optimization_seconds" in out.getvalue()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"], out=io.StringIO())


class TestArgumentValidation:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([], out=io.StringIO())

    def test_catalog_requires_out(self):
        with pytest.raises(SystemExit):
            main(["catalog"], out=io.StringIO())
