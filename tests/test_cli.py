"""Unit tests for the CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])


class TestRun:
    def test_run_prints_metrics(self, capsys):
        assert main(["run", "batch+", "--jobs", "10"]) == 0
        out = capsys.readouterr().out
        assert "span" in out and "lower bnd" in out

    def test_run_with_gantt(self, capsys):
        assert main(["run", "eager", "--jobs", "5", "--gantt"]) == 0
        assert "█" in capsys.readouterr().out

    def test_run_clairvoyant_scheduler(self, capsys):
        assert main(["run", "profit", "--jobs", "10"]) == 0

    def test_run_zero_jobs(self, capsys):
        assert main(["run", "batch", "--jobs", "0"]) == 0
        out = capsys.readouterr().out
        assert "span      : 0.0000" in out
        assert "ratio <= 1.0000" in out

    def test_run_zero_jobs_batch_plus(self, capsys):
        """An empty run against an empty bound reads ratio 1, not nan."""
        assert main(["run", "batch+", "--jobs", "0"]) == 0
        out = capsys.readouterr().out
        assert "lower bnd : 0.0000  (ratio <= 1.0000)" in out


class TestCompare:
    def test_compare_lower_bound(self, capsys):
        assert main(["compare", "--jobs", "15", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch+" in out and "profit" in out and "mean ratio" in out

    def test_compare_exact(self, capsys):
        assert main(["compare", "--exact", "--jobs", "6", "--instances", "2"]) == 0
        assert "exact optimum" in capsys.readouterr().out


class TestAdversary:
    def test_nonclairvoyant_replay(self, capsys):
        assert (
            main(
                [
                    "adversary", "nonclairvoyant", "batch",
                    "--mu", "4", "--k", "2", "--m", "6",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ratio" in out and "theory" in out

    def test_clairvoyant_replay(self, capsys):
        assert main(["adversary", "clairvoyant", "profit", "--n", "10"]) == 0
        assert "φ" in capsys.readouterr().out

    def test_clairvoyant_scheduler_rejected_for_nc_adversary(self, capsys):
        code = main(
            ["adversary", "nonclairvoyant", "profit", "--k", "1", "--m", "4"]
        )
        assert code == 2
        assert "clairvoyance" in capsys.readouterr().err

    def test_paper_profile_flag(self, capsys):
        assert (
            main(
                [
                    "adversary", "nonclairvoyant", "batch+",
                    "--k", "1", "--paper-profile", "--mu", "3",
                ]
            )
            == 0
        )
        assert "[16]" in capsys.readouterr().out


class TestBounds:
    def test_bounds_table(self, capsys):
        assert main(["bounds", "--mu", "4"]) == 0
        out = capsys.readouterr().out
        assert "Thm 3.4" in out and "Thm 4.11" in out
        assert "9.0000" in out  # 2μ+1 for μ=4


class TestCertify:
    def test_certify_small_instances(self, capsys):
        assert main(["certify", "batch+", "--jobs", "5", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out and "ratio" in out

    def test_certify_saved_instance(self, capsys, tmp_path):
        path = str(tmp_path / "w.json")
        assert main(["workload", path, "--jobs", "6", "--integral"]) == 0
        assert main(["certify", "profit", "--instance", path]) == 0
        assert "certified" in capsys.readouterr().out


class TestWorkloadIo:
    def test_workload_roundtrip_through_run(self, capsys, tmp_path):
        path = str(tmp_path / "w.json")
        assert main(["workload", path, "--jobs", "12", "--seed", "3"]) == 0
        assert main(["run", "batch", "--instance", path]) == 0
        out = capsys.readouterr().out
        assert "span" in out

    def test_run_with_trace(self, capsys):
        assert main(["run", "eager", "--jobs", "4", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "arrival" in out and "completion" in out


class TestSummaryFlag:
    def test_run_with_summary(self, capsys):
        assert main(["run", "batch+", "--jobs", "6", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "parallelism" in out and "peak concurrency" in out


class TestCompareMatrix:
    def test_compare_with_matrix(self, capsys):
        assert main(["compare", "--jobs", "15", "--instances", "2", "--matrix"]) == 0
        out = capsys.readouterr().out
        assert "head-to-head" in out
