"""End-to-end CLI tests: ``repro run`` trace emission and the
``repro obs`` subcommands (summarize / explain / diff / export)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import NULL_RECORDER, read_jsonl, reset_recorder, set_recorder


@pytest.fixture(autouse=True)
def _restore_ambient(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    previous = set_recorder(NULL_RECORDER)
    yield
    set_recorder(previous)


def run_traced(scheduler: str, tmp_path, monkeypatch, *extra: str) -> Path:
    """``REPRO_TRACE=1 repro run <scheduler>`` writing into ``tmp_path``."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
    reset_recorder()  # re-arm the ambient recorder from the environment
    assert main(["run", scheduler, "--jobs", "12", "--seed", "3", *extra]) == 0
    trace = tmp_path / f"{scheduler}.trace.jsonl"
    assert trace.exists()
    return trace


class TestRunWritesTrace:
    def test_run_emits_jsonl_trace(self, tmp_path, monkeypatch, capsys):
        trace = run_traced("batch+", tmp_path, monkeypatch)
        printed = capsys.readouterr().out
        assert "trace     :" in printed
        loaded = read_jsonl(trace)
        assert loaded.meta["command"] == "run"
        assert loaded.meta["scheduler"] == "batch+"
        assert loaded.by_kind("decision")
        assert loaded.metrics.counters["engine.jobs"] == 12.0

    def test_core_trace_wraps_the_ambient_recorder(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--trace`` prints the core trace and leaves the JSONL records
        as the run writes them without it (``ts`` and ``wall_s`` aside)."""

        def rows(path: Path) -> list:
            out = []
            for line in path.read_text().splitlines():
                row = json.loads(line)
                if row["kind"] == "metrics":
                    data = row["data"]
                    out.append([data["counters"], data["gauges"]])
                elif row["kind"] != "meta":
                    del row["ts"]
                    row["attrs"].pop("wall_s", None)
                    out.append(row)
            return out

        (tmp_path / "plain").mkdir()
        (tmp_path / "traced").mkdir()
        plain = run_traced("batch+", tmp_path / "plain", monkeypatch)
        assert "start" not in capsys.readouterr().out
        traced = run_traced("batch+", tmp_path / "traced", monkeypatch, "--trace")
        printed = capsys.readouterr().out
        assert "release          J0" in printed
        assert printed.count("start            J") == 12
        assert rows(traced) == rows(plain)
        assert any(r["name"] == "engine.start" for r in rows(traced)[:-1])

    def test_disarmed_run_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        reset_recorder()
        assert main(["run", "batch", "--jobs", "6", "--seed", "1"]) == 0
        assert not list(tmp_path.iterdir())


class TestExplainCLI:
    def test_strict_passes_on_instrumented_scheduler(
        self, tmp_path, monkeypatch, capsys
    ):
        trace = run_traced("batch+", tmp_path, monkeypatch)
        assert main(["obs", "explain", str(trace), "--strict"]) == 0
        printed = capsys.readouterr().out
        assert "12 attributed, 0 unattributed" in printed
        assert "audit     : feasible" in printed

    def test_strict_fails_on_uninstrumented_scheduler(
        self, tmp_path, monkeypatch, capsys
    ):
        trace = run_traced("eager", tmp_path, monkeypatch)
        assert main(["obs", "explain", str(trace), "--strict"]) == 1
        assert "UNATTRIBUTED" in capsys.readouterr().out

    def test_nonstrict_tolerates_unattributed(self, tmp_path, monkeypatch):
        trace = run_traced("eager", tmp_path, monkeypatch)
        assert main(["obs", "explain", str(trace)]) == 0

    def test_missing_trace_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "explain", str(tmp_path / "nope.jsonl")])
        assert exc.value.code == 2


class TestSummarizeCLI:
    def test_text_output(self, tmp_path, monkeypatch, capsys):
        trace = run_traced("batch", tmp_path, monkeypatch)
        assert main(["obs", "summarize", str(trace)]) == 0
        printed = capsys.readouterr().out
        assert "decisions :" in printed and "counters  :" in printed

    def test_json_output_parses(self, tmp_path, monkeypatch, capsys):
        trace = run_traced("batch", tmp_path, monkeypatch)
        capsys.readouterr()  # drain the run command's own output
        assert main(["obs", "summarize", str(trace), "--format", "json"]) == 0
        (payload,) = json.loads(capsys.readouterr().out)
        assert payload["path"] == str(trace)
        assert payload["counters"]["engine.jobs"] == 12.0


class TestExportCLI:
    def test_export_writes_chrome_json(self, tmp_path, monkeypatch, capsys):
        trace = run_traced("batch", tmp_path, monkeypatch)
        out = tmp_path / "trace.chrome.json"
        assert main(["obs", "export", str(trace), "--out", str(out)]) == 0
        assert "perfetto" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]

    def test_default_output_name(self, tmp_path, monkeypatch):
        trace = run_traced("batch", tmp_path, monkeypatch)
        assert main(["obs", "export", str(trace)]) == 0
        assert Path(f"{trace}.chrome.json").exists()


class TestDiffCLI:
    @staticmethod
    def _bench(path: Path, **cases: float) -> str:
        path.write_text(
            json.dumps(
                {
                    "schema": "test",
                    "results": [
                        {"case": c, "events": 1, "wall_s": 1.0, "events_per_s": v}
                        for c, v in cases.items()
                    ],
                }
            )
        )
        return str(path)

    def test_injected_regression_gates_exit_code(self, tmp_path, capsys):
        before = self._bench(tmp_path / "before.json", **{"macro/e1": 100_000.0})
        after = self._bench(tmp_path / "after.json", **{"macro/e1": 85_000.0})
        assert main(["obs", "diff", before, after]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "1 regression(s)" in captured.err

    def test_within_threshold_passes(self, tmp_path):
        before = self._bench(tmp_path / "before.json", **{"macro/e1": 100_000.0})
        after = self._bench(tmp_path / "after.json", **{"macro/e1": 95_000.0})
        assert main(["obs", "diff", before, after]) == 0

    def test_custom_threshold(self, tmp_path):
        before = self._bench(tmp_path / "before.json", **{"macro/e1": 100_000.0})
        after = self._bench(tmp_path / "after.json", **{"macro/e1": 95_000.0})
        assert main(["obs", "diff", before, after, "--threshold", "0.02"]) == 1

    def test_trace_diff_round_trip(self, tmp_path, monkeypatch):
        a = run_traced("batch", tmp_path, monkeypatch)
        assert main(["obs", "diff", str(a), str(a)]) == 0

    def test_mixed_inputs_rejected(self, tmp_path, monkeypatch, capsys):
        trace = run_traced("batch", tmp_path, monkeypatch)
        bench = self._bench(tmp_path / "bench.json", **{"macro/e1": 1.0})
        assert main(["obs", "diff", str(trace), bench]) == 2
        assert "cannot diff" in capsys.readouterr().err

    def test_negative_threshold_rejected(self, tmp_path):
        before = self._bench(tmp_path / "b.json", **{"c": 1.0})
        assert main(["obs", "diff", before, before, "--threshold", "-1"]) == 2
