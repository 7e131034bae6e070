"""Tests for the ``REPRO_LOOPWATCH`` instrumented event loop.

The loopwatch is the runtime twin of lint rules RL017/RL018 (in the
mold of ``REPRO_STRICT`` ⇄ RL007): this
suite covers the knobs, the stall/orphan instrumentation itself, and —
the heart of the contract — the **both-directions cross-validation**
on the shared ``tests/data/lint_fixtures/async_*_pkg`` packages: every
fixture the static rules flag must misbehave at runtime (stall the
instrumented loop, orphan a task, overfill without pushback, lose the
cleanup, hang the drain), and every clean twin must run quiet.  The
static-side assertions live in ``tests/test_lint_asyncsafety.py``;
here each fixture pair is *executed*.
"""

from __future__ import annotations

import asyncio
import importlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.serve.loopwatch import (
    DEFAULT_STALL_THRESHOLD,
    LoopStallError,
    LoopWatch,
    loopwatch_enabled,
    stall_threshold,
    watched_run,
)

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def _import_fixture_module(dotted: str):
    if str(FIXTURES) not in sys.path:
        sys.path.insert(0, str(FIXTURES))
    return importlib.import_module(dotted)


def rule_codes(path: Path) -> set[str]:
    return {f.rule for f in lint_paths([path]).findings}


# ---------------------------------------------------------------------------
# Knobs
# ---------------------------------------------------------------------------


class TestKnobs:
    def test_enabled_idiom(self, monkeypatch):
        for raw, expected in [
            ("", False),
            ("0", False),
            ("false", False),
            ("off", False),
            ("1", True),
            ("true", True),
            ("yes", True),
        ]:
            monkeypatch.setenv("REPRO_LOOPWATCH", raw)
            assert loopwatch_enabled() is expected, raw
        monkeypatch.delenv("REPRO_LOOPWATCH")
        assert loopwatch_enabled() is False

    def test_threshold_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOOPWATCH_THRESHOLD", raising=False)
        assert stall_threshold() == DEFAULT_STALL_THRESHOLD
        monkeypatch.setenv("REPRO_LOOPWATCH_THRESHOLD", "0.5")
        assert stall_threshold() == 0.5
        monkeypatch.setenv("REPRO_LOOPWATCH_THRESHOLD", "garbage")
        assert stall_threshold() == DEFAULT_STALL_THRESHOLD
        monkeypatch.setenv("REPRO_LOOPWATCH_THRESHOLD", "-1")
        assert stall_threshold() == DEFAULT_STALL_THRESHOLD


# ---------------------------------------------------------------------------
# The instrumentation itself
# ---------------------------------------------------------------------------


class TestWatchedRun:
    def test_quiet_loop_runs_clean(self):
        async def main() -> int:
            await asyncio.sleep(0)
            return 41 + 1

        result, watch = watched_run(main(), threshold=0.5)
        assert result == 42
        assert watch.stalls == [] and watch.orphans == []
        snap = watch.metrics.snapshot()
        assert snap["counters"]["loopwatch.callbacks"] >= 1
        assert "loopwatch.callback_seconds" in snap["histograms"]
        assert snap["gauges"]["loopwatch.pending_tasks"] == 0.0

    def test_inline_block_is_a_stall(self):
        async def main() -> None:
            time.sleep(0.08)  # blocks the loop thread inline

        result, watch = watched_run(main(), threshold=0.02, check=False)
        assert result is None
        assert watch.stalls
        label, seconds = max(watch.stalls, key=lambda s: s[1])
        assert "main" in label
        assert seconds >= 0.02
        assert watch.metrics.snapshot()["counters"]["loopwatch.stalls"] >= 1

    def test_stall_raises_with_check(self):
        async def main() -> None:
            time.sleep(0.08)

        with pytest.raises(LoopStallError, match="RL017"):
            watched_run(main(), threshold=0.02)

    def test_orphan_raises_with_check(self):
        async def main() -> None:
            asyncio.create_task(_boom())  # noqa: RUF006 - deliberate orphan
            await asyncio.sleep(0.01)

        async def _boom() -> None:
            raise RuntimeError("nobody is listening")

        with pytest.raises(LoopStallError, match="RL018"):
            watched_run(main(), threshold=5.0)

    def test_watch_accumulates_per_label(self):
        watch = LoopWatch(threshold=0.01)
        watch.observe_callback("worker", 0.5)
        watch.observe_callback("worker", 0.002)
        assert watch.stalls == [("worker", 0.5)]
        snap = watch.metrics.snapshot()
        assert snap["counters"]["loopwatch.callbacks"] == 2.0
        assert snap["counters"]["loopwatch.stalls"] == 1.0


# ---------------------------------------------------------------------------
# Cross-validation: static verdicts ⇄ runtime behaviour, both directions
# ---------------------------------------------------------------------------


class TestBlockingCrossValidation:
    def test_offending_flagged_and_stalls(self):
        pkg = FIXTURES / "async_block_pkg"
        assert "RL017" in rule_codes(pkg / "offending.py")
        mod = _import_fixture_module("async_block_pkg.offending")
        result, watch = watched_run(
            mod.serve_forever(), threshold=0.05, check=False
        )
        assert result == 2
        assert watch.stalls, "static RL017 verdict not confirmed at runtime"
        label, seconds = max(watch.stalls, key=lambda s: s[1])
        assert "serve_forever" in label
        assert seconds >= 0.05

    def test_clean_quiet_and_unflagged(self):
        pkg = FIXTURES / "async_block_pkg"
        assert "RL017" not in rule_codes(pkg / "clean.py")
        mod = _import_fixture_module("async_block_pkg.clean")
        result, watch = watched_run(mod.serve_forever(), threshold=0.05)
        assert result == 2
        assert watch.stalls == []


class TestOrphanCrossValidation:
    def test_offending_flagged_and_orphans(self):
        pkg = FIXTURES / "async_orphan_pkg"
        assert "RL018" in rule_codes(pkg / "offending.py")
        mod = _import_fixture_module("async_orphan_pkg.offending")
        _result, watch = watched_run(mod.kickoff(), threshold=5.0, check=False)
        assert len(watch.orphans) == 1
        assert "_worker" in watch.orphans[0]

    def test_clean_quiet_and_unflagged(self):
        pkg = FIXTURES / "async_orphan_pkg"
        assert "RL018" not in rule_codes(pkg / "clean.py")
        mod = _import_fixture_module("async_orphan_pkg.clean")
        _result, watch = watched_run(mod.kickoff(), threshold=5.0)
        assert watch.orphans == []


class TestChannelCrossValidation:
    def test_offending_flagged_and_never_pushes_back(self):
        pkg = FIXTURES / "async_channel_pkg"
        assert "RL019" in rule_codes(pkg / "offending.py")
        mod = _import_fixture_module("async_channel_pkg.offending")
        # 100 items sail into the "bounded" hub: memory is the only limit.
        assert asyncio.run(mod.overfill(100)) == 100

    def test_clean_rejects_at_its_bound(self):
        pkg = FIXTURES / "async_channel_pkg"
        assert "RL019" not in rule_codes(pkg / "clean.py")
        mod = _import_fixture_module("async_channel_pkg.clean")
        assert asyncio.run(mod.overfill(100)) == mod.BOUND


class TestCleanupCrossValidation:
    def test_offending_flagged_and_loses_the_flush(self):
        pkg = FIXTURES / "async_cleanup_pkg"
        assert "RL020" in rule_codes(pkg / "offending.py")
        mod = _import_fixture_module("async_cleanup_pkg.offending")
        assert asyncio.run(mod.run_cancelled()) == []

    def test_clean_shielded_flush_lands(self):
        pkg = FIXTURES / "async_cleanup_pkg"
        assert "RL020" not in rule_codes(pkg / "clean.py")
        mod = _import_fixture_module("async_cleanup_pkg.clean")
        assert asyncio.run(mod.run_cancelled()) == [7]


class TestJoinCrossValidation:
    def test_offending_flagged_and_drain_hangs(self):
        pkg = FIXTURES / "async_join_pkg"
        assert "RL021" in rule_codes(pkg / "offending.py")
        mod = _import_fixture_module("async_join_pkg.offending")
        joined, done = asyncio.run(mod.run_drain(timeout=0.2))
        assert joined is False  # the join counter is stuck high
        assert done == [1, 2, 3]  # items were consumed, credits never returned

    def test_clean_drain_completes(self):
        pkg = FIXTURES / "async_join_pkg"
        assert "RL021" not in rule_codes(pkg / "clean.py")
        mod = _import_fixture_module("async_join_pkg.clean")
        joined, done = asyncio.run(mod.run_drain(timeout=2.0))
        assert joined is True
        assert done == [1, 2, 3]


# ---------------------------------------------------------------------------
# The real daemon under the watch (the CI smoke, in miniature)
# ---------------------------------------------------------------------------

_TWO_TENANT_OPS = (
    b'{"op": "job", "tenant": "a", "id": 1, "arrival": 0.0, "length": 2.0,'
    b' "deadline": 9.0}\n'
    b'{"op": "job", "tenant": "b", "id": 2, "arrival": 0.0, "length": 1.0,'
    b' "deadline": 5.0}\n'
    b'{"op": "close", "tenant": "a"}\n'
    b'{"op": "close", "tenant": "b"}\n'
)


class TestDaemonUnderLoopwatch:
    def _serve(self, env_extra: dict) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio"],
            input=_TWO_TENANT_OPS,
            capture_output=True,
            timeout=60,
            env=env,
        )

    def test_two_tenant_stream_runs_clean(self):
        proc = self._serve({"REPRO_LOOPWATCH": "1"})
        assert proc.returncode == 0, proc.stderr.decode()
        err = proc.stderr.decode()
        assert "loopwatch:" in err
        assert "0 stall(s)" in err and "0 orphan(s)" in err
        out = proc.stdout.decode()
        assert '"serve.ready"' in out and '"serve.closed"' in out

    def test_absurd_threshold_fails_the_process(self):
        # With a sub-microsecond threshold every callback is a "stall":
        # the LoopStallError path must surface as a distinct exit code.
        proc = self._serve(
            {"REPRO_LOOPWATCH": "1", "REPRO_LOOPWATCH_THRESHOLD": "0.0000001"}
        )
        assert proc.returncode == 3, proc.stderr.decode()
        assert "RL017" in proc.stderr.decode()
