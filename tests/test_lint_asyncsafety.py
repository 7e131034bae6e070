"""Tests for the async-safety certifier (RL017–RL021).

Covers the five program rules on their fixture packages (offending and
clean, one package per rule), the coroutine-reachability and blocking
models' non-vacuity on the real serving layer, the shipped tree's
finding-free verdict, ruleset-digest coverage (adding/removing the
async rules invalidates the cache), and the ``--explain`` CLI.  The runtime half of the
cross-validation contract — the same fixture packages driven under the
``REPRO_LOOPWATCH`` instrumented loop — lives in
``tests/test_serve_loopwatch.py``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import ALL_RULES, Program, lint_paths, rule_by_code
from repro.lint.asyncsafety import AsyncModel
from repro.lint.dataflow import extract_summary, module_name_for
from repro.lint.dataflow.cache import ruleset_digest

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
BLOCK_PKG = FIXTURES / "async_block_pkg"
ORPHAN_PKG = FIXTURES / "async_orphan_pkg"
CHANNEL_PKG = FIXTURES / "async_channel_pkg"
CLEANUP_PKG = FIXTURES / "async_cleanup_pkg"
JOIN_PKG = FIXTURES / "async_join_pkg"
REPO_ROOT = Path(__file__).resolve().parents[1]

ASYNC_CODES = {"RL017", "RL018", "RL019", "RL020", "RL021"}


def by_rule(findings, code: str):
    return [f for f in findings if f.rule == code]


def async_findings(report):
    return [f for f in report.findings if f.rule in ASYNC_CODES]


def _program_for(*files: Path) -> Program:
    summaries = []
    for f in files:
        src = f.read_text()
        summaries.append(extract_summary(str(f), ast.parse(src), module_name_for(f)))
    return Program(summaries)


def _run_cli(*argv: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=env,
    )


# ---------------------------------------------------------------------------
# RL017 — blocking-call-in-coroutine
# ---------------------------------------------------------------------------


class TestBlockingCallRule:
    def test_laundered_blocking_call_flagged(self):
        report = lint_paths([BLOCK_PKG / "offending.py"])
        hits = by_rule(report.findings, "RL017")
        assert len(hits) == 1
        # The finding names the coroutine, why it is loop-reachable,
        # and the full sync chain down to the blocking external.
        assert "serve_forever" in hits[0].message
        assert "_persist" in hits[0].message
        assert "time.sleep" in hits[0].message

    def test_to_thread_by_reference_is_exempt(self):
        report = lint_paths([BLOCK_PKG / "clean.py"])
        assert by_rule(report.findings, "RL017") == []

    def test_model_charges_blocking_to_the_coroutine(self):
        program = _program_for(BLOCK_PKG / "offending.py")
        model = AsyncModel(program)
        (coro_id,) = [k for k in model.reachable if k.endswith("serve_forever")]
        assert model.reachable[coro_id] == "public coroutine API"
        assert coro_id in model.blocking
        # The sync helper itself blocks too, but is not a coroutine.
        (helper,) = [k for k in model.blocking if k.endswith("_persist")]
        assert helper not in model.reachable


# ---------------------------------------------------------------------------
# RL018 — orphaned-task
# ---------------------------------------------------------------------------


class TestOrphanedTaskRule:
    def test_discarded_handle_flagged(self):
        report = lint_paths([ORPHAN_PKG / "offending.py"])
        hits = by_rule(report.findings, "RL018")
        assert len(hits) == 1
        assert "_worker" in hits[0].message
        assert "never retrieved" in hits[0].message

    def test_owned_handle_is_clean(self):
        report = lint_paths([ORPHAN_PKG / "clean.py"])
        assert by_rule(report.findings, "RL018") == []

    def test_spawn_target_becomes_reachable(self):
        program = _program_for(ORPHAN_PKG / "offending.py")
        model = AsyncModel(program)
        (worker,) = [k for k in model.reachable if k.endswith("_worker")]
        assert "spawned via create_task" in model.reachable[worker]


# ---------------------------------------------------------------------------
# RL019 — unbounded-channel
# ---------------------------------------------------------------------------


class TestUnboundedChannelRule:
    def test_default_constructors_flagged(self):
        report = lint_paths([CHANNEL_PKG / "offending.py"])
        hits = by_rule(report.findings, "RL019")
        assert len(hits) == 2
        kinds = {("queue" if "queue" in f.message else "stream reader") for f in hits}
        assert kinds == {"queue", "stream reader"}

    def test_bounded_constructors_clean(self):
        report = lint_paths([CHANNEL_PKG / "clean.py"])
        assert by_rule(report.findings, "RL019") == []


# ---------------------------------------------------------------------------
# RL020 — unshielded-cleanup-await
# ---------------------------------------------------------------------------


class TestUnshieldedCleanupRule:
    def test_bare_finally_await_flagged(self):
        report = lint_paths([CLEANUP_PKG / "offending.py"])
        hits = by_rule(report.findings, "RL020")
        assert len(hits) == 1
        assert "courier.flush" in hits[0].message
        assert "deliver" in hits[0].symbol

    def test_shielded_finally_await_clean(self):
        report = lint_paths([CLEANUP_PKG / "clean.py"])
        assert by_rule(report.findings, "RL020") == []


# ---------------------------------------------------------------------------
# RL021 — queue-join-protocol
# ---------------------------------------------------------------------------


class TestQueueJoinRule:
    def test_all_four_protocol_breaks_flagged(self):
        report = lint_paths([JOIN_PKG / "offending.py"])
        hits = by_rule(report.findings, "RL021")
        assert len(hits) == 4
        messages = "\n".join(f.message for f in hits)
        assert "can never complete" in messages  # Mill: no task_done at all
        assert "consume_leaky" in messages  # LeakyMill: one consumer leaks
        assert "finally" in messages  # BareMill: off the finally path
        assert "poison pill" in messages  # EagerMill: pill before join
        assert all(f.severity == "error" for f in hits)

    def test_balanced_protocol_clean(self):
        report = lint_paths([JOIN_PKG / "clean.py"])
        assert by_rule(report.findings, "RL021") == []


# ---------------------------------------------------------------------------
# The shipped tree: finding-free, and not vacuously so
# ---------------------------------------------------------------------------


class TestShippedTree:
    def test_shipped_tree_is_finding_free(self, shipped_lint_report):
        offenders = async_findings(shipped_lint_report)
        assert offenders == [], [f.render() for f in offenders]
        assert shipped_lint_report.files_scanned > 50

    def test_daemon_coroutines_are_modelled(self):
        # Non-vacuity: the clean verdict above is a real comparison.
        # The daemon's private workers are loop-reachable in the model,
        # the checkpoint writer's sync closure is known-blocking, and
        # the two sets are disjoint only because the daemon routes every
        # persistence call through asyncio.to_thread.
        serve = REPO_ROOT / "src" / "repro" / "serve"
        program = _program_for(
            serve / "daemon.py",
            serve / "checkpoint.py",
            REPO_ROOT / "src" / "repro" / "obs" / "jsonl.py",
        )
        model = AsyncModel(program)
        reachable = set(model.reachable)
        assert "repro.serve.daemon.ServeDaemon._tenant_loop" in reachable
        assert "repro.serve.daemon.ServeDaemon._on_connection" in reachable
        assert "repro.serve.daemon._Connection._write_loop" in reachable
        assert "repro.serve.checkpoint.save_checkpoint" in model.blocking
        assert not reachable & set(model.blocking)


# ---------------------------------------------------------------------------
# Cache digest, --explain
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_digest_covers_async_rules(self):
        without = [r for r in ALL_RULES if r.code not in ASYNC_CODES]
        assert ruleset_digest(list(ALL_RULES)) != ruleset_digest(without)

    def test_rules_registered_with_docs(self):
        for code in sorted(ASYNC_CODES):
            rule = rule_by_code(code)
            assert rule is not None
            doc = type(rule).__doc__ or ""
            assert "Offending::" in doc and "Clean::" in doc

    def test_explain_cli_covers_async_rules(self):
        proc = _run_cli("--explain", "RL017")
        assert proc.returncode == 0
        assert "blocking-call-in-coroutine" in proc.stdout
        assert "Offending::" in proc.stdout
        proc = _run_cli("--explain", "RL021")
        assert proc.returncode == 0
        assert "queue-join-protocol" in proc.stdout
