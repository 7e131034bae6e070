"""Tests for the invariant-certification layer (RL014–RL016).

Covers the three program rules on their fixture packages (offending and
clean), the RL015 static ⇄ ``repro obs explain --strict`` runtime
cross-validation, the shipped tree's finding-free verdict (and its
non-vacuity: the engine core sits in RL014's lifecycle scope), the
ruleset-source cache invalidation regression, and ``--jobs``
bit-identity with the new rules active.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    AnalysisCache,
    Program,
    ProgramRule,
    default_target,
    lint_paths,
    rule_by_code,
)
from repro.lint.dataflow import extract_summary, module_name_for
from repro.lint.dataflow.cache import ruleset_digest
from repro.lint.invariants.typestate import LifecycleTypestateRule

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
TYPESTATE_PKG = FIXTURES / "typestate_pkg"
VOCAB_BAD_PKG = FIXTURES / "vocab_bad_pkg"
VOCAB_CLEAN_PKG = FIXTURES / "vocab_clean_pkg"
MONOTONE_PKG = FIXTURES / "monotone_pkg"
REPO_ROOT = Path(__file__).resolve().parents[1]

INVARIANT_CODES = {"RL014", "RL015", "RL016"}


def codes(findings) -> set[str]:
    return {f.rule for f in findings}


def by_rule(findings, code: str):
    return [f for f in findings if f.rule == code]


def invariant_findings(report):
    return [f for f in report.findings if f.rule in INVARIANT_CODES]


def _program_for(*files: Path) -> Program:
    summaries = []
    for f in files:
        src = f.read_text()
        summaries.append(
            extract_summary(str(f), src, ast.parse(src), module_name_for(f), None)
        )
    return Program(summaries)


def _run_cli(*argv: str, cwd: Path | None = None, env_extra: dict | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=str(cwd or REPO_ROOT),
        env=env,
    )


# ---------------------------------------------------------------------------
# Registry / plumbing
# ---------------------------------------------------------------------------


class TestInvariantRulePlumbing:
    def test_rules_registered(self):
        assert INVARIANT_CODES <= {r.code for r in ALL_RULES}

    def test_rules_are_program_rules(self):
        for code in sorted(INVARIANT_CODES):
            assert isinstance(rule_by_code(code), ProgramRule)

    def test_docstrings_carry_offending_and_clean_snippets(self):
        # --explain sources its payload from the class docstring; every
        # invariant rule must document both sides.
        for code in sorted(INVARIANT_CODES):
            doc = type(rule_by_code(code)).__doc__ or ""
            assert "Offending" in doc, code
            assert "Clean" in doc, code

    @pytest.mark.parametrize("code", sorted(INVARIANT_CODES))
    def test_explain_cli(self, code):
        proc = _run_cli("--explain", code)
        assert proc.returncode == 0, proc.stderr
        assert code in proc.stdout
        assert "Offending" in proc.stdout


# ---------------------------------------------------------------------------
# RL014 lifecycle-typestate
# ---------------------------------------------------------------------------


class TestRL014Typestate:
    def test_offending_fixture(self):
        report = lint_paths([TYPESTATE_PKG])
        found = by_rule(report.findings, "RL014")
        assert len(found) == 5
        assert all(f.path.endswith("bad.py") for f in found)
        messages = "\n".join(f.message for f in found)
        # Illegal lifecycle writes, one per phase violation.
        assert "'_DONE' in _handle_arrival" in messages
        assert "'completed' in _handle_arrival" in messages
        assert "'_RUNNING' in _handle_completion" in messages
        assert "'_PENDING' in _start_job" in messages
        # The deadline-backstop half: starting jobs from on_deadline
        # without emitting a deadline-attributed decision.
        backstop = [f for f in found if "without emitting" in f.message]
        assert len(backstop) == 1
        assert backstop[0].symbol == "SilentDeadlineScheduler.on_deadline"

    def test_clean_fixture(self):
        report = lint_paths([TYPESTATE_PKG / "clean.py"])
        assert by_rule(report.findings, "RL014") == []


# ---------------------------------------------------------------------------
# RL015 decision-vocabulary-exhaustiveness
# ---------------------------------------------------------------------------


class TestRL015Vocabulary:
    def test_offending_fixture(self):
        report = lint_paths([VOCAB_BAD_PKG])
        found = by_rule(report.findings, "RL015")
        assert len(found) == 4
        messages = [f.message for f in found]
        dead = [m for m in messages if "never emitted" in m]
        # 'ghost-rule' is never emitted anywhere; 'epoch' is only
        # "emitted" through string concatenation, which a closed
        # vocabulary deliberately refuses to credit.
        assert len(dead) == 2
        assert any("'ghost-rule'" in m for m in dead)
        assert any("'epoch'" in m for m in dead)
        assert sum("not in the DECISION_RULES vocabulary" in m for m in messages) == 1
        assert sum("not a string literal" in m for m in messages) == 1

    def test_clean_fixture(self):
        report = lint_paths([VOCAB_CLEAN_PKG])
        assert by_rule(report.findings, "RL015") == []

    def test_vocabulary_matches_obs_export(self):
        # The static rule and the runtime reconciler read the same
        # closed 7-rule vocabulary.
        from repro.obs import decision_vocabulary
        from repro.obs.records import DECISION_RULES

        vocab = decision_vocabulary()
        assert vocab == frozenset(DECISION_RULES)
        assert len(vocab) == 7
        assert "deadline-backstop" in vocab


class TestRL015RuntimeCrossValidation:
    """An out-of-vocabulary reason is caught statically (fixture above)
    AND at runtime by ``repro obs explain --strict``."""

    def _trace(self, tmp_path: Path) -> tuple[Path, Path]:
        from repro.core import Instance, Simulator
        from repro.obs import TraceRecorder

        from repro.schedulers import make_scheduler

        inst = Instance.from_triples([(0, 2, 1), (0, 2, 3), (1, 3, 2)], name="rl015")
        rec = TraceRecorder()
        Simulator(make_scheduler("batch"), instance=inst, recorder=rec).run()
        clean = tmp_path / "clean.jsonl"
        rec.write_jsonl(clean)
        # Inject the same out-of-vocabulary reason the static fixture
        # uses, on a real decision record so the start stays attributed
        # (isolating the vocabulary failure from the attribution one).
        mutated, bad_lines = False, []
        for line in clean.read_text().splitlines():
            obj = json.loads(line)
            if not mutated and obj.get("kind") == "decision":
                obj["name"] = "panic-start"
                mutated = True
            bad_lines.append(json.dumps(obj))
        assert mutated
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(bad_lines) + "\n")
        return clean, bad

    def test_explain_trace_flags_unknown_rule(self, tmp_path):
        from repro.obs import TraceRecorder
        from repro.obs.explain import explain_trace

        rec = TraceRecorder()
        rec.decision("panic-start", job=0, t=0.0, scheduler="rogue")
        exp = explain_trace(rec)
        assert exp.unknown_rules == {"panic-start": 1}
        assert not exp.vocabulary_clean

    def test_strict_cli_rejects_out_of_vocabulary_reason(self, tmp_path):
        clean, bad = self._trace(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        run = lambda f: subprocess.run(  # noqa: E731
            [sys.executable, "-m", "repro", "obs", "explain", str(f), "--strict"],
            capture_output=True,
            text=True,
            env=env,
        )
        ok = run(clean)
        assert ok.returncode == 0, ok.stderr
        rejected = run(bad)
        assert rejected.returncode == 1
        assert "panic-start" in rejected.stdout
        assert "out-of-vocabulary" in rejected.stderr


# ---------------------------------------------------------------------------
# RL016 time-monotonicity
# ---------------------------------------------------------------------------


class TestRL016Monotone:
    def test_offending_fixture(self):
        report = lint_paths([MONOTONE_PKG])
        found = by_rule(report.findings, "RL016")
        assert len(found) == 3
        assert all(f.path.endswith("bad.py") for f in found)
        messages = "\n".join(f.message for f in found)
        assert "push key 'retry'" in messages
        assert "push key 'when'" in messages
        assert "clock write from 'checkpoint'" in messages

    def test_clean_fixture(self):
        # Anchored, guarded, axiom, vectorised-guard, and helper-vetted
        # pushes are all proven monotone — no false positives.
        report = lint_paths([MONOTONE_PKG / "clean.py"])
        assert by_rule(report.findings, "RL016") == []


# ---------------------------------------------------------------------------
# Shipped tree: finding-free and non-vacuously so
# ---------------------------------------------------------------------------


class TestShippedTree:
    def test_shipped_tree_is_finding_free(self):
        report = lint_paths([default_target()])
        offenders = invariant_findings(report)
        assert offenders == [], [f.render() for f in offenders]
        assert report.files_scanned > 50

    def test_engine_core_is_in_lifecycle_scope(self):
        # The clean verdict above is a real check, not a vacuous pass:
        # the engine core defines the lifecycle state constants, so
        # RL014 inspects every state write in it.
        core = REPO_ROOT / "src" / "repro" / "core" / "columnar.py"
        program = _program_for(core)
        summary = program.modules["repro.core.columnar"]
        assert LifecycleTypestateRule._in_scope(summary)
        written = {
            value
            for cls in summary.classes.values()
            for fn in cls.methods.values()
            for _field, value, _line, _col in fn.state_writes
        }
        assert {"_ADMITTED", "_PENDING", "_RUNNING", "_DONE"} <= written


# ---------------------------------------------------------------------------
# Cache: editing a rule's source invalidates cached summaries
# ---------------------------------------------------------------------------

_RULE_V1 = '''
from repro.lint.base import Rule


class TempRule(Rule):
    code = "RL900"
    name = "temp-rule"
    description = "cache-regression probe"

    def check(self, ctx):
        return iter(())
'''

# Same code, same behaviour — only the implementation text changed.
_RULE_V2 = _RULE_V1.replace("return iter(())", "return iter(())  # edited")


def _load_rule(path: Path, mod_name: str):
    spec = importlib.util.spec_from_file_location(mod_name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[mod_name] = spec.loader.exec_module(mod) or mod
    return mod.TempRule()


class TestRulesetSourceInvalidation:
    def test_editing_rule_source_reanalyzes(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("X = 1\n")
        (pkg / "b.py").write_text("Y = 2\n")

        # Two files, not one overwritten in place: ``inspect.getsource``
        # resolves through ``linecache`` by path, so rewriting the file
        # would silently change what v1's class reports as its source.
        rule_file = tmp_path / "temprule_v1.py"
        rule_file.write_text(_RULE_V1)
        v1 = _load_rule(rule_file, "temprule_v1")

        # The per-file phase resolves rules by code from the registry,
        # so the probe rule must be registered while it runs.
        ALL_RULES.append(v1)
        try:
            cache = AnalysisCache(tmp_path / "cache.json")
            first = lint_paths([pkg], rules=[v1], cache=cache)
            assert first.files_reanalyzed == 2
            second = lint_paths([pkg], rules=[v1], cache=cache)
            assert second.files_reanalyzed == 0

            # Edit the rule's implementation (even just a comment): the
            # ruleset digest covers rule *source*, so every cached record
            # keyed under the old behaviour must be re-derived.
            rule_file_v2 = tmp_path / "temprule_v2.py"
            rule_file_v2.write_text(_RULE_V2)
            v2 = _load_rule(rule_file_v2, "temprule_v2")
            assert ruleset_digest([v1]) != ruleset_digest([v2])
            ALL_RULES.remove(v1)
            ALL_RULES.append(v2)
            third = lint_paths([pkg], rules=[v2], cache=cache)
            assert third.files_reanalyzed == 2
        finally:
            ALL_RULES[:] = [r for r in ALL_RULES if r.code != "RL900"]

    def test_digest_covers_invariant_rules(self):
        # The shipped digest is sensitive to the full active rule set,
        # invariant rules included.
        without = [r for r in ALL_RULES if r.code not in INVARIANT_CODES]
        assert ruleset_digest(list(ALL_RULES)) != ruleset_digest(without)


# ---------------------------------------------------------------------------
# --jobs bit-identity with the invariant rules active
# ---------------------------------------------------------------------------


class TestJobsBitIdentity:
    def test_parallel_report_identical_to_serial(self):
        serial = lint_paths([FIXTURES])
        parallel = lint_paths([FIXTURES], jobs=2)
        assert serial.render_json() == parallel.render_json()
        # The comparison exercises the new rules, not an empty report.
        assert INVARIANT_CODES <= codes(serial.findings)
