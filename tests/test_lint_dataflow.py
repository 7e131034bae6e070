"""Tests for the whole-program dataflow layer (``repro.lint.dataflow``).

Covers RL007 on single-file and multi-module fixture packages (leaks
laundered through helpers in other modules), the static ⇄ runtime
``ClairvoyanceGuard`` cross-validation in both directions, summary
extraction, the incremental analysis cache (a second run on an
unchanged tree re-analyzes zero files; editing a rule's source
re-analyzes every file), and the ``--explain`` CLI.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import ClairvoyanceError, Instance, Simulator
from repro.lint import (
    ALL_RULES,
    AnalysisCache,
    Program,
    ProgramRule,
    default_target,
    lint_paths,
    lint_source,
    rule_by_code,
)
from repro.lint.dataflow import FileSummary, extract_summary, module_name_for
from repro.lint.dataflow.cache import file_key, ruleset_digest

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
LAUNDERED = FIXTURES / "laundered_pkg"
CLEAN_PKG = FIXTURES / "clean_pkg"
REPO_ROOT = Path(__file__).resolve().parents[1]

PROGRAM_CODES = {"RL007", "RL017", "RL018", "RL019", "RL020", "RL021"}


def codes(findings) -> set[str]:
    return {f.rule for f in findings}


def by_rule(findings, code: str):
    return [f for f in findings if f.rule == code]


def _import_fixture_module(dotted: str):
    """Import ``laundered_pkg.sched``-style fixture packages."""
    if str(FIXTURES) not in sys.path:
        sys.path.insert(0, str(FIXTURES))
    return importlib.import_module(dotted)


@pytest.fixture
def two_jobs() -> Instance:
    return Instance.from_triples([(0, 2, 1), (0, 2, 3)], name="dataflow-probe")


# ---------------------------------------------------------------------------
# Registry / plumbing
# ---------------------------------------------------------------------------


class TestProgramRulePlumbing:
    def test_program_rules_registered(self):
        assert PROGRAM_CODES <= {r.code for r in ALL_RULES}

    def test_program_rules_are_program_rules(self):
        for code in sorted(PROGRAM_CODES):
            assert isinstance(rule_by_code(code), ProgramRule)

    def test_program_rules_inert_in_lint_source(self):
        # A lone source string has no whole-program context: RL007 must
        # not fire even on a blatant leak routed through a local helper.
        src = textwrap.dedent(
            """
            def peek(job):
                return job.length

            class S(OnlineScheduler):
                requires_clairvoyance = False

                def on_arrival(self, ctx, job):
                    return peek(job)
            """
        )
        assert not codes(lint_source(src)) & PROGRAM_CODES

    def test_rule_docstrings_carry_snippets(self):
        # --explain sources its payload from the class docstring; every
        # program rule documents an offending and a clean snippet.
        for code in sorted(PROGRAM_CODES):
            doc = type(rule_by_code(code)).__doc__ or ""
            assert "Offending" in doc and "Clean" in doc, code


# ---------------------------------------------------------------------------
# Summary extraction
# ---------------------------------------------------------------------------


class TestSummaryExtraction:
    def test_module_name_for_package_file(self):
        assert module_name_for(LAUNDERED / "sched.py") == "laundered_pkg.sched"
        assert module_name_for(LAUNDERED / "__init__.py") == "laundered_pkg"

    def test_summary_roundtrips_through_json(self):
        path = LAUNDERED / "sched.py"
        src = path.read_text()
        summary = extract_summary(
            "laundered_pkg/sched.py", ast.parse(src), "laundered_pkg.sched"
        )
        data = json.loads(json.dumps(summary.to_dict()))
        restored = FileSummary.from_dict(data)
        assert restored == summary

    def test_relative_import_resolution_in_package_init(self):
        # Regression: a level-1 import in __init__.py resolves against
        # the package itself, not its parent.
        src = "from .cdb import ClassifyByDurationBatchPlus\n"
        summary = extract_summary(
            "repro/schedulers/__init__.py", ast.parse(src), "repro.schedulers"
        )
        assert (
            summary.imports["ClassifyByDurationBatchPlus"]
            == "repro.schedulers.cdb.ClassifyByDurationBatchPlus"
        )


# ---------------------------------------------------------------------------
# RL007: leaks inside one scheduler class
# ---------------------------------------------------------------------------

LEAKY_SRC = textwrap.dedent(
    """
    from repro.schedulers.base import OnlineScheduler

    class Sneaky(OnlineScheduler):
        requires_clairvoyance = False

        def on_arrival(self, ctx, job):
            if job.length > 2:
                ctx.start(job.id)
    """
)


def rl007(tmp_path: Path, source: str):
    """RL007 findings on ``source`` written out as a one-module package
    (program rules need :func:`lint_paths`; ``lint_source`` runs none)."""
    pkg = tmp_path / "probe_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "sched.py").write_text(source)
    return by_rule(lint_paths([pkg]).findings, "RL007")


class TestRL007:
    def test_flags_direct_read(self, tmp_path):
        (f,) = rl007(tmp_path, LEAKY_SRC)
        assert f.line == 8
        assert "length" in f.message and "Sneaky" in f.symbol

    def test_declared_clairvoyant_is_fine(self, tmp_path):
        src = LEAKY_SRC.replace(
            "requires_clairvoyance = False", "requires_clairvoyance = True"
        )
        assert rl007(tmp_path, src) == []

    def test_completion_read_is_fine(self, tmp_path):
        src = textwrap.dedent(
            """
            from repro.schedulers.base import OnlineScheduler

            class Honest(OnlineScheduler):
                requires_clairvoyance = False

                def on_completion(self, ctx, job):
                    self.total += job.length
            """
        )
        assert rl007(tmp_path, src) == []

    def test_leak_through_helper_method(self, tmp_path):
        src = textwrap.dedent(
            """
            from repro.schedulers.base import OnlineScheduler

            class Indirect(OnlineScheduler):
                requires_clairvoyance = False

                def on_arrival(self, ctx, job):
                    self._peek(job)

                def _peek(self, job):
                    return job.length
            """
        )
        findings = rl007(tmp_path, src)
        assert findings
        assert any("_peek" in f.symbol for f in findings)

    def test_pending_loop_variable_tracked(self, tmp_path):
        src = textwrap.dedent(
            """
            from repro.schedulers.base import OnlineScheduler

            class LoopLeak(OnlineScheduler):
                requires_clairvoyance = False

                def on_deadline(self, ctx, job):
                    for p in ctx.pending():
                        if p.length < 1:
                            ctx.start(p.id)
            """
        )
        (f,) = rl007(tmp_path, src)
        assert f.line == 9

    def test_non_scheduler_class_untouched(self, tmp_path):
        src = textwrap.dedent(
            """
            class Interval:
                def __init__(self, length):
                    self.job = object()

                def use(self, job):
                    return job.length
            """
        )
        assert rl007(tmp_path, src) == []


# ---------------------------------------------------------------------------
# RL007: the laundering gap
# ---------------------------------------------------------------------------


class TestLaunderedLeak:
    def test_rl007_catches_the_laundered_leak(self):
        report = lint_paths([LAUNDERED])
        hits = by_rule(report.findings, "RL007")
        assert hits, report.render()
        (hit,) = hits
        assert hit.path.endswith("sched.py")
        assert "helpers.effective_weight" in hit.message
        assert "helpers.py" in hit.message  # witness points into the helper

    def test_clean_multi_module_package_not_flagged(self):
        report = lint_paths([CLEAN_PKG])
        assert report.clean, report.render()

    def test_rl007_respects_inline_suppression(self, tmp_path):
        pkg = tmp_path / "supp_pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "helpers.py").write_text("def peek(job):\n    return job.length\n")
        (pkg / "sched.py").write_text(
            textwrap.dedent(
                """
                from . import helpers

                class S(OnlineScheduler):
                    requires_clairvoyance = False

                    def on_arrival(self, ctx, job):
                        return helpers.peek(job)  # lint: ignore[RL007]
                """
            )
        )
        report = lint_paths([pkg])
        assert not by_rule(report.findings, "RL007"), report.render()
        assert report.suppressed >= 1
        # Sanity: without the pragma the same package is flagged.
        text = (pkg / "sched.py").read_text()
        (pkg / "sched.py").write_text(text.replace("  # lint: ignore[RL007]", ""))
        assert by_rule(lint_paths([pkg]).findings, "RL007")


# ---------------------------------------------------------------------------
# Static ⇄ runtime cross-validation (both directions)
# ---------------------------------------------------------------------------


class TestStaticDynamicAgreement:
    def test_laundered_flagged_statically(self):
        assert by_rule(lint_paths([LAUNDERED]).findings, "RL007")

    def test_laundered_trips_runtime_guard(self, two_jobs):
        mod = _import_fixture_module("laundered_pkg.sched")
        sched = mod.LaunderingScheduler()
        sim = Simulator(sched, instance=two_jobs, clairvoyant=True, strict=True)
        with pytest.raises(ClairvoyanceError):
            sim.run()
        guard = sim.strict_guard
        assert guard is not None and guard.accesses

    def test_clean_pkg_passes_statically(self):
        assert lint_paths([CLEAN_PKG]).clean

    def test_clean_pkg_passes_runtime_guard(self, two_jobs):
        mod = _import_fixture_module("clean_pkg.sched")
        sched = mod.CleanPkgScheduler()
        sim = Simulator(sched, instance=two_jobs, clairvoyant=True, strict=True)
        result = sim.run()
        guard = sim.strict_guard
        assert guard is not None and guard.accesses == []
        assert result.span > 0
        assert sorted(sched.observed_lengths) == [1.0, 3.0]


# ---------------------------------------------------------------------------
# Shipped tree: zero findings, no suppressions
# ---------------------------------------------------------------------------


class TestShippedTree:
    def test_no_program_rule_findings_and_no_baseline(self, shipped_lint_report):
        report = shipped_lint_report
        assert not codes(report.findings) & PROGRAM_CODES, report.render()
        assert report.suppressed == 0  # no suppressions needed
        # The scheduler hierarchy is actually being analysed (the
        # cleanliness is a verdict, not a vacuous pass).
        assert report.files_scanned > 50

    def test_program_assembles_all_shipped_schedulers(self):
        from repro.lint.runner import _analyze_one, discover_files

        files = discover_files([default_target()])
        summaries = []
        for f in files:
            record = _analyze_one(str(f), f, [])
            if record["summary"] is not None:
                summaries.append(FileSummary.from_dict(record["summary"]))
        program = Program(summaries)
        scheds = {c.rsplit(".", 1)[-1] for c in program.scheduler_classes()}
        assert {"ClassifyByDurationBatchPlus", "Profit", "Batch"} <= scheds
        # Clairvoyance declarations are resolved over the MRO.
        cdb = next(
            c for c in program.scheduler_classes() if c.endswith(".ClassifyByDurationBatchPlus")
        )
        assert program.requires_clairvoyance(cdb)


# ---------------------------------------------------------------------------
# Incremental cache
# ---------------------------------------------------------------------------


class TestIncrementalCache:
    def test_second_run_reanalyzes_zero_files(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache = AnalysisCache(cache_file)
        first = lint_paths([LAUNDERED], cache=cache)
        assert first.files_reanalyzed == first.files_scanned > 0

        cache2 = AnalysisCache(cache_file)
        second = lint_paths([LAUNDERED], cache=cache2)
        assert second.files_reanalyzed == 0
        assert [f.render() for f in second.findings] == [
            f.render() for f in first.findings
        ]

    def test_touched_file_reanalyzed_alone(self, tmp_path):
        src_pkg = tmp_path / "pkg"
        src_pkg.mkdir()
        (src_pkg / "__init__.py").write_text("")
        (src_pkg / "a.py").write_text("A = 1\n")
        (src_pkg / "b.py").write_text("B = 2\n")
        cache_file = tmp_path / "cache.json"
        lint_paths([src_pkg], cache=AnalysisCache(cache_file))
        (src_pkg / "b.py").write_text("B = 3\n")
        report = lint_paths([src_pkg], cache=AnalysisCache(cache_file))
        assert report.files_reanalyzed == 1

    def test_cache_key_depends_on_rule_selection(self):
        content = b"X = 1\n"
        assert file_key(content, ["RL003"]) != file_key(content, ["RL012"])
        assert file_key(content, ["RL003"]) == file_key(content, ["RL003"])

    def test_corrupt_cache_is_ignored(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json")
        report = lint_paths([LAUNDERED], cache=AnalysisCache(cache_file))
        assert report.files_reanalyzed == report.files_scanned

    def test_prune_drops_dead_entries(self, tmp_path):
        src_pkg = tmp_path / "pkg"
        src_pkg.mkdir()
        (src_pkg / "__init__.py").write_text("")
        (src_pkg / "a.py").write_text("A = 1\n")
        cache_file = tmp_path / "cache.json"
        lint_paths([src_pkg], cache=AnalysisCache(cache_file))
        (src_pkg / "a.py").unlink()
        lint_paths([src_pkg], cache=AnalysisCache(cache_file))
        entries = json.loads(cache_file.read_text())["entries"]
        assert not any(p.endswith("a.py") for p in entries)

    def test_cached_run_keeps_program_findings(self, tmp_path):
        # Program rules are recomputed from cached summaries — a warm
        # cache must not swallow whole-program findings.
        cache_file = tmp_path / "cache.json"
        lint_paths([LAUNDERED], cache=AnalysisCache(cache_file))
        warm = lint_paths([LAUNDERED], cache=AnalysisCache(cache_file))
        assert warm.files_reanalyzed == 0
        assert by_rule(warm.findings, "RL007")


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


# ---------------------------------------------------------------------------
# CLI: --explain, cache flags
# ---------------------------------------------------------------------------


def _run_cli(*argv: str, cwd: Path | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=str(cwd or REPO_ROOT),
        env=env,
    )


class TestCLI:
    def test_explain_prints_rule_doc(self):
        proc = _run_cli("--explain", "RL007")
        assert proc.returncode == 0, proc.stderr
        assert "RL007 cross-module-clairvoyance-taint" in proc.stdout
        assert "Offending" in proc.stdout
        assert "helpers.peek(job)" in proc.stdout

    def test_explain_works_for_per_file_rules_too(self):
        proc = _run_cli("--explain", "RL003")
        assert proc.returncode == 0, proc.stderr
        assert "RL003" in proc.stdout

    def test_explain_unknown_rule_is_usage_error(self):
        proc = _run_cli("--explain", "RL999")
        assert proc.returncode == 2
        assert "RL999" in proc.stderr

    def test_list_rules_includes_program_rules(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        for code in sorted(PROGRAM_CODES):
            assert code in proc.stdout

    def test_cache_round_trip_via_cli(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = _run_cli(
            "--format", "json", "--cache-dir", str(cache_dir), str(LAUNDERED)
        )
        second = _run_cli(
            "--format", "json", "--cache-dir", str(cache_dir), str(LAUNDERED)
        )
        d1, d2 = json.loads(first.stdout), json.loads(second.stdout)
        assert d1["files_reanalyzed"] == d1["files_scanned"] > 0
        assert d2["files_reanalyzed"] == 0
        assert d1["findings"] == d2["findings"]

    def test_no_cache_flag(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _run_cli("--cache-dir", str(cache_dir), str(LAUNDERED))
        proc = _run_cli(
            "--format",
            "json",
            "--no-cache",
            "--cache-dir",
            str(cache_dir),
            str(LAUNDERED),
        )
        data = json.loads(proc.stdout)
        assert data["files_reanalyzed"] == data["files_scanned"]
