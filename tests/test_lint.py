"""Tests for the ``repro.lint`` static analyzer and its runtime twin.

The headline contract: RL007 (the static clairvoyance rule) and the
engine's :class:`ClairvoyanceGuard` (the dynamic oracle, armed under
strict mode) must agree on the shared fixture schedulers in
``tests/data/lint_fixtures/`` — the leaky one is flagged by *both*, the
clean one by *neither*.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import ClairvoyanceError, Instance, Simulator, strict_mode_enabled
from repro.lint import ALL_RULES, lint_paths, lint_source, rule_by_code

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
LEAKY = FIXTURES / "leaky_scheduler.py"
CLEAN = FIXTURES / "clean_scheduler.py"
REPO_ROOT = Path(__file__).resolve().parents[1]

KEPT_RULES = {"RL003", "RL007", "RL012", "RL017", "RL018", "RL019", "RL020", "RL021"}


def _load_fixture_class(path: Path, class_name: str):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return getattr(mod, class_name)


def codes(findings) -> set[str]:
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_rules_registered(self):
        assert {r.code for r in ALL_RULES} == KEPT_RULES

    def test_rule_by_code(self):
        assert rule_by_code("RL003").code == "RL003"
        with pytest.raises(KeyError):
            rule_by_code("RL999")


# ---------------------------------------------------------------------------
# RL003 — float equality in certification code (scoped paths)
# ---------------------------------------------------------------------------


class TestRL003:
    SCOPED = "src/repro/offline/x.py"

    def test_float_equality_flagged(self):
        src = (
            "def check(a: float, b: float) -> bool:\n"
            "    return a == b\n"
        )
        assert codes(lint_source(src, self.SCOPED)) == {"RL003"}

    def test_known_float_attr_flagged(self):
        src = (
            "def rigid(job):\n"
            "    return job.laxity == 0\n"
        )
        assert codes(lint_source(src, self.SCOPED)) == {"RL003"}

    def test_tolerance_comparison_ok(self):
        src = (
            "def check(a: float, b: float) -> bool:\n"
            "    return abs(a - b) <= 1e-12\n"
        )
        assert lint_source(src, self.SCOPED) == []

    def test_int_comparison_ok(self):
        src = (
            "def check(xs: list) -> bool:\n"
            "    return len(xs) == 0\n"
        )
        assert lint_source(src, self.SCOPED) == []

    def test_none_sentinel_ok(self):
        src = (
            "def check(a: float) -> bool:\n"
            "    return a != None\n"
        )
        assert lint_source(src, self.SCOPED) == []


HOT = "src/repro/core/engine.py"


class TestRL012:
    """hot-path-object-alloc: columnar-core allocation discipline."""

    BAD_FIXTURE = FIXTURES / "hot_alloc_engine.py"
    CLEAN_FIXTURE = FIXTURES / "hot_alloc_clean.py"

    def rl012(self, src: str, path: str):
        return [f for f in lint_source(src, path) if f.rule == "RL012"]

    def test_fixture_hot_sections_flagged(self):
        findings = self.rl012(self.BAD_FIXTURE.read_text(), HOT)
        # one Job(...) ctor, one comprehension gather, one for-append
        assert len(findings) == 3
        assert {f.symbol for f in findings} == {
            "Job",
            "_cohort_arrival",
            "_start_batch",
        }

    def test_fixture_non_hot_function_passes(self):
        """_finish_report allocates per job but is not a hot section."""
        findings = self.rl012(self.BAD_FIXTURE.read_text(), HOT)
        assert all("_finish_report" not in f.message for f in findings)

    def test_clean_fixture_passes(self):
        src = self.CLEAN_FIXTURE.read_text()
        assert self.rl012(src, "src/repro/core/columnar.py") == []

    def test_job_ctor_in_handler_flagged(self):
        src = textwrap.dedent(
            """
            def _handle_completion(self, idx):
                return Job(id=idx, arrival=0.0, deadline=1.0, length=1.0)
            """
        )
        assert codes(self.rl012(src, HOT)) == {"RL012"}
        assert codes(self.rl012(src, "src/repro/core/columnar.py")) == {
            "RL012"
        }

    def test_attribute_gather_comprehension_flagged(self):
        src = textwrap.dedent(
            """
            def _cohort_arrival(self, cohort):
                return [view.deadline for view in cohort]
            """
        )
        assert codes(self.rl012(src, HOT)) == {"RL012"}

    def test_for_append_gather_flagged(self):
        src = textwrap.dedent(
            """
            def _start_batch(self, views):
                out = []
                for v in views:
                    out.append(v.start_time)
                return out
            """
        )
        assert codes(self.rl012(src, HOT)) == {"RL012"}

    def test_subscript_gather_is_sanctioned(self):
        """Row-index plumbing (list mirrors / columns) must pass."""
        src = textwrap.dedent(
            """
            def _cohort_arrival(self, cohort):
                deadline_l = self._table.deadline_list
                return [(deadline_l[idx], 3, idx) for idx in cohort]
            """
        )
        assert self.rl012(src, HOT) == []

    def test_error_path_ctor_outside_hot_section_passes(self):
        src = textwrap.dedent(
            """
            def materialize(self, rows):
                return [Job(id=r, arrival=0.0, deadline=1.0) for r in rows]
            """
        )
        assert self.rl012(src, HOT) == []

    def test_other_files_not_policed(self):
        src = textwrap.dedent(
            """
            def _handle_completion(self, idx):
                return Job(id=idx, arrival=0.0, deadline=1.0, length=1.0)
            """
        )
        assert self.rl012(src, "src/repro/schedulers/batch.py") == []
        assert self.rl012(src, "src/repro/perf/bench.py") == []

    def test_inline_ignore_suppresses(self):
        src = (
            "def _handle_completion(self, idx):\n"
            "    return Job(id=idx, arrival=0.0, deadline=1.0)"
            "  # lint: ignore[RL012]\n"
        )
        assert self.rl012(src, HOT) == []

    def test_shipped_engine_cores_are_clean(self):
        for rel in ("src/repro/core/engine.py", "src/repro/core/columnar.py"):
            path = REPO_ROOT / rel
            findings = self.rl012(path.read_text(), str(path))
            assert findings == [], f"{rel}: {findings}"


class TestLiveTelemetryScope:
    """RL012 covers the live telemetry plane (repro/obs/live.py).

    The per-record ``_handle_*`` feed runs on every armed serve
    session's collect loop, so it is policed exactly like the engine
    cores — via the ``live_feed_*`` fixture pair — while the rest of
    the obs package (per-scrape rendering, CLI) stays exempt.
    """

    LIVE = "src/repro/obs/live.py"
    BAD_FIXTURE = FIXTURES / "live_feed_leaky.py"
    CLEAN_FIXTURE = FIXTURES / "live_feed_clean.py"

    def test_leaky_fixture_flagged(self):
        findings = lint_source(self.BAD_FIXTURE.read_text(), self.LIVE)
        # one Job(...) ctor, one attribute-gather comprehension
        assert [(f.rule, f.line, f.symbol) for f in findings] == [
            ("RL012", 16, "Job"),
            ("RL012", 26, "_handle_start"),
        ]

    def test_leaky_fixture_non_hot_section_passes(self):
        """render_snapshot allocates per row but runs per scrape."""
        findings = lint_source(self.BAD_FIXTURE.read_text(), self.LIVE)
        assert all("render_snapshot" not in f.message for f in findings)

    def test_clean_fixture_passes(self):
        assert lint_source(self.CLEAN_FIXTURE.read_text(), self.LIVE) == []

    def test_other_obs_files_not_policed(self):
        src = "def _handle_release(self, attrs):\n    return Job(id=attrs)\n"
        assert lint_source(src, "src/repro/obs/top.py") == []
        assert lint_source(src, "src/repro/obs/cli.py") == []

    def test_shipped_live_module_is_clean(self):
        path = REPO_ROOT / "src/repro/obs/live.py"
        findings = lint_source(path.read_text(), str(path))
        assert findings == [], f"live.py: {findings}"


# ---------------------------------------------------------------------------
# Suppressions, runner
# ---------------------------------------------------------------------------


#: A one-finding module: RL003, an exact float comparison (line 2) in
#: certification code.
FLOAT_EQ_SRC = "def check(a: float, b: float) -> bool:\n    return a == b{comment}\n"
CERTIFY = "src/repro/offline/x.py"


def float_eq(comment: str = "") -> str:
    return FLOAT_EQ_SRC.format(comment=comment)


class TestSuppression:
    def test_inline_ignore(self):
        src = float_eq("  # lint: ignore[RL003]")
        assert lint_source(src, CERTIFY) == []

    def test_noqa_spelling(self):
        src = float_eq("  # noqa: RL003")
        assert lint_source(src, CERTIFY) == []

    def test_wrong_code_does_not_suppress(self):
        src = float_eq("  # lint: ignore[RL012]")
        assert codes(lint_source(src, CERTIFY)) == {"RL003"}


def _plant_package(root: Path) -> Path:
    """``root/repro/offline/planted.py`` with one RL003 finding (line 2)."""
    offline = root / "repro" / "offline"
    offline.mkdir(parents=True)
    (root / "repro" / "__init__.py").write_text("")
    (offline / "__init__.py").write_text("")
    planted = offline / "planted.py"
    planted.write_text(float_eq())
    return planted


class TestRunner:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([bad])
        assert not report.clean
        assert codes(report.findings) == {"RL000"}

    def test_shipped_package_is_clean(self, shipped_lint_report):
        assert shipped_lint_report.clean, shipped_lint_report.render()

    def test_json_rendering(self):
        data = json.loads(lint_paths([LEAKY]).render_json())
        assert [(f["rule"], f["line"]) for f in data["findings"]] == [("RL007", 32)]

    def test_path_scoped_rules_apply_to_any_target(self, tmp_path):
        # Scope follows the path from the package root, so the tree, the
        # subpackage and the file itself all get the same finding.
        planted = _plant_package(tmp_path)
        for target in (tmp_path, planted.parent, planted):
            hits = [
                (f.rule, Path(f.path).name, f.line)
                for f in lint_paths([target]).findings
            ]
            assert hits == [("RL003", "planted.py", 2)], target


# ---------------------------------------------------------------------------
# CLI gate
# ---------------------------------------------------------------------------


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


class TestCLI:
    def test_exits_nonzero_on_leaky_fixture(self):
        proc = _run_cli(str(LEAKY))
        assert proc.returncode == 1
        assert "RL007" in proc.stdout

    def test_exits_zero_on_clean_fixture(self):
        proc = _run_cli(str(CLEAN))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_exits_zero_on_shipped_suite(self):
        proc = _run_cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_select_restricts_rules(self):
        # The leaky fixture only violates RL007; selecting RL003 passes it.
        proc = _run_cli(str(LEAKY), "--select", "RL003")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_list_rules(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        listed = {line.split()[0] for line in proc.stdout.splitlines() if line}
        assert listed == KEPT_RULES


# ---------------------------------------------------------------------------
# Static rule ↔ runtime guard agreement (the cross-validation contract)
# ---------------------------------------------------------------------------


@pytest.fixture
def two_jobs() -> Instance:
    return Instance.from_triples([(0, 2, 1), (0, 2, 3)], name="guard-probe")


class TestStaticDynamicAgreement:
    def test_leaky_flagged_statically(self):
        report = lint_paths([LEAKY])
        assert "RL007" in codes(report.findings)

    def test_leaky_trips_runtime_guard(self, two_jobs):
        sched = _load_fixture_class(LEAKY, "LeakyScheduler")()
        sim = Simulator(sched, instance=two_jobs, clairvoyant=True, strict=True)
        with pytest.raises(ClairvoyanceError, match="requires_clairvoyance=False"):
            sim.run()
        guard = sim.strict_guard
        assert guard is not None and guard.accesses, (
            "the guard must record the offending (job, time) access"
        )

    def test_clean_passes_statically(self):
        report = lint_paths([CLEAN])
        assert report.clean, report.render()

    def test_clean_passes_runtime_guard(self, two_jobs):
        sched = _load_fixture_class(CLEAN, "CleanScheduler")()
        sim = Simulator(sched, instance=two_jobs, clairvoyant=True, strict=True)
        result = sim.run()
        guard = sim.strict_guard
        assert guard is not None and guard.accesses == []
        assert result.span > 0
        assert sorted(sched.observed_lengths) == [1.0, 3.0]

    def test_leaky_runs_silently_without_strict(self, two_jobs):
        # Exactly the hole the guard closes: a mis-declared scheduler in a
        # clairvoyant run reads lengths with impunity when strict is off.
        sched = _load_fixture_class(LEAKY, "LeakyScheduler")()
        sim = Simulator(sched, instance=two_jobs, clairvoyant=True, strict=False)
        result = sim.run()
        assert sim.strict_guard is None
        assert result.span > 0

    def test_declared_clairvoyant_scheduler_not_guarded(self, two_jobs):
        from repro.schedulers import Doubler

        sched = Doubler()
        sim = Simulator(sched, instance=two_jobs, clairvoyant=True, strict=True)
        sim.run()
        assert sim.strict_guard is None

    def test_env_var_arms_strict_mode(self, two_jobs, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        assert strict_mode_enabled()
        sched = _load_fixture_class(LEAKY, "LeakyScheduler")()
        with pytest.raises(ClairvoyanceError):
            Simulator(sched, instance=two_jobs, clairvoyant=True).run()

    def test_env_var_off_values(self, monkeypatch):
        for value in ("", "0", "false", "off"):
            monkeypatch.setenv("REPRO_STRICT", value)
            assert not strict_mode_enabled()


class TestServeHotPathScope:
    """``repro/serve`` is inside the RL012 hot-path scope: per-op
    allocation churn sits on the serving hot loop."""

    def test_job_ctor_in_serve_handler_flagged(self):
        src = textwrap.dedent(
            """
            def _handle_completion(self, op):
                return Job(id=1, arrival=0.0, deadline=2.0, length=1.0)
            """
        )
        findings = [
            f
            for f in lint_source(src, "src/repro/serve/daemon.py")
            if f.rule == "RL012"
        ]
        assert codes(findings) == {"RL012"}
