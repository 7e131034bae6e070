"""Tests for the ``repro.lint`` static analyzer and its runtime twin.

The headline contract: RL001 (the static clairvoyance-leak rule) and the
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
from repro.lint import (
    ALL_RULES,
    Baseline,
    default_target,
    lint_paths,
    lint_source,
    load_baseline,
    rule_by_code,
    write_baseline,
)

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
LEAKY = FIXTURES / "leaky_scheduler.py"
CLEAN = FIXTURES / "clean_scheduler.py"
REPO_ROOT = Path(__file__).resolve().parents[1]


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
        got = {r.code for r in ALL_RULES}
        assert {"RL001", "RL002", "RL003", "RL004", "RL005"} <= got

    def test_rule_by_code(self):
        assert rule_by_code("RL001").code == "RL001"
        with pytest.raises(KeyError):
            rule_by_code("RL999")


# ---------------------------------------------------------------------------
# RL001 — clairvoyance leaks
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


class TestRL001:
    def test_flags_direct_read(self):
        findings = lint_source(LEAKY_SRC, "x.py")
        assert codes(findings) == {"RL001"}
        (f,) = findings
        assert "length" in f.message and "Sneaky" in f.symbol

    def test_declared_clairvoyant_is_fine(self):
        src = LEAKY_SRC.replace(
            "requires_clairvoyance = False", "requires_clairvoyance = True"
        )
        assert lint_source(src, "x.py") == []

    def test_completion_read_is_fine(self):
        src = textwrap.dedent(
            """
            from repro.schedulers.base import OnlineScheduler

            class Honest(OnlineScheduler):
                requires_clairvoyance = False

                def on_completion(self, ctx, job):
                    self.total += job.length
            """
        )
        assert lint_source(src, "x.py") == []

    def test_leak_through_helper_method(self):
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
        findings = lint_source(src, "x.py")
        assert codes(findings) == {"RL001"}
        assert any("_peek" in f.symbol for f in findings)

    def test_pending_loop_variable_tracked(self):
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
        assert codes(lint_source(src, "x.py")) == {"RL001"}

    def test_non_scheduler_class_untouched(self):
        src = textwrap.dedent(
            """
            class Interval:
                def __init__(self, length):
                    self.job = object()

                def use(self, job):
                    return job.length
            """
        )
        assert lint_source(src, "x.py") == []


# ---------------------------------------------------------------------------
# RL002 — nondeterminism (scoped to schedulers/ and adversaries/ paths)
# ---------------------------------------------------------------------------


class TestRL002:
    SCOPED = "src/repro/schedulers/x.py"

    def test_unseeded_random_flagged(self):
        src = "import random\n\ndef pick(xs):\n    return random.choice(xs)\n"
        assert codes(lint_source(src, self.SCOPED)) == {"RL002"}

    def test_seeded_generator_ok(self):
        src = (
            "import numpy as np\n\n"
            "def pick(xs, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.choice(xs)\n"
        )
        assert lint_source(src, self.SCOPED) == []

    def test_wall_clock_flagged(self):
        src = "import time\n\ndef now():\n    return time.time()\n"
        assert codes(lint_source(src, self.SCOPED)) == {"RL002"}

    def test_set_iteration_flagged(self):
        src = (
            "def order(jobs):\n"
            "    ids = {j.id for j in jobs}\n"
            "    for i in ids:\n"
            "        yield i\n"
        )
        assert codes(lint_source(src, self.SCOPED)) == {"RL002"}

    def test_sorted_set_iteration_ok(self):
        src = (
            "def order(jobs):\n"
            "    ids = {j.id for j in jobs}\n"
            "    for i in sorted(ids):\n"
            "        yield i\n"
        )
        assert lint_source(src, self.SCOPED) == []

    def test_out_of_scope_path_ignored(self):
        src = "import random\n\ndef pick(xs):\n    return random.choice(xs)\n"
        assert lint_source(src, "src/repro/workloads/x.py") == []


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


# ---------------------------------------------------------------------------
# RL004 / RL005 — scheduler state-mutation and reset contract
# ---------------------------------------------------------------------------


class TestRL004:
    def test_job_attribute_assignment_flagged(self):
        src = textwrap.dedent(
            """
            from repro.schedulers.base import OnlineScheduler

            class Mutator(OnlineScheduler):
                def on_arrival(self, ctx, job):
                    job.deadline = job.deadline + 1
            """
        )
        assert codes(lint_source(src, "x.py")) == {"RL004"}

    def test_own_state_assignment_ok(self):
        src = textwrap.dedent(
            """
            from repro.schedulers.base import OnlineScheduler

            class Stateful(OnlineScheduler):
                def on_arrival(self, ctx, job):
                    self.last_seen = job.id
            """
        )
        assert lint_source(src, "x.py") == []


class TestRL005:
    def test_reset_without_super_flagged(self):
        src = textwrap.dedent(
            """
            from repro.schedulers.base import OnlineScheduler

            class Forgetful(OnlineScheduler):
                def reset(self):
                    self.items = []
            """
        )
        findings = lint_source(src, "x.py")
        assert codes(findings) == {"RL005"}
        assert "super().reset()" in findings[0].message

    def test_reset_with_super_ok(self):
        src = textwrap.dedent(
            """
            from repro.schedulers.base import OnlineScheduler

            class Careful(OnlineScheduler):
                def reset(self):
                    super().reset()
                    self.items = []
            """
        )
        assert lint_source(src, "x.py") == []


HOT = "src/repro/core/engine.py"


class TestRL011:
    def test_print_in_core_flagged(self):
        src = "def dispatch(ev):\n    print(ev)\n"
        assert codes(lint_source(src, HOT)) == {"RL011"}

    def test_print_in_schedulers_flagged(self):
        src = "def on_deadline(self, ctx, job):\n    print(job.id)\n"
        findings = lint_source(src, "src/repro/schedulers/batch.py")
        assert "RL011" in codes(findings)

    def test_module_logging_call_flagged(self):
        src = textwrap.dedent(
            """
            import logging

            def dispatch(ev):
                logging.info("event %s", ev)
            """
        )
        assert codes(lint_source(src, HOT)) == {"RL011"}

    def test_chained_get_logger_flagged(self):
        src = textwrap.dedent(
            """
            import logging

            def dispatch(ev):
                logging.getLogger(__name__).debug("event %s", ev)
            """
        )
        assert codes(lint_source(src, HOT)) == {"RL011"}

    def test_bound_logger_flagged(self):
        src = textwrap.dedent(
            """
            import logging

            log = logging.getLogger(__name__)

            def dispatch(ev):
                log.warning("event %s", ev)
            """
        )
        assert codes(lint_source(src, HOT)) == {"RL011"}

    def test_stdio_writes_flagged(self):
        src = textwrap.dedent(
            """
            import sys

            def dispatch(ev):
                sys.stdout.write(str(ev))
                sys.stderr.write(str(ev))
            """
        )
        findings = [f for f in lint_source(src, HOT) if f.rule == "RL011"]
        assert len(findings) == 2
        assert {f.symbol for f in findings} == {"sys.stdout", "sys.stderr"}

    def test_non_hot_path_ignored(self):
        src = "def render(report):\n    print(report)\n"
        assert lint_source(src, "src/repro/workloads/profiles.py") == []
        assert lint_source(src, "src/repro/cli.py") == []

    def test_recorder_usage_clean(self):
        src = textwrap.dedent(
            """
            def on_deadline(self, ctx, job):
                if self.obs.enabled:
                    self.obs.decision(
                        "deadline-flag", job=job.id, t=ctx.now,
                        scheduler=self._obs_scheduler,
                    )
                ctx.start(job.id)
            """
        )
        assert lint_source(src, "src/repro/schedulers/batch.py") == []

    def test_inline_ignore_suppresses(self):
        src = "def dispatch(ev):\n    print(ev)  # lint: ignore[RL011]\n"
        assert lint_source(src, HOT) == []

    def test_windows_separators_normalized(self):
        src = "def dispatch(ev):\n    print(ev)\n"
        findings = lint_source(src, "src\\repro\\core\\engine.py")
        assert codes(findings) == {"RL011"}


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
    """RL011/RL012 cover the live telemetry plane (repro/obs/live.py).

    The per-record ``_handle_*`` feed runs on every armed serve
    session's collect loop, so it is policed exactly like the engine
    cores — via the ``live_feed_*`` fixture pair — while the rest of
    the obs package (per-scrape rendering, CLI) stays exempt.
    """

    LIVE = "src/repro/obs/live.py"
    BAD_FIXTURE = FIXTURES / "live_feed_leaky.py"
    CLEAN_FIXTURE = FIXTURES / "live_feed_clean.py"

    def test_leaky_fixture_flagged_by_both_rules(self):
        findings = lint_source(self.BAD_FIXTURE.read_text(), self.LIVE)
        assert codes(findings) == {"RL011", "RL012"}
        rl012 = [f for f in findings if f.rule == "RL012"]
        # one Job(...) ctor, one attribute-gather comprehension
        assert {f.symbol for f in rl012} == {"Job", "_handle_start"}

    def test_leaky_fixture_non_hot_section_passes(self):
        """render_snapshot allocates per row but runs per scrape."""
        findings = lint_source(self.BAD_FIXTURE.read_text(), self.LIVE)
        assert all("render_snapshot" not in f.message for f in findings)

    def test_clean_fixture_passes(self):
        assert lint_source(self.CLEAN_FIXTURE.read_text(), self.LIVE) == []

    def test_other_obs_files_not_policed(self):
        src = "def _handle_release(self, attrs):\n    print(attrs)\n"
        assert lint_source(src, "src/repro/obs/top.py") == []
        assert lint_source(src, "src/repro/obs/cli.py") == []

    def test_shipped_live_module_is_clean(self):
        path = REPO_ROOT / "src/repro/obs/live.py"
        findings = lint_source(path.read_text(), str(path))
        assert findings == [], f"live.py: {findings}"


# ---------------------------------------------------------------------------
# Suppressions, baseline, runner
# ---------------------------------------------------------------------------


#: A one-finding module: RL005, a scheduler ``reset()`` without
#: ``super().reset()`` (line 5), on any path.
FORGETFUL_SRC = (
    "from repro.schedulers.base import OnlineScheduler\n\n\n"
    "class Forgetful(OnlineScheduler):\n"
    "    def reset(self):{comment}\n"
    "        self.items = []\n"
)


def forgetful(comment: str = "") -> str:
    return FORGETFUL_SRC.format(comment=comment)


class TestSuppression:
    def test_inline_ignore(self):
        src = forgetful("  # lint: ignore[RL005]")
        assert lint_source(src, "x.py") == []

    def test_noqa_spelling(self):
        src = forgetful("  # noqa: RL005")
        assert lint_source(src, "x.py") == []

    def test_wrong_code_does_not_suppress(self):
        src = forgetful("  # lint: ignore[RL001]")
        assert codes(lint_source(src, "x.py")) == {"RL005"}


class TestBaseline:
    def test_round_trip_and_filter(self, tmp_path):
        findings = lint_source(forgetful(), "x.py")
        assert findings
        base = Baseline.from_findings(findings)
        path = tmp_path / "baseline.json"
        write_baseline(base, path)
        loaded = load_baseline(path)
        fresh, absorbed = loaded.filter(findings)
        assert fresh == [] and absorbed == 1

    def test_missing_file_is_empty(self, tmp_path):
        base = load_baseline(tmp_path / "nope.json")
        findings = lint_source(forgetful(), "x.py")
        fresh, absorbed = base.filter(findings)
        assert len(fresh) == 1 and absorbed == 0

    def test_bad_version_rejected(self, tmp_path):
        p = tmp_path / "baseline.json"
        p.write_text(json.dumps({"version": 99, "findings": {}}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(p)


class TestRunner:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([bad])
        assert not report.clean
        assert codes(report.findings) == {"RL000"}

    def test_shipped_package_is_clean(self):
        report = lint_paths([default_target()])
        assert report.clean, report.render()

    def test_json_rendering(self, tmp_path):
        f = tmp_path / "m.py"
        f.write_text(forgetful())
        report = lint_paths([f])
        data = json.loads(report.render_json())
        assert data["findings"][0]["rule"] == "RL005"


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
        proc = _run_cli(str(LEAKY), "--no-baseline")
        assert proc.returncode == 1
        assert "RL001" in proc.stdout

    def test_exits_zero_on_clean_fixture(self):
        proc = _run_cli(str(CLEAN), "--no-baseline")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_exits_zero_on_shipped_suite(self):
        proc = _run_cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_select_restricts_rules(self):
        # The leaky fixture only violates RL001; selecting RL005 passes it.
        proc = _run_cli(str(LEAKY), "--no-baseline", "--select", "RL005")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_list_rules(self):
        proc = _run_cli("--list-rules")
        assert proc.returncode == 0
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005"):
            assert code in proc.stdout


# ---------------------------------------------------------------------------
# Static rule ↔ runtime guard agreement (the cross-validation contract)
# ---------------------------------------------------------------------------


@pytest.fixture
def two_jobs() -> Instance:
    return Instance.from_triples([(0, 2, 1), (0, 2, 3)], name="guard-probe")


class TestStaticDynamicAgreement:
    def test_leaky_flagged_statically(self):
        report = lint_paths([LEAKY])
        assert "RL001" in codes(report.findings)

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
    """``repro/serve`` is inside the RL011/RL012 hot-path scope: the
    daemon speaks JSONL on sockets, so stray prints corrupt the protocol
    stream and per-op allocation churn sits on the serving hot loop."""

    def test_print_in_serve_daemon_flagged(self):
        src = "def _route(self, op, conn):\n    print(op)\n"
        assert "RL011" in codes(lint_source(src, "src/repro/serve/daemon.py"))

    def test_logging_in_serve_session_flagged(self):
        src = textwrap.dedent(
            """
            import logging

            def dispatch(ev):
                logging.info("op %s", ev)
            """
        )
        assert codes(lint_source(src, "src/repro/serve/session.py")) == {
            "RL011"
        }

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
