"""Decision-provenance narratives: every instrumented scheduler's starts
must be attributed to a paper rule, and the rebuilt schedule must audit."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import Instance
from repro.core.engine import simulate
from repro.obs import DECISION_RULES, TraceRecorder, decision_vocabulary, explain_trace
from repro.schedulers import make_scheduler
from repro.workloads import WorkloadSpec, generate

INSTRUMENTED = ["batch", "batch+", "cdb", "profit", "epoch-batch"]


def run_with_trace(name: str, *, n: int = 12, seed: int = 3) -> TraceRecorder:
    spec = WorkloadSpec(n=n, laxity_scale=2.0, length_high=10.0)
    inst = generate(spec, seed=seed)
    sched = make_scheduler(name)
    rec = TraceRecorder()
    simulate(
        sched, inst, clairvoyant=type(sched).requires_clairvoyance, recorder=rec
    )
    return rec


class TestInstrumentedSchedulers:
    @pytest.mark.parametrize("name", INSTRUMENTED)
    def test_every_start_attributed_to_a_paper_rule(self, name):
        rec = run_with_trace(name)
        explanation = explain_trace(rec)
        assert len(explanation.stories) == 12
        assert explanation.fully_attributed, (
            f"{name}: {explanation.unattributed} unattributed starts"
        )
        for story in explanation.stories:
            assert story.start is not None
            assert story.start_rule in DECISION_RULES

    @pytest.mark.parametrize("name", INSTRUMENTED)
    def test_rebuilt_schedule_audits_feasible(self, name):
        explanation = explain_trace(run_with_trace(name))
        assert explanation.audit_feasible is True
        assert explanation.audit_notes == []

    def test_cdb_reports_routing_and_category_label(self):
        explanation = explain_trace(run_with_trace("cdb"))
        routed = [s for s in explanation.stories if s.routing is not None]
        assert len(routed) == len(explanation.stories)
        for story in routed:
            assert story.routing.attrs["scheduler"] == "cdb"
            assert "category" in story.routing.attrs
            # the actual start rule comes from a per-category Batch+
            start = next(
                d for d in reversed(story.decisions) if d.name == story.start_rule
            )
            assert start.attrs["scheduler"].startswith("cdb/cat")

    def test_epoch_batch_uses_epoch_vocabulary(self):
        explanation = explain_trace(run_with_trace("epoch-batch"))
        rules = {s.start_rule for s in explanation.stories}
        assert rules <= {"epoch", "deadline-backstop"}

    def test_every_vocabulary_rule_is_emitted(self):
        # The vocabulary is closed in both directions: a start under a rule
        # outside it fails the attribution test above, and a rule that no
        # scheduler emits any more fails here.
        recs = [run_with_trace(name) for name in INSTRUMENTED]
        # A starting deadline strictly before the first epoch: EpochBatch's
        # per-job backstop.
        backstop = TraceRecorder()
        simulate(
            make_scheduler("epoch-batch"),
            Instance.from_triples([(0.2, 0.3, 1.0)]),
            recorder=backstop,
        )
        recs.append(backstop)
        emitted = {r.name for rec in recs for r in rec.records if r.kind == "decision"}
        assert emitted == set(DECISION_RULES)

    def test_stories_reconstruct_windows_and_lengths(self):
        explanation = explain_trace(run_with_trace("batch"))
        for story in explanation.stories:
            assert story.arrival is not None
            assert story.deadline is not None and story.deadline >= story.arrival
            assert story.length is not None and story.length > 0
            assert story.completion == pytest.approx(story.start + story.length)


class TestUninstrumentedSchedulers:
    def test_eager_starts_are_honestly_unattributed(self):
        explanation = explain_trace(run_with_trace("eager"))
        assert not explanation.fully_attributed
        assert explanation.attributed == 0
        assert explanation.unattributed == len(explanation.stories)
        # the audit cross-check still runs on the rebuilt schedule
        assert explanation.audit_feasible is True
        assert "UNATTRIBUTED" in explanation.render()


class TestNarrative:
    def test_narrative_names_rule_and_scheduler(self):
        explanation = explain_trace(run_with_trace("batch+"))
        text = explanation.render()
        assert "attributed" in text
        assert "audit     : feasible" in text
        assert any(
            rule in text for rule in ("deadline-flag", "batch-start", "open-phase")
        )
        assert "[batch+]" in text

    def test_render_limit_truncates(self):
        explanation = explain_trace(run_with_trace("batch"))
        text = explanation.render(limit=2)
        assert "more jobs" in text

    def test_empty_trace_explains_nothing(self):
        explanation = explain_trace(TraceRecorder())
        assert explanation.stories == []
        assert explanation.audit_feasible is None


class TestVocabulary:
    """``repro obs explain --strict`` rejects a start attributed to a rule
    outside the closed ``DECISION_RULES`` vocabulary."""

    def test_vocabulary_matches_obs_export(self):
        vocab = decision_vocabulary()
        assert vocab == frozenset(DECISION_RULES)
        assert len(vocab) == 7
        assert "deadline-backstop" in vocab

    def test_explain_trace_flags_unknown_rule(self):
        rec = TraceRecorder()
        rec.decision("panic-start", job=0, t=0.0, scheduler="rogue")
        exp = explain_trace(rec)
        assert exp.unknown_rules == {"panic-start": 1}
        assert not exp.vocabulary_clean

    def test_strict_cli_rejects_out_of_vocabulary_reason(self, tmp_path):
        inst = Instance.from_triples([(0, 2, 1), (0, 2, 3), (1, 3, 2)], name="vocab")
        rec = TraceRecorder()
        simulate(make_scheduler("batch"), inst, recorder=rec)
        clean = tmp_path / "clean.jsonl"
        rec.write_jsonl(clean)
        # Rename a real decision record, so the start stays attributed
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
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))

        def run(trace: Path) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", "repro", "obs", "explain", str(trace), "--strict"],
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
