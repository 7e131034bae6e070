"""TenantSession semantics: apply, output records, failure containment."""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.engine import simulate
from repro.core.errors import SimulationError
from repro.core.job import Instance
from repro.obs import TenantTelemetry, TraceRecorder
from repro.obs.records import DECISION_RULES
from repro.schedulers.registry import make_scheduler, scheduler_names
from repro.serve.protocol import ProtocolError
from repro.serve.session import TenantSession


def job_op(tenant, job_id, arrival, deadline, length, **extra):
    op = {
        "op": "job", "tenant": tenant, "id": job_id, "arrival": arrival,
        "deadline": deadline, "length": length,
    }
    op.update(extra)
    return op


def drive(session, jobs, close=True):
    """Feed (arrival, deadline, length) triples; return all outputs."""
    outs = list(session.hello())
    for i, (a, d, p) in enumerate(jobs):
        outs += session.apply(job_op(session.tenant, i, a, d, p))
    if close:
        outs += session.apply({"op": "close", "tenant": session.tenant})
    return outs


class TestSessionBasics:
    def test_hello_record(self):
        session = TenantSession("t1")
        outs = session.hello()
        assert outs == [
            {
                "kind": "serve.open", "tenant": "t1", "scheduler": "batch+",
                "clairvoyant": False,
            }
        ]

    def test_params_forwarded_and_reported(self):
        session = TenantSession("t1", scheduler="cdb", params={"alpha": 2.0})
        (rec,) = session.hello()
        assert rec["scheduler"] == "cdb"
        assert rec["params"] == {"alpha": 2.0}

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ProtocolError):
            TenantSession("t1", scheduler="no-such-algorithm")

    def test_bad_params_rejected(self):
        with pytest.raises(ProtocolError, match="bad scheduler params"):
            TenantSession("t1", scheduler="cdb", params={"wat": 1})

    def test_full_stream_output_kinds(self):
        session = TenantSession("t1")
        outs = drive(session, [(0, 2, 1), (0.5, 1, 3)])
        kinds = [o["kind"] for o in outs]
        assert kinds[0] == "serve.open"
        assert kinds[-1] == "serve.closed"
        assert "start" in kinds and "complete" in kinds
        assert "decision" in kinds
        assert all(o["tenant"] == "t1" for o in outs)
        assert session.closed and session.result is not None

    def test_decisions_use_closed_vocabulary(self):
        session = TenantSession("t1")
        outs = drive(session, [(0, 2, 1), (0.5, 1.5, 3), (4, 5, 2)])
        rules = {o["rule"] for o in outs if o["kind"] == "decision"}
        assert rules  # batch+ always explains its starts
        assert rules <= set(DECISION_RULES)

    def test_closed_record_matches_batch_span(self):
        inst = Instance.from_triples([(0, 2, 1), (0.5, 1, 3), (4, 1, 2)])
        batch = simulate(make_scheduler("batch+"), inst)
        session = TenantSession("t1")
        outs = drive(
            session, [(j.arrival, j.deadline, j.length) for j in inst.jobs]
        )
        closed = outs[-1]
        assert closed["span"] == batch.span
        assert closed["jobs"] == len(inst.jobs)
        starts = {o["job"]: o["t"] for o in outs if o["kind"] == "start"}
        assert starts == batch.schedule.starts()

    def test_advance_op_flushes_due_events(self):
        session = TenantSession("t1")
        session.hello()
        session.apply(job_op("t1", 0, 0.0, 2.0, 1.0))
        outs = session.apply({"op": "advance", "tenant": "t1", "t": 10.0})
        assert {o["kind"] for o in outs} >= {"start", "complete"}
        assert session.clock == 10.0

    def test_emitted_counts_every_output(self):
        session = TenantSession("t1")
        outs = drive(session, [(0, 2, 1)])
        assert session.emitted == len(outs)


class TestQuietHotPath:
    """Engine runs, schedulers, served sessions and their live telemetry
    write nothing to stdout, stderr or ``logging``: a stray line would
    interleave with the stdio protocol stream, and per-event output
    belongs in the recorder."""

    JOBS = [(0, 2, 1), (0, 4, 3), (1, 3, 2), (2, 9, 1), (5, 6, 4), (5, 5, 2)]

    @pytest.mark.parametrize("name", scheduler_names())
    def test_runs_and_sessions_write_no_output(self, name, capfd, caplog):
        caplog.set_level(logging.DEBUG)
        inst = Instance.from_triples([(a, d - a, p) for a, d, p in self.JOBS])
        clairvoyant = make_scheduler(name).requires_clairvoyance
        simulate(make_scheduler(name), inst, clairvoyant=clairvoyant)
        simulate(
            make_scheduler(name), inst, clairvoyant=clairvoyant,
            recorder=TraceRecorder(),
        )
        session = TenantSession(
            "quiet", scheduler=name, telemetry=TenantTelemetry("quiet"), trace=True
        )
        assert drive(session, self.JOBS)
        assert capfd.readouterr() == ("", "")
        assert caplog.records == []


class TestSessionFailureContainment:
    def test_past_arrival_rejected_session_live(self):
        session = TenantSession("t1")
        session.hello()
        session.apply({"op": "advance", "tenant": "t1", "t": 5.0})
        with pytest.raises(SimulationError, match="past"):
            session.apply(job_op("t1", 0, 1.0, 3.0, 1.0))
        assert session.failed is None
        # The session still accepts future work.
        outs = session.apply(job_op("t1", 1, 6.0, 8.0, 1.0))
        assert isinstance(outs, list)

    def test_past_advance_rejected_session_live(self):
        session = TenantSession("t1")
        session.hello()
        session.apply({"op": "advance", "tenant": "t1", "t": 5.0})
        with pytest.raises(SimulationError, match="in the past"):
            session.apply({"op": "advance", "tenant": "t1", "t": 2.0})
        assert session.failed is None

    def test_duplicate_job_id_rejected_session_live(self):
        session = TenantSession("t1")
        session.hello()
        session.apply(job_op("t1", 7, 0.0, 2.0, 1.0))
        with pytest.raises(SimulationError, match="duplicate"):
            session.apply(job_op("t1", 7, 0.5, 2.0, 1.0))
        assert session.failed is None

    def test_bad_job_fields_rejected_before_engine(self):
        session = TenantSession("t1")
        session.hello()
        with pytest.raises(ProtocolError):
            session.apply(job_op("t1", 0, 0.0, 2.0, -1.0))
        assert session.failed is None
        assert session.input_log == []  # nothing was applied

    def test_close_twice_rejected(self):
        session = TenantSession("t1")
        drive(session, [(0, 2, 1)])
        with pytest.raises(ProtocolError, match="already closed"):
            session.apply({"op": "close", "tenant": "t1"})

    def test_non_stream_op_rejected(self):
        session = TenantSession("t1")
        session.hello()
        with pytest.raises(ProtocolError, match="not a stream op"):
            session.apply({"op": "stats"})

    def test_job_id_beyond_int64_rejected_session_live(self):
        session = TenantSession("t1")
        session.hello()
        with pytest.raises(SimulationError, match="int64"):
            session.apply(job_op("t1", 2**64, 0.0, 1.0, 1.0))
        assert session.failed is None
        session.apply(job_op("t1", 1, 0.0, 1.0, 1.0))
        assert session.input_log == [job_op("t1", 1, 0.0, 1.0, 1.0)]

    def test_mid_dispatch_failure_poisons(self, monkeypatch):
        session = TenantSession("t1")
        session.hello()

        def boom(until, *, inclusive=True):
            raise RuntimeError("scheduler exploded")

        monkeypatch.setattr(session.sim, "advance", boom)
        with pytest.raises(RuntimeError):
            session.apply(job_op("t1", 0, 1.0, 3.0, 1.0))
        assert session.failed == "RuntimeError: scheduler exploded"
        with pytest.raises(SimulationError, match="failed earlier"):
            session.apply(job_op("t1", 1, 2.0, 4.0, 1.0))


class TestSessionTrace:
    def test_trace_reconciles_under_strict_explain(self, tmp_path):
        session = TenantSession("t1", trace=True)
        drive(session, [(0, 2, 1), (0.5, 1.5, 3), (4, 5, 2)])
        path = session.write_trace(tmp_path)
        assert main(["obs", "explain", path, "--strict"]) == 0

    def test_trace_meta_identifies_session(self, tmp_path):
        from repro.obs import read_jsonl

        session = TenantSession("t9", scheduler="batch", trace=True)
        drive(session, [(0, 2, 1)])
        loaded = read_jsonl(session.write_trace(tmp_path))
        assert loaded.meta["tenant"] == "t9"
        assert loaded.meta["scheduler"] == "batch"
        assert loaded.meta["command"] == "serve"


class TestSessionCohortParity:
    def test_same_time_jobs_fed_line_by_line_batch_identically(self):
        inst = Instance.from_triples(
            [(0, 4, 3), (0, 4, 2), (0, 4, 3), (3, 4, 1)]
        )
        batch = simulate(make_scheduler("batch+"), inst)
        session = TenantSession("t1")
        outs = drive(
            session, [(j.arrival, j.deadline, j.length) for j in inst.jobs]
        )
        starts = {o["job"]: o["t"] for o in outs if o["kind"] == "start"}
        assert starts == batch.schedule.starts()


class TestSessionRecordCap:
    def test_capped_trace_never_truncates_output(self, monkeypatch):
        """A trace that reaches its record cap drops trace records only:
        the session still emits exactly what an uncapped one emits."""
        import random

        from repro.obs.recorder import TraceRecorder
        from repro.serve import session as session_module

        rng = random.Random(3)
        inst = Instance.from_triples(
            [(i * 1.5 + rng.uniform(0, 1), rng.uniform(0, 4), rng.uniform(0.5, 3))
             for i in range(60)]
        )
        jobs = [(j.arrival, j.deadline, j.length) for j in inst.jobs]
        reference = drive(TenantSession("t1", trace=True), jobs)

        monkeypatch.setattr(
            session_module, "TraceRecorder",
            lambda **kwargs: TraceRecorder(max_records=50, **kwargs),
        )
        capped = TenantSession("t1", trace=True)
        outs = drive(capped, jobs)
        assert capped.recorder is not None
        assert capped.recorder.metrics.counters["obs.records_dropped"] > 0
        assert len(outs) > 50
        assert outs == reference
        batch = simulate(make_scheduler("batch+"), inst)
        assert outs[-1]["kind"] == "serve.closed"
        assert outs[-1]["span"] == batch.span


class TestSessionWithoutTrace:
    def test_untraced_session_keeps_no_records(self, tmp_path):
        traced = TenantSession("t1", trace=True)
        untraced = TenantSession("t1")
        jobs = [(0, 2, 1), (0.5, 1.5, 3), (4, 5, 2)]
        assert drive(untraced, jobs) == drive(traced, jobs)
        assert untraced.recorder is None
        with pytest.raises(RuntimeError, match="keeps no trace"):
            untraced.write_trace(tmp_path)
        assert list(tmp_path.iterdir()) == []


def without_wall_clock(row):
    """A trace row without its wall-clock fields (``ts``, ``wall_s``,
    wall-time histograms other than their counts)."""
    row = dict(row)
    row.pop("ts", None)
    if "attrs" in row:
        row["attrs"] = {k: v for k, v in row["attrs"].items() if k != "wall_s"}
    if row["kind"] == "metrics":
        hists = row["data"]["histograms"]
        for name, hist in hists.items():
            if name.startswith("span."):
                hists[name] = hist["count"]
    return row


def trace_lines(path):
    """A written trace's rows without their wall-clock fields."""
    with open(path, encoding="utf-8") as fh:
        return [without_wall_clock(json.loads(line)) for line in fh]


JOBS = [(0.5 * i, 0.5 * i + 1.0 + i % 3, 1.0 + i % 2) for i in range(12)]


class TestStreamedTrace:
    def one_shot(self, tmp_path):
        session = TenantSession("t1", trace=True)
        drive(session, JOBS)
        return trace_lines(session.write_trace(tmp_path / "one-shot"))

    def test_part_file_until_close_then_final_name(self, tmp_path):
        session = TenantSession("t1", trace=True)
        drive(session, JOBS[:4], close=False)
        part = session.flush_trace(tmp_path)
        assert part == str(tmp_path / "t1.trace.jsonl.part")
        assert session.recorder.records == []
        assert not (tmp_path / "t1.trace.jsonl").exists()
        with open(part, encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert first == {
            "kind": "meta", "version": 1, "tool": "repro.obs",
            "command": "serve", "tenant": "t1", "scheduler": "batch+",
        }
        for i, (a, d, p) in enumerate(JOBS[4:], start=4):
            session.apply(job_op("t1", i, a, d, p))
        session.apply({"op": "close", "tenant": "t1"})
        final = session.write_trace(tmp_path)
        assert final == str(tmp_path / "t1.trace.jsonl")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "t1.trace.jsonl"
        ]
        assert trace_lines(final) == self.one_shot(tmp_path)
        assert main(["obs", "explain", final, "--strict"]) == 0

    def test_first_flush_truncates_a_stale_part_file(self, tmp_path):
        part = tmp_path / "t1.trace.jsonl.part"
        part.write_text('{"kind": "instant", "stale": true}\n' * 50)
        session = TenantSession("t1", trace=True)
        drive(session, JOBS)
        assert trace_lines(session.write_trace(tmp_path)) == self.one_shot(
            tmp_path
        )

    def test_failed_flush_leaves_the_last_complete_line(
        self, tmp_path, monkeypatch
    ):
        """A flush whose write tears is cut back to the last complete
        line, and its records go out with the next flush."""
        session = TenantSession("t1", trace=True)
        drive(session, JOBS[:4], close=False)
        part = Path(session.flush_trace(tmp_path))
        before = part.read_bytes()
        for i, (a, d, p) in enumerate(JOBS[4:8], start=4):
            session.apply(job_op("t1", i, a, d, p))
        held = list(session.recorder.records)
        real_write = os.write

        def torn(fd, data):
            real_write(fd, data[: len(data) // 2])
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", torn)
            with pytest.raises(OSError, match="disk full"):
                session.flush_trace(tmp_path)
        assert part.read_bytes() == before
        assert session.recorder.records == held
        session.flush_trace(tmp_path)
        for i, (a, d, p) in enumerate(JOBS[8:], start=8):
            session.apply(job_op("t1", i, a, d, p))
        session.apply({"op": "close", "tenant": "t1"})
        final = session.write_trace(tmp_path)
        assert trace_lines(final) == self.one_shot(tmp_path)

    def test_record_cap_bounds_the_held_records_not_the_file(self, tmp_path):
        session = TenantSession("t1", trace=True)
        session.recorder.max_records = 20
        session.hello()
        for i, (a, d, p) in enumerate(JOBS):
            session.apply(job_op("t1", i, a, d, p))
            if i % 3 == 2:
                session.flush_trace(tmp_path)
        session.apply({"op": "close", "tenant": "t1"})
        rows = trace_lines(session.write_trace(tmp_path))
        assert rows == self.one_shot(tmp_path)
        assert len(rows) > 2 * 20
        counters = rows[-1]["data"]["counters"]
        assert "obs.records_dropped" not in counters

    def test_restored_session_rewrites_its_part_file(self, tmp_path):
        from repro.serve.checkpoint import restore_session, save_checkpoint

        session = TenantSession("t1", trace=True)
        drive(session, JOBS[:6], close=False)
        session.flush_trace(tmp_path / "traces")
        path = save_checkpoint(session, tmp_path / "ckpt")
        restored = restore_session(path, trace=True)
        assert restored.trace_file is None  # nothing written this run
        for i, (a, d, p) in enumerate(JOBS[6:], start=6):
            restored.apply(job_op("t1", i, a, d, p))
        restored.flush_trace(tmp_path / "traces")
        restored.apply({"op": "close", "tenant": "t1"})
        final = restored.write_trace(tmp_path / "traces")
        assert trace_lines(final) == self.one_shot(tmp_path)

    def test_closed_session_reuses_its_published_trace(self, tmp_path):
        from repro.serve.checkpoint import restore_session, save_checkpoint

        session = TenantSession("t1", trace=True)
        drive(session, JOBS)
        final = Path(session.write_trace(tmp_path / "traces"))
        published = final.read_bytes()
        path = save_checkpoint(session, tmp_path / "ckpt")
        restored = restore_session(path, trace=True)
        restored.reuse_trace(tmp_path / "traces")
        assert restored.recorder.records == []
        assert final.read_bytes() == published
        assert restored.trace_file == final
        # Its rows now come off the published file (meta and metrics
        # lines excluded).
        assert [without_wall_clock(r) for r in restored.trace_rows()] == (
            trace_lines(final)[1:-1]
        )
        # A missing final file is written from the replay.
        final.unlink()
        again = restore_session(path, trace=True)
        again.reuse_trace(tmp_path / "traces")
        assert again.recorder.records == []
        assert trace_lines(final) == self.one_shot(tmp_path)
