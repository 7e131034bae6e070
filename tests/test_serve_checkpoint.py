"""Event-sourced checkpoints: save/restore determinism, pool fan-out."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core import Instance, Job, simulate
from repro.core.engine import Simulator
from repro.obs.jsonl import dump_jsonl, scan_jsonl
from repro.perf.parallel import ParallelRunner
from repro.schedulers.registry import make_scheduler
from repro.serve.checkpoint import (
    CHECKPOINT_SUFFIX,
    checkpoint_path,
    list_checkpoints,
    load_checkpoint,
    replay_summary,
    restore_all,
    restore_session,
    save_checkpoint,
    verify_checkpoints,
)
from repro.serve.session import TenantSession

JOBS = [
    (0, 0.0, 2.0, 1.0),
    (1, 0.5, 1.5, 3.0),
    (2, 4.0, 5.0, 2.0),
    (3, 6.0, 9.0, 1.0),
]


def job_op(tenant, job_id, arrival, deadline, length):
    return {
        "op": "job", "tenant": tenant, "id": job_id, "arrival": arrival,
        "deadline": deadline, "length": length,
    }


def job_ops(tenant="t1", upto=len(JOBS)):
    return [job_op(tenant, jid, a, d, p) for jid, a, d, p in JOBS[:upto]]


def run_session(tenant="t1", upto=len(JOBS), close=False, scheduler="batch+"):
    """A session with the first ``upto`` jobs applied; outputs collected."""
    session = TenantSession(tenant, scheduler=scheduler)
    outs = list(session.hello())
    for jid, a, d, p in JOBS[:upto]:
        outs += session.apply(job_op(tenant, jid, a, d, p))
    if close:
        outs += session.apply({"op": "close", "tenant": tenant})
    return session, outs


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        session, _ = run_session(upto=2)
        path = save_checkpoint(session, tmp_path)
        assert path == str(checkpoint_path(tmp_path, "t1"))
        meta, ops = load_checkpoint(path)
        assert meta["tenant"] == "t1"
        assert meta["scheduler"] == "batch+"
        assert meta["emitted"] == session.emitted
        assert meta["clock"] == session.clock
        assert meta["ops"] == session.ops == 2
        assert ops == job_ops(upto=2)
        assert session.input_log == []  # the journal holds them now

    def test_save_resets_cadence_counter(self, tmp_path):
        session, _ = run_session(upto=2)
        assert session.ops_since_checkpoint == 2
        save_checkpoint(session, tmp_path)
        assert session.ops_since_checkpoint == 0

    def test_restore_matches_original_state(self, tmp_path):
        session, _ = run_session(upto=3)
        path = save_checkpoint(session, tmp_path)
        restored = restore_session(path)
        assert restored.tenant == session.tenant
        assert restored.clock == session.clock
        assert restored.emitted == session.emitted
        assert restored.ops == session.ops == 3
        # The replay logs every journaled op again, for the first save.
        assert restored.input_log == load_checkpoint(path)[1] == job_ops(upto=3)
        assert not restored.closed

    def test_closed_session_restores_closed(self, tmp_path):
        session, _ = run_session(close=True)
        path = save_checkpoint(session, tmp_path)
        restored = restore_session(path)
        assert restored.closed
        assert restored.result is not None
        assert restored.result.span == session.result.span


class TestKillRestoreDeterminism:
    def test_remaining_outputs_bit_identical(self, tmp_path):
        """The acceptance criterion: restore emits exactly what the
        uninterrupted session would have emitted after the cut point."""
        full_session, full_outs = run_session(close=True)

        for cut in range(1, len(JOBS) + 1):
            crash_session, pre_outs = run_session(upto=cut)
            path = save_checkpoint(crash_session, tmp_path)
            # "Crash": drop the session object entirely; restore from disk.
            restored = restore_session(path)
            post_outs = []
            for jid, a, d, p in JOBS[cut:]:
                post_outs += restored.apply(job_op("t1", jid, a, d, p))
            post_outs += restored.apply({"op": "close", "tenant": "t1"})
            assert pre_outs + post_outs == full_outs, f"cut at {cut}"
            assert restored.result.span == full_session.result.span

    def test_no_duplicate_start_records_after_restore(self, tmp_path):
        _, full_outs = run_session(close=True)
        crash_session, pre_outs = run_session(upto=2)
        path = save_checkpoint(crash_session, tmp_path)
        restored = restore_session(path)
        post_outs = []
        for jid, a, d, p in JOBS[2:]:
            post_outs += restored.apply(job_op("t1", jid, a, d, p))
        post_outs += restored.apply({"op": "close", "tenant": "t1"})
        started = [o["job"] for o in pre_outs + post_outs if o["kind"] == "start"]
        assert sorted(started) == [0, 1, 2, 3]
        assert len(started) == len(set(started))  # no job started twice

    def test_restore_all(self, tmp_path):
        for tenant in ("alpha", "beta", "gamma"):
            session, _ = run_session(tenant=tenant, upto=2)
            save_checkpoint(session, tmp_path)
        sessions = restore_all(tmp_path)
        assert sorted(sessions) == ["alpha", "beta", "gamma"]
        assert all(s.clock > 0 for s in sessions.values())

    def test_list_checkpoints_sorted(self, tmp_path):
        for tenant in ("zeta", "alpha"):
            session, _ = run_session(tenant=tenant, upto=1)
            save_checkpoint(session, tmp_path)
        names = [p.name for p in list_checkpoints(tmp_path)]
        assert names == [
            f"alpha{CHECKPOINT_SUFFIX}", f"zeta{CHECKPOINT_SUFFIX}"
        ]
        assert list_checkpoints(tmp_path / "missing") == []


class TestVerifyCheckpoints:
    def _populate(self, tmp_path, n=4):
        for i in range(n):
            session, _ = run_session(
                tenant=f"t{i}", upto=2 + (i % 3), close=(i % 2 == 0)
            )
            save_checkpoint(session, tmp_path)

    def test_serial_and_pool_identical(self, tmp_path):
        self._populate(tmp_path)
        serial = verify_checkpoints(tmp_path, runner=ParallelRunner(workers=1))
        pooled = verify_checkpoints(tmp_path, runner=ParallelRunner(workers=2))
        assert serial == pooled
        assert [s["tenant"] for s in serial] == ["t0", "t1", "t2", "t3"]
        assert all("span" in s for s in serial if s["closed"])

    def test_empty_directory(self, tmp_path):
        assert verify_checkpoints(tmp_path) == []

    def test_tampered_meta_detected(self, tmp_path):
        session, _ = run_session(upto=2)
        path = save_checkpoint(session, tmp_path)
        meta, ops = load_checkpoint(path)
        meta["clock"] = meta["clock"] + 7.0  # stale/hand-edited meta
        meta.pop("version", None)
        rows = [{"kind": "op", "data": op} for op in ops]
        dump_jsonl(path, rows, **meta)
        with pytest.raises(ValueError, match="replay diverged"):
            verify_checkpoints(tmp_path, runner=ParallelRunner(workers=1))


class TestCorruptCheckpoints:
    def test_wrong_tool_rejected(self, tmp_path):
        path = tmp_path / f"t1{CHECKPOINT_SUFFIX}"
        dump_jsonl(path, [], tool="repro.obs", tenant="t1")
        with pytest.raises(ValueError, match="not a serve checkpoint"):
            load_checkpoint(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / f"t1{CHECKPOINT_SUFFIX}"
        dump_jsonl(
            path, [{"kind": "noise"}], tool="repro.serve", tenant="t1"
        )
        with pytest.raises(ValueError, match="malformed checkpoint row"):
            load_checkpoint(path)

    def test_truncated_ops_detected(self, tmp_path):
        session, _ = run_session(upto=3)
        path = save_checkpoint(session, tmp_path)
        # Drop the last op row without touching the meta header.
        from pathlib import Path

        p = Path(path)
        kept = p.read_text().splitlines()
        p.write_text("\n".join(kept[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated checkpoint"):
            load_checkpoint(p)

    def test_inflated_emitted_rejected_on_restore(self, tmp_path):
        session, _ = run_session(upto=2)
        path = save_checkpoint(session, tmp_path)
        meta, ops = load_checkpoint(path)
        meta["emitted"] = meta["emitted"] + 50  # claims undelivered records
        meta["ops"] = len(ops)
        meta.pop("version", None)
        rows = [{"kind": "op", "data": op} for op in ops]
        dump_jsonl(path, rows, **meta)
        with pytest.raises(ValueError, match="never\\s+regenerated"):
            restore_session(path)

    def test_checkpoint_file_is_versioned_jsonl(self, tmp_path):
        session, _ = run_session(upto=1)
        path = save_checkpoint(session, tmp_path)
        meta, rows = scan_jsonl(path)
        assert meta["version"] == 1
        assert meta["tool"] == "repro.serve"
        first = json.loads(open(path).readline())
        assert first["kind"] == "meta"


#: Ten jobs and a close, checkpointed at the daemon's cadence every
#: ``SAVE_EVERY`` ops and after the close: one rewrite, then three appends.
STREAM = [(i, 0.5 * i, 0.5 * i + 2.0 + i % 3, 1.0 + i % 2) for i in range(10)]
SAVE_EVERY = 3


def stream_ops(tenant="t1"):
    ops = [job_op(tenant, jid, a, d, p) for jid, a, d, p in STREAM]
    return ops + [{"op": "close", "tenant": tenant}]


def journaled(directory, ops):
    """Apply ``ops`` to a fresh session, saving as the daemon does.

    Returns the session, its outputs and one ``(bytes, ops, emitted)``
    triple per save: the file after the save and the counts it sealed.
    """
    session = TenantSession("t1")
    outs = list(session.hello())
    saves = []
    for op in ops:
        outs += session.apply(op)
        if op["op"] == "close" or session.ops_since_checkpoint >= SAVE_EVERY:
            path = save_checkpoint(session, directory)
            assert session.input_log == []  # sealed rows leave memory
            saves.append(
                (Path(path).read_bytes(), session.ops, session.emitted)
            )
    return session, outs, saves


class TestJournal:
    def test_each_save_appends_to_the_previous_file(self, tmp_path):
        _, _, saves = journaled(tmp_path, stream_ops())
        assert len(saves) == 4
        for (before, _, _), (after, _, _) in zip(saves, saves[1:]):
            assert len(after) > len(before)
            assert after.startswith(before)

    def test_cut_anywhere_in_the_last_append_restores_a_seal(self, tmp_path):
        """A crash mid-append leaves any prefix of it on disk: the load
        falls back to the previous seal until the closing mark row is
        complete, and restoring there and re-sending the rest rebuilds
        the uninterrupted session's outputs exactly."""
        ops = stream_ops()
        _, full_outs, saves = journaled(tmp_path / "run", ops)
        (before, *prev), (after, *last) = saves[-2:]
        path = tmp_path / f"t1{CHECKPOINT_SUFFIX}"
        for cut in range(len(before), len(after) + 1):
            path.write_bytes(after[:cut])
            # The mark row is complete once only its newline is missing.
            n, emitted = last if cut >= len(after) - 1 else prev
            meta, logged = load_checkpoint(path)
            assert (meta["ops"], meta["emitted"]) == (n, emitted), cut
            assert logged == ops[:n], cut
            restored = restore_session(path)
            post = []
            for op in ops[n:]:
                post += restored.apply(op)
            assert full_outs[:emitted] + post == full_outs, cut

    def test_restored_session_first_save_compacts(self, tmp_path):
        _, _, saves = journaled(tmp_path, stream_ops())
        (before, *_), (after, *_) = saves[-2:]
        path = tmp_path / f"t1{CHECKPOINT_SUFFIX}"
        path.write_bytes(after[: (len(before) + len(after)) // 2])
        restored = restore_session(path)
        replayed = list(restored.input_log)
        assert replayed == load_checkpoint(path)[1]
        save_checkpoint(restored, tmp_path)
        meta, rows = scan_jsonl(path)  # strict reader: no torn line
        assert meta["ops"] == restored.ops == len(replayed)
        assert rows == [{"kind": "op", "data": op} for op in replayed]
        assert restored.input_log == []

    def test_failed_append_is_cut_back_off(self, tmp_path, monkeypatch):
        """A save whose fsync fails leaves the file at its last seal, and
        the next save appends the same ops again."""
        ops = stream_ops()
        session = TenantSession("t1")
        session.hello()
        for op in ops[:4]:
            session.apply(op)
        path = Path(save_checkpoint(session, tmp_path))
        before = path.read_bytes()
        for op in ops[4:6]:
            session.apply(op)

        def disk_full(fd):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", disk_full)
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(session, tmp_path)
        assert path.read_bytes() == before
        assert session.input_log == ops[4:6]  # kept for the next save
        save_checkpoint(session, tmp_path)
        meta, logged = load_checkpoint(path)
        assert logged == ops[:6]
        assert meta["ops"] == session.ops == 6
        assert meta["emitted"] == session.emitted
        assert session.input_log == []

    def test_mark_disagreeing_with_its_rows_rejected(self, tmp_path):
        journaled(tmp_path, stream_ops())
        path = checkpoint_path(tmp_path, "t1")
        text = path.read_text()
        assert '"kind": "mark", "ops": 6,' in text
        path.write_text(
            text.replace('"kind": "mark", "ops": 6,', '"kind": "mark", "ops": 5,')
        )
        with pytest.raises(ValueError, match="mark declares 5 ops"):
            load_checkpoint(path)

    def test_bad_json_before_the_final_line_rejected(self, tmp_path):
        journaled(tmp_path, stream_ops())
        path = checkpoint_path(tmp_path, "t1")
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:10] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="invalid JSON"):
            load_checkpoint(path)

    def test_verify_checks_the_last_seal(self, tmp_path):
        journaled(tmp_path, stream_ops())
        path = checkpoint_path(tmp_path, "t1")
        text = path.read_text()
        summary, = verify_checkpoints(tmp_path, runner=ParallelRunner(workers=1))
        assert summary["closed"] and summary["ops"] == len(STREAM) + 1
        # A stale emitted count on the last mark is caught by replay.
        head, sep, tail = text.rpartition('"emitted": ')
        path.write_text(head + sep + "1" + tail[tail.index(","):])
        with pytest.raises(ValueError, match="replay diverged"):
            verify_checkpoints(tmp_path, runner=ParallelRunner(workers=1))


class TestFoldedCheckpoint:
    def test_replay_summary_of_a_folded_stream(self, tmp_path, monkeypatch):
        """``--verify-checkpoints`` summarises a stream that folded as it
        would have unfolded: jobs counted, span off the folded result."""
        jobs = [(i, 3.0 * i, 3.0 * i + 1.0, 1.0 + (i % 3)) for i in range(60)]
        session = TenantSession("t1")
        session.hello()
        for jid, a, d, p in jobs:
            session.apply(job_op("t1", jid, a, d, p))
        session.apply({"op": "close", "tenant": "t1"})
        path = save_checkpoint(session, tmp_path)
        folds = []
        real_fold = Simulator.fold

        def counting(self):
            folds.append(real_fold(self))
            return folds[-1]

        monkeypatch.setattr(Simulator, "fold", counting)
        summary = replay_summary(path)
        assert sum(folds) > len(jobs) // 2  # the replay folded
        batch = simulate(
            make_scheduler("batch+"),
            Instance([Job(id=j, arrival=a, deadline=d, length=p)
                      for j, a, d, p in jobs]),
        )
        assert summary == {
            "tenant": "t1",
            "scheduler": "batch+",
            "ops": len(jobs) + 1,
            "emitted": session.emitted,
            "clock": session.clock,
            "closed": True,
            "span": batch.span,
            "jobs": len(jobs),
        }
