"""Per-tenant streaming sessions: one scheduler engine per tenant.

A :class:`TenantSession` wraps one
:class:`~repro.core.engine.Simulator` opened with
:meth:`~repro.core.engine.Simulator.start_stream` — the same columnar
core and event loop a batch run drains.  The daemon feeds it validated
protocol ops one at a time; :meth:`apply` advances the engine and
returns the output records (starts, decisions, completions) that op
produced, in engine order.

Output sink
-----------
The engine's recorder is the session's own sink, not a trace.  Each
start, completion and scheduler ``decision`` becomes its protocol
record the moment the engine reports it, and releases, starts,
completions and decisions feed the tenant's live
:class:`~repro.obs.live.TenantTelemetry` directly.  In the paper's
online model a start is final once made, so nothing about a served
record has to be kept.  Only a session opened with ``trace=True`` (the
daemon passes it when it has a ``--trace-dir``) also keeps a
:class:`~repro.obs.recorder.TraceRecorder`, as the sink's ``inner``
recorder: the recorder base passes every engine call on to it, so the
written trace is the one the engine would have recorded itself.

Streamed trace
--------------
A traced session keeps only the records it has not yet written.
:meth:`TenantSession.flush_trace` appends them to
``<tenant>.trace.jsonl.part`` (the daemon calls it at each checkpoint
cadence point) and :meth:`TenantSession.write_trace` appends the tail
and the metrics footer at close, fsyncs, and renames the file to
``<tenant>.trace.jsonl``, so the final name only ever holds a complete
trace.  A session's first flush truncates the ``.part`` file and writes
the meta header; a restored session replays its records, so its first
flush rewrites the file whole.  The rows equal a one-shot write of the
same records.  The trace's record cap therefore bounds the records a
session holds between flushes, not the trace file, and never the
served output.

Folding the past
----------------
After each ``job`` or ``advance`` op the session calls
:meth:`~repro.core.engine.Simulator.fold`.  At an idle instant (no job
pending or running) under a scheduler that declares ``foldable``, the
engine drops its completed rows and the scheduler its per-job history,
and the tenant's telemetry folds its past into a few numbers
(:meth:`~repro.obs.live.TenantTelemetry.fold`).  Served records, the
``serve.closed`` fields, telemetry snapshots and trace rows are
bit-identical to an unfolded session's, so what a session keeps follows
its live jobs, not its stream.  A closed session drops its engine and
scheduler as well: it keeps its counters, clock, span, event count,
trace file and trace recorder (epoch and metrics), which is what
``stats``, the telemetry and the drain's merged trace read.

Replayable by construction
--------------------------
The session counts its successfully applied ops (:attr:`ops`) and every
output record it has produced (:attr:`emitted`), and keeps an
**input-op log** of the ops its checkpoint journal does not hold yet.
Ops plus counter are the whole checkpoint: because the engine is
deterministic, replaying the logged ops through a fresh session
regenerates the exact same output records — so a restored session
simply *suppresses* the first ``emitted`` regenerated records (they
were already delivered before the crash) and emits the rest
bit-identically.  The replay feeds the tenant's telemetry like live ops
do.  No engine state is ever pickled; see :mod:`repro.serve.checkpoint`,
whose save empties the log once the journal holds its ops.  A session
opened with ``log_ops=False`` (the daemon without a checkpoint
directory) keeps no log at all.

Failure containment
-------------------
Op *validation* errors (bad job fields, arrival in the past, duplicate
ids) are raised before the engine mutates anything — the session stays
live and the daemon answers with a ``serve.error`` record.  An error
escaping mid-dispatch (e.g. a scheduler violating the FJS contract)
poisons the session: it is marked failed and rejects further ops, while
its op log still restores cleanly to the last successful op.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..core.engine import SimulationResult, Simulator
from ..core.errors import SimulationError
from ..core.job import Instance
from ..obs.jsonl import JSONL_VERSION
from ..obs.live import TenantTelemetry
from ..obs.recorder import Recorder, TraceRecorder
from ..schedulers.registry import make_scheduler
from .journal import append_jsonl
from .protocol import DEFAULT_SCHEDULER, ProtocolError, job_from_op

__all__ = ["TenantSession"]

#: Ops :meth:`TenantSession.apply` accepts (the stream-mutating subset).
_STREAM_OPS = frozenset({"job", "advance", "close"})


class _OutputSink(Recorder):
    """The session's engine recorder: protocol records and telemetry.

    Appends each start, completion and decision to :attr:`out` as its
    protocol record and feeds the tenant's telemetry handlers.  With the
    session's trace as ``inner``, every call then goes on to the base
    class, which passes it to the trace.  Without one the base is
    skipped: its default mapping would only build instants no one keeps.
    """

    enabled = True

    def __init__(
        self,
        tenant: str,
        telemetry: TenantTelemetry | None,
        trace: TraceRecorder | None,
    ) -> None:
        super().__init__(trace)
        self.tenant = tenant
        self.telemetry = telemetry
        #: Output records of the op being applied (the session swaps in
        #: a fresh list per op).
        self.out: list[dict[str, Any]] = []

    def released(
        self,
        t: float,
        jobs: Sequence[int],
        arrivals: Sequence[float],
        deadlines: Sequence[float],
        lengths: Sequence[float | None],
    ) -> None:
        telemetry = self.telemetry
        if telemetry is not None:
            for job, arrival, deadline, length in zip(
                jobs, arrivals, deadlines, lengths
            ):
                telemetry._handle_release(job, arrival, deadline, length)
        if self.inner is not None:
            super().released(t, jobs, arrivals, deadlines, lengths)

    def started(self, t: float, jobs: Sequence[int]) -> None:
        out = self.out
        tenant = self.tenant
        telemetry = self.telemetry
        for job in jobs:
            out.append({"kind": "start", "tenant": tenant, "job": job, "t": t})
            if telemetry is not None:
                telemetry._handle_start(job, t)
        if self.inner is not None:
            super().started(t, jobs)

    def completed(
        self, t: float, jobs: Sequence[int], lengths: Sequence[float | None]
    ) -> None:
        out = self.out
        tenant = self.tenant
        telemetry = self.telemetry
        for job, length in zip(jobs, lengths):
            out.append(
                {"kind": "complete", "tenant": tenant, "job": job, "t": t}
            )
            if telemetry is not None:
                telemetry._handle_completion(job, t, length)
        if self.inner is not None:
            super().completed(t, jobs, lengths)

    def decision(
        self, rule: str, *, job: int, t: float, scheduler: str, **attrs: Any
    ) -> None:
        self.out.append(
            {"kind": "decision", "tenant": self.tenant, "rule": rule,
             **attrs, "job": job, "t": t, "scheduler": scheduler}
        )
        if self.telemetry is not None:
            self.telemetry._handle_decision(rule)
        if self.inner is not None:
            super().decision(rule, job=job, t=t, scheduler=scheduler, **attrs)


class TenantSession:
    """One tenant's live scheduling stream.

    The engine is a streaming :class:`~repro.core.engine.Simulator`: the
    columnar core, fed one job per ``job`` op, with the session's output
    sink as its recorder (see the module docstring).

    Parameters
    ----------
    tenant:
        The tenant name (already validated by the protocol layer).
    scheduler:
        Registry name of the scheduler to run (default ``batch+``).
    params:
        Keyword arguments for the scheduler factory.
    suppress:
        Number of regenerated output records to swallow before emitting
        (checkpoint restore only — they were delivered pre-crash).
    telemetry:
        Live :class:`~repro.obs.live.TenantTelemetry` the sink feeds as
        the engine emits (``None``, the default, costs nothing — the
        daemon arms it when ``REPRO_TELEMETRY`` is on).
    trace:
        Keep a :class:`~repro.obs.recorder.TraceRecorder` as
        :attr:`recorder`, for :meth:`flush_trace` and :meth:`write_trace`
        (the daemon passes ``True`` when it has a ``--trace-dir``).
        Without it the session keeps no records at all.
    log_ops:
        Keep :attr:`input_log` for checkpoint saves (the daemon passes
        ``True`` when it has a ``--checkpoint-dir``).  Without it the
        session keeps no op log at all.
    """

    def __init__(
        self,
        tenant: str,
        *,
        scheduler: str = DEFAULT_SCHEDULER,
        params: dict[str, Any] | None = None,
        suppress: int = 0,
        telemetry: TenantTelemetry | None = None,
        trace: bool = False,
        log_ops: bool = True,
    ) -> None:
        self.tenant = tenant
        self.scheduler_name = scheduler
        self.params: dict[str, Any] = dict(params or {})
        try:
            sched = make_scheduler(scheduler, **self.params)
        except KeyError as exc:
            raise ProtocolError(str(exc), tenant=tenant) from None
        except TypeError as exc:
            raise ProtocolError(
                f"bad scheduler params for {scheduler!r}: {exc}", tenant=tenant
            ) from None
        self.clairvoyant = bool(
            getattr(type(sched), "requires_clairvoyance", False)
        )
        #: The session's trace (``None`` unless opened with ``trace=True``).
        self.recorder: TraceRecorder | None = (
            TraceRecorder(tag={"tenant": tenant}) if trace else None
        )
        self._sink = _OutputSink(tenant, telemetry, self.recorder)
        #: The streaming engine (``None`` once the session has closed).
        self.sim: Simulator | None = Simulator(
            sched,
            instance=Instance([], name=f"serve/{tenant}"),
            clairvoyant=self.clairvoyant,
            recorder=self._sink,
        )
        self.sim.start_stream()
        #: Successfully applied stream ops, in order, that the checkpoint
        #: journal does not hold yet (``None`` with ``log_ops=False``).
        self.input_log: list[dict[str, Any]] | None = [] if log_ops else None
        #: Successfully applied stream ops so far.
        self.ops = 0
        #: Jobs admitted so far.
        self.jobs = 0
        #: Output records generated so far (delivered + restore-suppressed).
        self.emitted = 0
        self._suppress = int(suppress)
        self.closed = False
        self.failed: str | None = None
        #: The closed stream's span and event count (``None`` until close).
        self.result: SimulationResult | None = None
        self._clock = 0.0
        #: Ops applied since the last checkpoint save or trace flush:
        #: the daemon's cadence counter.
        self.ops_since_checkpoint = 0
        #: The file holding the trace rows written so far (``None``
        #: until this session's first flush).
        self.trace_file: Path | None = None

    # ------------------------------------------------------------------- api
    @property
    def clock(self) -> float:
        """The tenant's logical (simulation) time."""
        sim = self.sim
        return self._clock if sim is None else sim.now

    def hello(self) -> list[dict[str, Any]]:
        """The session's opening output records (``serve.open``).

        Called exactly once, right after construction — kept out of
        ``__init__`` so restore suppression covers it like any other
        output record.
        """
        record: dict[str, Any] = {
            "kind": "serve.open",
            "tenant": self.tenant,
            "scheduler": self.scheduler_name,
            "clairvoyant": self.clairvoyant,
        }
        if self.params:
            record["params"] = dict(self.params)
        return self._deliver([record])

    def apply(self, op: dict[str, Any]) -> list[dict[str, Any]]:
        """Apply one validated stream op; return its new output records.

        Raises :class:`ProtocolError` or :class:`SimulationError` on a
        rejected op (session still live), re-raises and poisons the
        session on a mid-dispatch engine failure.
        """
        if self.failed is not None:
            raise SimulationError(
                f"tenant {self.tenant!r} stream failed earlier: {self.failed}"
            )
        if self.closed:
            raise ProtocolError(
                f"tenant {self.tenant!r} is already closed", tenant=self.tenant
            )
        kind = op.get("op")
        if kind not in _STREAM_OPS:
            raise ProtocolError(
                f"op {kind!r} is not a stream op", tenant=self.tenant
            )
        sim = self.sim
        assert sim is not None  # only a closed session drops it
        outs: list[dict[str, Any]] = []
        self._sink.out = outs  # the engine's records for this op land here
        if kind == "job":
            job = job_from_op(op)  # validation only; no engine mutation yet
            sim.feed([job])  # rejects past arrivals / duplicate ids
            self.jobs += 1
            # Exclusive advance: dispatch everything strictly before this
            # arrival, keeping the whole time-`a` cohort queued until the
            # stream moves past `a` — the batch engine's same-time order
            # (arrivals before deadlines) is preserved for jobs fed one
            # protocol line at a time.
            self._dispatch(sim, job.arrival, inclusive=False)
        elif kind == "advance":
            self._dispatch(sim, float(op["t"]), inclusive=True)
        else:  # close
            result = self._finish_dispatch(sim)
            self.closed = True
            # A closed tenant keeps only its summary.
            self._clock = sim.now
            self.sim = None
            self._sink.out = []
            self.result = result.summary(
                f"tenant {self.tenant!r} is closed: a closed session "
                "keeps its span and event count only"
            )
            outs.append(
                {
                    "kind": "serve.closed",
                    "tenant": self.tenant,
                    "span": result.span,
                    "jobs": self.jobs,
                    "events": result.events_processed,
                }
            )
        if self.input_log is not None:
            self.input_log.append(dict(op))
        self.ops += 1
        self.ops_since_checkpoint += 1
        return self._deliver(outs)

    # ----------------------------------------------------------------- trace
    def flush_trace(self, directory: "str | Path") -> str:
        """Append the records held since the last flush; returns the path.

        They go to ``<tenant>.trace.jsonl.part`` under ``directory``
        (see the module docstring), without an fsync: a restore
        regenerates an unfinished trace.  A write that fails leaves the
        file at its last complete line and keeps the records for the
        next flush.  Every flush of one session must go to the same
        ``directory``.
        """
        return self._flush_trace(Path(directory), final=False)

    def write_trace(self, directory: "str | Path") -> str:
        """Finish the session's trace; returns ``<tenant>.trace.jsonl``.

        Appends the records held since the last flush and the metrics
        footer, fsyncs, and renames the ``.part`` file to its final name.
        The trace of a *closed* session reconciles under
        ``repro obs explain --strict`` exactly like a batch run's.
        Raises ``RuntimeError`` on a session opened without
        ``trace=True``: it kept no records to write.
        """
        return self._flush_trace(Path(directory), final=True)

    def reuse_trace(self, directory: "str | Path") -> None:
        """Adopt a restored closed session's published trace.

        The daemon writes a closing session's trace before its closing
        checkpoint, so a session restored closed normally finds
        ``<tenant>.trace.jsonl`` on disk: it drops its replayed records
        and reads its rows from that file.  Only a missing file is
        written from the replay.
        """
        recorder = self._trace_recorder()
        path = Path(directory) / f"{self.tenant}.trace.jsonl"
        if path.exists():
            recorder.records = []
            self.trace_file = path
        else:
            self.write_trace(directory)

    def trace_rows(self, shift: float = 0.0) -> Iterator[dict[str, Any]]:
        """Every trace record as its JSONL row, ``ts`` moved by ``shift``.

        The rows written so far are read back from :attr:`trace_file`,
        then come the records still held, so a caller merging many
        sessions holds none of their traces whole.
        """
        if self.trace_file is not None:
            with self.trace_file.open(encoding="utf-8") as fh:
                for line in fh:
                    row = json.loads(line)
                    if row["kind"] not in ("meta", "metrics"):
                        row["ts"] += shift
                        yield row
        for record in self._trace_recorder().records:
            row = record.to_dict()
            row["ts"] += shift
            yield row

    def _trace_recorder(self) -> TraceRecorder:
        recorder = self.recorder
        if recorder is None:
            raise RuntimeError(
                f"tenant {self.tenant!r} keeps no trace "
                "(the session was opened with trace=False)"
            )
        return recorder

    def _flush_trace(self, directory: Path, *, final: bool) -> str:
        recorder = self._trace_recorder()
        path = directory / f"{self.tenant}.trace.jsonl"
        if self.trace_file == path:
            return str(path)  # finished: a closed session holds no records
        part = path.with_name(path.name + ".part")
        fresh = self.trace_file is None
        records, recorder.records = recorder.records, []
        rows = [record.to_dict() for record in records]
        if fresh:
            rows.insert(0, {
                "kind": "meta", "version": JSONL_VERSION, "tool": "repro.obs",
                "command": "serve", "tenant": self.tenant,
                "scheduler": self.scheduler_name,
            })
        if final:
            rows.append({"kind": "metrics", "data": recorder.metrics.to_dict()})
        try:
            append_jsonl(part, rows, fresh=fresh, sync=final)
        except Exception:
            recorder.records[:0] = records  # the next flush retries them
            raise
        self.trace_file = part
        self.ops_since_checkpoint = 0
        if final:
            os.replace(part, path)
            self.trace_file = path
        return str(self.trace_file)

    # ------------------------------------------------------------ checkpoint
    def checkpoint_state(
        self,
    ) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        """The session as ``(meta, rows)`` for the versioned JSONL sink.

        ``meta`` carries the session configuration plus the
        emitted-output counter; ``rows`` are the logged input ops, so
        the pair rebuilds the session by deterministic replay (see
        :meth:`restore`) while the log still holds every op: before the
        session's first save.
        """
        log = self.input_log
        if log is None:
            raise RuntimeError(
                f"tenant {self.tenant!r} keeps no op log "
                "(the session was opened with log_ops=False)"
            )
        meta: dict[str, Any] = {
            "tenant": self.tenant,
            "scheduler": self.scheduler_name,
            "emitted": self.emitted,
            "closed": self.closed,
            "clock": self.clock,
            "ops": self.ops,
        }
        if self.params:
            meta["params"] = dict(self.params)
        rows = [{"kind": "op", "data": dict(op)} for op in log]
        return meta, rows

    @classmethod
    def restore(
        cls,
        meta: dict[str, Any],
        ops: list[dict[str, Any]],
        *,
        telemetry: TenantTelemetry | None = None,
        trace: bool = False,
    ) -> "TenantSession":
        """Rebuild a session by replaying its checkpointed op log.

        The first ``meta["emitted"]`` regenerated output records are
        suppressed (already delivered before the crash); everything the
        restored session emits afterwards is bit-identical to what the
        uninterrupted session would have emitted.  The replay feeds
        ``telemetry`` and, with ``trace``, the session's trace, exactly
        as the uninterrupted session fed them.  It also logs every op
        again and writes no trace file, so the restored session's first
        save rewrites (compacts) its journal and its first flush
        rewrites its ``.part`` trace file.
        """
        emitted = int(meta.get("emitted", 0))
        session = cls(
            str(meta["tenant"]),
            scheduler=str(meta.get("scheduler", DEFAULT_SCHEDULER)),
            params=dict(meta.get("params") or {}),
            suppress=emitted,
            telemetry=telemetry,
            trace=trace,
        )
        session.hello()
        for op in ops:
            session.apply(dict(op))
        if session._suppress:
            raise ValueError(
                f"checkpoint inconsistent for tenant {meta['tenant']!r}: "
                f"{session._suppress} delivered output(s) were never "
                "regenerated by replay"
            )
        return session

    # -------------------------------------------------------------- internal
    def _dispatch(self, sim: Simulator, until: float, *, inclusive: bool) -> None:
        """Advance the engine and fold it (with the telemetry) if it is
        idle, poisoning the session on failure."""
        if until < sim.now:
            # Rejected before the engine touches anything: session live.
            raise SimulationError(
                f"advance({until:g}) is in the past "
                f"(tenant clock is at {sim.now:g})"
            )
        try:
            sim.advance(until, inclusive=inclusive)
            if sim.fold():
                telemetry = self._sink.telemetry
                if telemetry is not None:
                    telemetry.fold(sim.now)
        except Exception as exc:
            # Escaped mid-dispatch: engine state may be partial — poison.
            self.failed = f"{type(exc).__name__}: {exc}"
            raise

    def _finish_dispatch(self, sim: Simulator) -> SimulationResult:
        try:
            return sim.finish_stream()
        except Exception as exc:
            self.failed = f"{type(exc).__name__}: {exc}"
            raise

    def _deliver(self, outs: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Count generated outputs; swallow restore-suppressed ones."""
        self.emitted += len(outs)
        if self._suppress:
            consumed = min(self._suppress, len(outs))
            self._suppress -= consumed
            outs = outs[consumed:]
        return outs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "failed" if self.failed else "closed" if self.closed else "open"
        return (
            f"TenantSession({self.tenant!r}, {self.scheduler_name!r}, "
            f"{state}, t={self.clock:g}, ops={self.ops})"
        )
