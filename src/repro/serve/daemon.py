"""The asyncio scheduling daemon behind ``python -m repro serve``.

One process multiplexes many tenant scheduler streams.  Each tenant
gets a bounded input queue and a worker task applying its ops in order
(:class:`~repro.serve.session.TenantSession` is single-writer by
construction); each connection gets a bounded output queue and a writer
task.  The chain

    socket -> line reader -> tenant queue -> worker -> output queue
    -> writer -> socket

awaits at every hop, so a slow or stalled consumer exerts *backpressure*
all the way back to the client's TCP window instead of growing daemon
memory: no queue ever holds more than its bound, and the line reader
buffers at most one oversized line.

Shutdown is graceful by default: ``SIGTERM``/``SIGINT`` (or an in-band
``shutdown`` op) stops intake, applies every already-queued op, closes
every open session (forcing the engine's deadline backstops so every
admitted job starts — the drained traces reconcile under ``repro obs
explain --strict``), writes final checkpoints, flushes every output
queue, and exits.  A consumer that stops reading mid-drain is aborted
after ``drain_timeout`` seconds so the daemon always terminates; the
checkpoints are written *before* the output flush, so recovery never
depends on the consumer.  ``SIGKILL`` recovery rides the periodic
checkpoints instead: restart with ``--restore`` and every tenant replays
its op log, suppressing already-delivered outputs
(:mod:`repro.serve.checkpoint`).

Every ``checkpoint_interval`` ops a tenant persists what it holds, in
one worker-thread hop: the checkpoint save seals its op log into the
journal, and the trace flush appends its records to the tenant's
``.part`` trace file (:class:`~repro.serve.session.TenantSession`).  So
a served tenant keeps in memory only what is not yet on disk.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import os
import signal
import sys
import tempfile
import threading
from contextlib import ExitStack
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator

from ..obs.jsonl import dump_jsonl
from ..obs.live import LiveAggregator, TenantTelemetry, telemetry_enabled
from ..obs.metrics import MetricsRegistry
from ..schedulers.registry import scheduler_names
from .checkpoint import restore_all, save_checkpoint
from .protocol import (
    DEFAULT_SCHEDULER,
    ProtocolError,
    checkpoint_every,
    encode_record,
    error_record,
    max_line_bytes,
    parse_op,
    queue_size,
)
from .session import TenantSession
from .telemetry import TelemetryServer

__all__ = ["ServeDaemon", "write_merged_trace"]

#: File name of the merged multi-tenant trace written at drain.
MERGED_TRACE_NAME = "_daemon.trace.jsonl"

#: Protocol version stamped on ``serve.ready`` records.
PROTOCOL_VERSION = 1

_READ_CHUNK = 65536


class _LineFramer:
    """Bounded line framing over a raw :class:`asyncio.StreamReader`.

    Hand-rolled instead of ``StreamReader.readline`` so an oversized
    line is *dropped* (bounded memory, connection survives) rather than
    raising into the transport: the buffer never holds more than
    ``max_line`` + one read chunk, and bytes after the offending
    newline are preserved for the next call.
    """

    def __init__(self, reader: asyncio.StreamReader, max_line: int) -> None:
        self._reader = reader
        self._max_line = max_line
        self._buf = bytearray()

    async def next_line(self) -> tuple[bytes | None, bool]:
        """``(line, oversized)``; line is ``None`` at EOF.

        ``oversized=True`` means a line longer than the bound was
        discarded (the returned line is empty and must not be parsed).
        """
        while True:
            newline = self._buf.find(b"\n")
            if newline != -1:
                line = bytes(self._buf[:newline])
                del self._buf[: newline + 1]
                if len(line) > self._max_line:
                    return b"", True
                return line, False
            if len(self._buf) > self._max_line:
                dropped = await self._drop_to_newline()
                if not dropped:
                    return None, True  # EOF inside the oversized line
                return b"", True
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                if self._buf:
                    line = bytes(self._buf)
                    self._buf.clear()
                    if len(line) > self._max_line:
                        return None, True
                    return line, False
                return None, False
            self._buf.extend(chunk)

    async def _drop_to_newline(self) -> bool:
        """Discard buffered bytes up to the next newline; False at EOF."""
        while True:
            newline = self._buf.find(b"\n")
            if newline != -1:
                del self._buf[: newline + 1]
                return True
            self._buf.clear()
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                return False
            self._buf.extend(chunk)


class _Connection:
    """One client connection: bounded output queue + writer task."""

    def __init__(self, daemon: "ServeDaemon", writer: asyncio.StreamWriter) -> None:
        self._daemon = daemon
        self._writer = writer
        self.out: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue(
            daemon.queue_size
        )
        self.dead = False
        self.task: asyncio.Task[None] = asyncio.create_task(self._write_loop())

    async def emit(self, record: dict[str, Any]) -> None:
        """Enqueue one output record (awaits when the queue is full)."""
        await self.out.put(record)

    async def _write_loop(self) -> None:
        """Send everything queued per wake-up: one write, one drain.

        A batch is at most the queue's bound, so memory stays bounded;
        a ``None`` sentinel ends the loop after the records before it.
        """
        out = self.out
        while True:
            batch = [await out.get()]
            try:
                while batch[-1] is not None and not out.empty():
                    batch.append(out.get_nowait())
                records = [r for r in batch if r is not None]
                if records and not self.dead:
                    try:
                        self._writer.write(
                            b"".join([encode_record(r) for r in records])
                        )
                        await self._writer.drain()
                        self._daemon.records_out += len(records)
                    except (ConnectionError, OSError):
                        # Consumer went away: keep *consuming* the queue
                        # so workers blocked in emit() never deadlock.
                        self.dead = True
                if batch[-1] is None:
                    return
            finally:
                # Balanced even if drain() is cancelled mid-write, so a
                # pending out.join() can never hang on a lost credit.
                for _ in batch:
                    out.task_done()

    def abort(self) -> None:
        """Hard-stop a stalled consumer (drain watchdog)."""
        self.dead = True
        try:
            self._writer.transport.abort()
        except (RuntimeError, OSError):  # transport already gone
            pass

    async def finish(self) -> None:
        """Flush queued records and close the transport — but keep the
        writer task consuming.  Ops already routed with this connection
        may still be applied after the client leaves (e.g. the drain's
        synthetic close), and their ``emit()`` must never block on a
        queue nobody reads.  The daemon reaps the task at shutdown via
        :meth:`flush_and_close`."""
        await self.out.join()
        await self._close_transport()

    async def flush_and_close(self) -> None:
        """Write out everything queued, stop the writer, close."""
        await self.out.put(None)
        await self.task
        await self._close_transport()

    async def _close_transport(self) -> None:
        try:
            self._writer.close()
            # The stdio writer's FlowControlMixin protocol has no close
            # waiter; everything else awaits the final flush.
            await self._writer.wait_closed()
        except (ConnectionError, OSError, NotImplementedError):
            pass


class _TenantState:
    """One tenant's bounded op queue, worker task, and session."""

    def __init__(
        self,
        daemon: "ServeDaemon",
        name: str,
        session: TenantSession | None = None,
    ) -> None:
        self.name = name
        self.session = session
        self.queue: asyncio.Queue[
            tuple[dict[str, Any], _Connection | None] | None
        ] = asyncio.Queue(daemon.queue_size)
        self.last_conn: _Connection | None = None
        self.task: asyncio.Task[None] = asyncio.create_task(
            daemon._tenant_loop(self)
        )


class ServeDaemon:
    """The streaming scheduling daemon (see module docstring).

    Parameters
    ----------
    scheduler:
        Default scheduler for implicitly opened tenants.
    queue_size / max_line / checkpoint_interval:
        Override the ``REPRO_SERVE_*`` environment knobs.
    checkpoint_dir:
        Directory for per-tenant checkpoints (no checkpointing when
        ``None``).
    trace_dir:
        Directory closed tenants write their obs traces into (no traces
        when ``None``).
    restore:
        Restore every checkpointed tenant from ``checkpoint_dir`` before
        accepting connections.
    drain_timeout:
        Seconds a graceful drain waits for consumers before aborting
        stalled connections.
    telemetry:
        Arm the live per-tenant telemetry plane (``None`` defers to the
        ``REPRO_TELEMETRY`` knob, which defaults to on).
    telemetry_listen:
        ``(host, port)`` for the read-only telemetry listener
        (:class:`~repro.serve.telemetry.TelemetryServer`); ``None``
        means no listener.
    """

    def __init__(
        self,
        *,
        scheduler: str = DEFAULT_SCHEDULER,
        queue_size_override: int | None = None,
        max_line_override: int | None = None,
        checkpoint_interval: int | None = None,
        checkpoint_dir: "str | Path | None" = None,
        trace_dir: "str | Path | None" = None,
        restore: bool = False,
        drain_timeout: float = 30.0,
        telemetry: bool | None = None,
        telemetry_listen: tuple[str, int] | None = None,
    ) -> None:
        self.default_scheduler = scheduler
        self.queue_size = queue_size(queue_size_override)
        self.max_line = max_line_bytes(max_line_override)
        self.checkpoint_interval = checkpoint_every(checkpoint_interval)
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.restore = restore
        self.drain_timeout = drain_timeout
        #: Called with the bound address once the daemon is listening
        #: (the CLI prints it; the daemon itself never writes to stdio).
        self.on_ready: Callable[[str], None] | None = None

        armed = telemetry_enabled() if telemetry is None else telemetry
        #: Live telemetry plane (``None`` when disarmed — sessions then
        #: skip the per-record feed entirely).
        self.live: LiveAggregator | None = LiveAggregator() if armed else None
        self.telemetry_listen = telemetry_listen
        self.telemetry_server: TelemetryServer | None = None
        self.telemetry_address: str | None = None
        #: Loopwatch metrics registry merged into telemetry snapshots
        #: (the CLI sets this when ``REPRO_LOOPWATCH`` is armed).
        self.loop_metrics: MetricsRegistry | None = None

        self.tenants: dict[str, _TenantState] = {}
        self.connections: set[_Connection] = set()
        self.draining = False
        self.lines_in = 0
        self.records_out = 0
        self.errors = 0
        self._reader_tasks: set["asyncio.Task[Any]"] = set()
        #: Set once ``_prepare`` has restored checkpoints.  The server
        #: accepts connections before that (clients may connect as soon
        #: as the socket exists), but each one waits on this event before
        #: ``serve.ready`` — and so before reading its first op.
        self._prepared = asyncio.Event()
        self._shutdown_event: asyncio.Event | None = None
        self._signals: list[signal.Signals] = []

    # ------------------------------------------------------------ entrypoints
    async def run_unix(self, path: "str | Path") -> None:
        """Serve on a Unix domain socket until drained."""
        server = await asyncio.start_unix_server(
            self._on_connection, path=str(path), limit=self._reader_limit()
        )
        await self._run_with_server(server, f"unix:{path}")

    async def run_tcp(self, host: str, port: int) -> None:
        """Serve on a TCP socket until drained."""
        server = await asyncio.start_server(
            self._on_connection, host, port, limit=self._reader_limit()
        )
        sockets = server.sockets
        bound = sockets[0].getsockname() if sockets else (host, port)
        await self._run_with_server(server, f"tcp:{bound[0]}:{bound[1]}")

    async def run_stdio(self) -> None:
        """Serve one session over stdin/stdout until EOF or shutdown."""
        await self._prepare()
        reader, writer, finalize = await _stdio_streams(self._reader_limit())
        if self.on_ready is not None:
            self.on_ready("stdio")
        self._install_signal_handlers()
        try:
            conn_task = asyncio.create_task(self._on_connection(reader, writer))
            event = self._shutdown_event
            assert event is not None
            wait_task = asyncio.create_task(event.wait())
            await asyncio.wait(
                {conn_task, wait_task}, return_when=asyncio.FIRST_COMPLETED
            )
            self.request_shutdown()  # EOF and SIGTERM drain identically
            await wait_task
            await self._drain()
            await asyncio.gather(conn_task, return_exceptions=True)
        finally:
            self._remove_signal_handlers()
            finalize()  # stdout pump (file-redirected stdio) must land

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        if not self.draining:
            self.draining = True
            if self._shutdown_event is not None:
                self._shutdown_event.set()

    # -------------------------------------------------------------- plumbing
    def _reader_limit(self) -> int:
        """Raw-stream buffer bound: intake memory stays O(max_line), not
        asyncio's default 64KB, so a stalled chain stops reading bytes."""
        return max(self.max_line, 4096)

    async def _prepare(self) -> None:
        self._shutdown_event = asyncio.Event()
        if self.restore and self.checkpoint_dir is not None:
            # Restore is file I/O plus a full op-log replay per tenant:
            # run it off the loop thread so a big checkpoint directory
            # cannot stall the first connection (RL017).
            # The replay feeds each tenant's telemetry as it goes; nothing
            # reads self.live before _prepared is set.
            restored = await asyncio.to_thread(
                self._restore_all, self.checkpoint_dir
            )
            for name, session in restored.items():
                self.tenants[name] = _TenantState(self, name, session=session)
        if self.live is not None and self.telemetry_listen is not None:
            self.telemetry_server = TelemetryServer(self)
            self.telemetry_address = await self.telemetry_server.start(
                *self.telemetry_listen
            )
        self._prepared.set()

    def _restore_all(self, directory: Path) -> dict[str, TenantSession]:
        """Restore every checkpointed tenant (worker thread).

        A tenant restored closed published its trace before its closing
        checkpoint, so it keeps that file instead of its replayed records.
        """
        restored = restore_all(
            directory, live=self.live, trace=self.trace_dir is not None
        )
        if self.trace_dir is not None:
            for session in restored.values():
                if session.closed:
                    session.reuse_trace(self.trace_dir)
        return restored

    async def _run_with_server(
        self, server: asyncio.AbstractServer, address: str
    ) -> None:
        await self._prepare()
        if self.on_ready is not None:
            self.on_ready(address)
        self._install_signal_handlers()
        try:
            async with server:
                event = self._shutdown_event
                assert event is not None
                await event.wait()
                server.close()
                await server.wait_closed()
                await self._drain()
        finally:
            self._remove_signal_handlers()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                continue  # non-main thread / unsupported platform
            self._signals.append(sig)

    def _remove_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in self._signals:
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        self._signals.clear()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(self, writer)
        self.connections.add(conn)
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
        try:
            await self._prepared.wait()
            await conn.emit(
                {
                    "kind": "serve.ready",
                    "version": PROTOCOL_VERSION,
                    "default_scheduler": self.default_scheduler,
                    "schedulers": scheduler_names(),
                    "tenants": sorted(self.tenants),
                }
            )
            lines = _LineFramer(reader, self.max_line)
            while not self.draining:
                line, oversized = await lines.next_line()
                if oversized:
                    self.errors += 1
                    await conn.emit(
                        error_record(
                            f"input line exceeds {self.max_line} bytes — "
                            "dropped",
                            oversized=True,
                        )
                    )
                if line is None:
                    break
                if oversized or not line.strip():
                    continue
                self.lines_in += 1
                try:
                    op = parse_op(line)
                except ProtocolError as exc:
                    self.errors += 1
                    await conn.emit(error_record(str(exc), tenant=exc.tenant))
                    continue
                await self._route(op, conn)
        except asyncio.CancelledError:
            if not self.draining:
                # External cancellation (loop teardown, task kill) — NOT
                # a drain.  The consumer may be stalled, so never await
                # here: hard-stop the connection instead of flushing.
                self.connections.discard(conn)
                conn.abort()
                conn.task.cancel()
            # On drain: intake is cancelled, outputs flushed by _drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-read
        finally:
            if task is not None:
                self._reader_tasks.discard(task)
            if not self.draining and conn in self.connections:
                # Let in-flight ops routed from this connection finish
                # (their outputs land on conn.out), then flush.  The
                # connection stays registered: its writer task keeps
                # consuming until the daemon-level drain reaps it.
                for state in list(self.tenants.values()):
                    if state.last_conn is conn:
                        await state.queue.join()
                await conn.finish()

    async def _route(self, op: dict[str, Any], conn: _Connection) -> None:
        kind = op["op"]
        if kind == "shutdown":
            await conn.emit({"kind": "serve.bye", "tenants": len(self.tenants)})
            self.request_shutdown()
            return
        if kind == "stats":
            await conn.emit(self._stats_record())
            return
        tenant = op.get("tenant")
        if tenant is None:  # tenant-less checkpoint: fan out to every tenant
            # No session check here: sessions are created by the worker,
            # so a just-routed `open` may not have run yet.  The queue is
            # FIFO per tenant — by the time the worker reaches this op,
            # every earlier op (including the open) has been applied.
            for state in list(self.tenants.values()):
                state.last_conn = conn
                await state.queue.put((dict(op, tenant=state.name), conn))
            return
        state = self.tenants.get(tenant)
        if state is None:
            state = _TenantState(self, tenant)
            self.tenants[tenant] = state
        state.last_conn = conn
        await state.queue.put((op, conn))

    async def _tenant_loop(self, state: _TenantState) -> None:
        while True:
            item = await state.queue.get()
            if item is None:
                state.queue.task_done()
                return
            op, conn = item
            try:
                await self._apply_op(state, op, conn)
            finally:
                state.queue.task_done()

    async def _apply_op(
        self,
        state: _TenantState,
        op: dict[str, Any],
        conn: _Connection | None,
    ) -> None:
        try:
            outs = await self._mutate(state, op)
        except Exception as exc:  # daemon survives any single bad op
            self.errors += 1
            outs = [
                error_record(
                    str(exc) or type(exc).__name__,
                    tenant=state.name,
                    op=str(op.get("op")),
                )
            ]
        if conn is not None:
            for record in outs:
                await conn.emit(record)

    async def _mutate(
        self, state: _TenantState, op: dict[str, Any]
    ) -> list[dict[str, Any]]:
        """Apply one op to a tenant (worker task only: single-writer).

        Session mutation itself is pure CPU and stays on the loop, but
        checkpoint/trace persistence is real file I/O (fsynced JSONL
        writes) and runs in a worker thread (RL017).  Single-writer
        still holds: the tenant worker awaits this coroutine before
        taking the next op, so the session is never touched by two
        threads at once.
        """
        kind = op["op"]
        if kind == "open":
            if state.session is not None:
                raise ProtocolError(
                    f"tenant {state.name!r} is already open", tenant=state.name
                )
            scheduler = op.get("scheduler", self.default_scheduler)
            if not isinstance(scheduler, str):
                raise ProtocolError(
                    "open 'scheduler' must be a string", tenant=state.name
                )
            params = op.get("params")
            if params is not None and not isinstance(params, dict):
                raise ProtocolError(
                    "open 'params' must be an object", tenant=state.name
                )
            state.session = TenantSession(
                state.name,
                scheduler=scheduler,
                params=params,
                telemetry=self._tenant_telemetry(state.name),
                trace=self.trace_dir is not None,
                log_ops=self.checkpoint_dir is not None,
            )
            return state.session.hello()
        if kind == "checkpoint":
            if state.session is None:
                raise ProtocolError(
                    f"tenant {state.name!r} is not open", tenant=state.name
                )
            if self.checkpoint_dir is None:
                raise ProtocolError(
                    "no checkpoint directory configured", tenant=state.name
                )
            path = await asyncio.to_thread(
                save_checkpoint, state.session, self.checkpoint_dir
            )
            return [
                {
                    "kind": "serve.checkpoint",
                    "tenant": state.name,
                    "path": path,
                    "ops": state.session.ops,
                    "emitted": state.session.emitted,
                }
            ]
        outs: list[dict[str, Any]] = []
        session = state.session
        if session is None:
            if kind != "job":
                raise ProtocolError(
                    f"tenant {state.name!r} is not open", tenant=state.name
                )
            session = TenantSession(
                state.name,
                scheduler=self.default_scheduler,
                telemetry=self._tenant_telemetry(state.name),
                trace=self.trace_dir is not None,
                log_ops=self.checkpoint_dir is not None,
            )
            state.session = session
            outs.extend(session.hello())
        outs.extend(session.apply(op))
        if kind == "close":
            if self.trace_dir is not None:
                trace_path = await asyncio.to_thread(
                    session.write_trace, self.trace_dir
                )
                outs.append(
                    {
                        "kind": "serve.trace",
                        "tenant": state.name,
                        "path": trace_path,
                    }
                )
            if self.checkpoint_dir is not None:
                await asyncio.to_thread(
                    save_checkpoint, session, self.checkpoint_dir
                )
        elif (
            self.checkpoint_interval > 0
            and session.ops_since_checkpoint >= self.checkpoint_interval
            and (self.checkpoint_dir is not None or self.trace_dir is not None)
        ):
            await asyncio.to_thread(
                _persist, session, self.checkpoint_dir, self.trace_dir
            )
        return outs

    def _tenant_telemetry(self, name: str) -> TenantTelemetry | None:
        return self.live.tenant(name) if self.live is not None else None

    def telemetry_snapshot(self) -> dict[str, Any]:
        """The full live-telemetry snapshot (``stats`` op / listener).

        Per-tenant aggregates from the :class:`LiveAggregator`, daemon
        intake counters and queue depths, and — when the CLI armed the
        instrumented loop — the loopwatch stall/pending metrics.
        """
        if self.live is None:
            return {"kind": "telemetry", "enabled": False, "tenants": {}}
        daemon_section: dict[str, Any] = {
            "lines_in": self.lines_in,
            "records_out": self.records_out,
            "errors": self.errors,
            "draining": self.draining,
            "queued": {
                name: state.queue.qsize()
                for name, state in sorted(self.tenants.items())
            },
        }
        loop_metrics = self.loop_metrics
        return self.live.snapshot(
            daemon=daemon_section,
            loopwatch=(
                loop_metrics.snapshot() if loop_metrics is not None else None
            ),
        )

    def _stats_record(self) -> dict[str, Any]:
        tenants: dict[str, Any] = {}
        for name, state in sorted(self.tenants.items()):
            entry: dict[str, Any] = {"queued": state.queue.qsize()}
            session = state.session
            if session is not None:
                entry["clock"] = session.clock
                entry["ops"] = session.ops
                entry["emitted"] = session.emitted
                entry["closed"] = session.closed
                if session.failed is not None:
                    entry["failed"] = session.failed
            tenants[name] = entry
        record: dict[str, Any] = {
            "kind": "serve.stats",
            "lines_in": self.lines_in,
            "records_out": self.records_out,
            "errors": self.errors,
            "draining": self.draining,
            "tenants": tenants,
        }
        if self.live is not None:
            record["telemetry"] = self.telemetry_snapshot()
        else:
            record["telemetry"] = {
                "kind": "telemetry",
                "enabled": False,
                "tenants": {},
            }
        return record

    # ----------------------------------------------------------------- drain
    async def _drain(self) -> None:
        """Graceful shutdown: finish queued work, close, checkpoint, flush."""
        for task in list(self._reader_tasks):
            task.cancel()
        if self._reader_tasks:
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        watchdog = asyncio.create_task(self._drain_watchdog())
        try:
            # Apply everything already queued.
            for state in list(self.tenants.values()):
                await state.queue.join()
            # Close every live session: the engine's deadline backstops
            # start all remaining jobs, so traces reconcile strictly.
            for state in list(self.tenants.values()):
                session = state.session
                if (
                    session is not None
                    and not session.closed
                    and session.failed is None
                ):
                    await state.queue.put(
                        (
                            {"op": "close", "tenant": state.name,
                             "reason": "drain"},
                            state.last_conn,
                        )
                    )
            for state in list(self.tenants.values()):
                await state.queue.join()
            # Failed sessions still checkpoint: their op log restores to
            # the last successful op.
            if self.checkpoint_dir is not None:
                for state in list(self.tenants.values()):
                    if (
                        state.session is not None
                        and state.session.failed is not None
                    ):
                        await asyncio.to_thread(
                            save_checkpoint, state.session, self.checkpoint_dir
                        )
            # Stop workers.
            for state in list(self.tenants.values()):
                await state.queue.put(None)
            if self.tenants:
                await asyncio.gather(
                    *(state.task for state in self.tenants.values()),
                    return_exceptions=True,
                )
            # The merged multi-tenant trace (sessions are quiescent now:
            # workers stopped above) — what `repro obs summarize` splits
            # back into per-tenant breakdowns.  It reads the per-tenant
            # files back, so one moved away (or a full disk) costs the
            # merged trace, counted as an error, never the flush below.
            if self.trace_dir is not None:
                try:
                    await asyncio.to_thread(self._write_merged_trace)
                except OSError:
                    self.errors += 1
            # Flush and close every connection (checkpoints are already
            # on disk, so a dead consumer costs only its own records).
            for conn in list(self.connections):
                await conn.flush_and_close()
            self.connections.clear()
        finally:
            watchdog.cancel()
            if self.telemetry_server is not None:
                # Shielded: a cancelled drain must still unbind the
                # telemetry listener, not abandon the socket (RL020).
                await asyncio.shield(self.telemetry_server.close())
                self.telemetry_server = None

    def _write_merged_trace(self) -> str | None:
        """The drain's merged trace (:func:`write_merged_trace`), over
        every session in tenant order.  Runs in a worker thread (file
        I/O, RL017)."""
        if self.trace_dir is None:
            return None
        return write_merged_trace(
            [
                state.session
                for _, state in sorted(self.tenants.items())
                if state.session is not None
            ],
            self.trace_dir,
        )

    async def _drain_watchdog(self) -> None:
        try:
            await asyncio.sleep(self.drain_timeout)
        except asyncio.CancelledError:
            return
        for conn in list(self.connections):
            conn.abort()


def write_merged_trace(
    sessions: list[TenantSession], directory: Path
) -> str | None:
    """Write every traced session's records as one tenant-tagged trace.

    Each session's recorder has its own wall-clock epoch; rows are
    shifted onto the earliest epoch and k-way merged on the shifted
    ``ts``, streamed from each session's trace file plus the records it
    still holds (a failed session's unflushed tail).  Each session's
    ``ts`` never decreases and ties keep the order of ``sessions``, so
    the merge equals a stable sort of all rows.  A tenant restored
    closed reads the trace its first process wrote, whose ``ts`` count
    from that process's epoch: they are placed as if that epoch were
    the restore.  Metrics registries merge additively.

    A merge pass holds at most :func:`_merge_fan_in` files open.  More
    traced sessions than that merge in passes: each group of that many
    consecutive sources is merged into a scratch file under
    ``directory``, and the scratch files are merged in turn, so the
    rows equal a one-pass merge.  Returns ``None`` when no session
    keeps a trace.
    """
    traced = [
        (session, session.recorder)
        for session in sessions
        if session.recorder is not None
    ]
    if not traced:
        return None
    base = min(recorder.epoch for _, recorder in traced)
    metrics = MetricsRegistry()
    for _, recorder in traced:
        snapshot = recorder.metrics_snapshot()
        if snapshot:
            metrics.merge(snapshot)
    runs: list[Iterator[dict[str, Any]]] = [
        session.trace_rows(recorder.epoch - base)
        for session, recorder in traced
    ]
    fan_in = _merge_fan_in()
    by_ts = itemgetter("ts")
    scratch: Path | None = None
    with ExitStack() as stack:
        level = 0
        while len(runs) > fan_in:
            if scratch is None:
                directory.mkdir(parents=True, exist_ok=True)
                scratch = Path(stack.enter_context(
                    tempfile.TemporaryDirectory(dir=directory, prefix=".merge-")
                ))
            runs = [
                _spill(
                    heapq.merge(*runs[i : i + fan_in], key=by_ts),
                    scratch / f"{level}-{i // fan_in}.jsonl",
                )
                for i in range(0, len(runs), fan_in)
            ]
            level += 1
        return dump_jsonl(
            directory / MERGED_TRACE_NAME,
            chain(
                heapq.merge(*runs, key=by_ts),
                [{"kind": "metrics", "data": metrics.to_dict()}],
            ),
            tool="repro.obs",
            command="serve",
            merged=True,
            tenants=[session.tenant for session, _ in traced],
        )


def _merge_fan_in() -> int:
    """How many trace files one merge pass may hold open: a quarter of
    the soft open-file limit, at least 2, which leaves the rest to the
    sockets and files the daemon already holds."""
    try:
        import resource
    except ImportError:  # pragma: no cover - not a POSIX platform
        return 64
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft == resource.RLIM_INFINITY:
        return sys.maxsize
    return max(2, soft // 4)


def _spill(
    rows: Iterator[dict[str, Any]], path: Path
) -> Iterator[dict[str, Any]]:
    """Write ``rows`` to ``path`` as JSON lines; returns a lazy reader
    of them (JSON round-trips every row exactly)."""
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return _read_rows(path)


def _read_rows(path: Path) -> Iterator[dict[str, Any]]:
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def _persist(
    session: TenantSession,
    checkpoint_dir: Path | None,
    trace_dir: Path | None,
) -> None:
    """One cadence point, in one worker-thread hop: seal the session's
    op log into its checkpoint journal, then flush its trace records.

    Single-writer holds: the tenant worker awaits the hop before taking
    its next op, so nothing else touches the session meanwhile.
    """
    if checkpoint_dir is not None:
        save_checkpoint(session, checkpoint_dir)
    if trace_dir is not None:
        session.flush_trace(trace_dir)


async def _stdio_streams(
    limit: int,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter, Callable[[], None]]:
    """Wrap this process's stdin/stdout as an asyncio stream pair.

    asyncio's pipe transports only accept pipes, sockets and character
    devices — ``repro serve --stdio < jobs.jsonl > out.jsonl`` hands us
    regular files, which epoll cannot watch.  Those ends are bridged
    through a real :func:`os.pipe` with a pump thread on the far side;
    the kernel pipe buffer supplies the flow control the transport
    would have.  Returns a finalizer that must run after the writer is
    closed: it joins the stdout pump so the tail of the stream reaches
    the file before the process exits.
    """
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=limit)
    protocol = asyncio.StreamReaderProtocol(reader)
    try:
        await loop.connect_read_pipe(lambda: protocol, sys.stdin)
    except (ValueError, OSError):
        read_fd, _ = _pump_file_to_pipe(sys.stdin.buffer)
        await loop.connect_read_pipe(lambda: protocol, os.fdopen(read_fd, "rb"))
    out_pump: threading.Thread | None = None
    try:
        transport, flow = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout
        )
    except (ValueError, OSError):
        pipe_end, out_pump = _pump_pipe_to_file(sys.stdout.buffer)
        transport, flow = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, pipe_end
        )
    writer = asyncio.StreamWriter(transport, flow, reader, loop)

    def finalize() -> None:
        if out_pump is not None:
            out_pump.join(timeout=10.0)

    return reader, writer, finalize


def _pump_file_to_pipe(src: BinaryIO) -> tuple[int, threading.Thread]:
    """Copy ``src`` into a fresh pipe from a thread; return the read end."""
    read_fd, write_fd = os.pipe()

    def pump() -> None:
        try:
            while True:
                chunk = src.read(_READ_CHUNK)
                if not chunk:
                    break
                view = memoryview(chunk)
                while view:
                    view = view[os.write(write_fd, view) :]
        except (BrokenPipeError, OSError, ValueError):
            pass  # daemon stopped reading mid-file — drop the rest
        finally:
            os.close(write_fd)

    thread = threading.Thread(target=pump, daemon=True, name="repro-serve-stdin")
    thread.start()
    return read_fd, thread


def _pump_pipe_to_file(dst: BinaryIO) -> tuple[BinaryIO, threading.Thread]:
    """Drain a fresh pipe into ``dst`` from a thread; return the write end."""
    read_fd, write_fd = os.pipe()

    def pump() -> None:
        try:
            while True:
                chunk = os.read(read_fd, _READ_CHUNK)
                if not chunk:
                    break
                dst.write(chunk)
                dst.flush()
        except (BrokenPipeError, OSError, ValueError):
            pass  # output file went away — nothing left to preserve
        finally:
            os.close(read_fd)

    thread = threading.Thread(target=pump, daemon=True, name="repro-serve-stdout")
    thread.start()
    return os.fdopen(write_fd, "wb"), thread
