"""ServeDaemon robustness: backpressure, drain, restore, bad input.

No pytest-asyncio in the tier-1 environment, so every test is a sync
function wrapping its scenario in ``asyncio.run`` (with an outer
``wait_for`` so a deadlocked daemon fails the test instead of hanging
the suite).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.cli import main
from repro.serve import daemon as daemon_module
from repro.serve.checkpoint import (
    list_checkpoints,
    load_checkpoint,
    restore_all,
    restore_session,
    save_checkpoint,
)
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import encode_record
from repro.serve.session import TenantSession

TIMEOUT = 60.0


def run_async(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


class Client:
    """A JSONL protocol client over a Unix socket (or a TCP one)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(
        cls, address, limit: int | None = None, rcvbuf: int | None = None
    ):
        """``address`` is a socket path or a ``(host, port)`` pair.
        ``limit`` caps the client-side StreamReader buffer — a truly
        stalled consumer needs a small one, or asyncio's background read
        silently absorbs ~64KB of daemon output.  ``rcvbuf`` sets a TCP
        client's receive buffer before the handshake, so the window it
        advertises stays that small."""
        kwargs: dict = {} if limit is None else {"limit": limit}
        if isinstance(address, tuple):
            sock = socket.socket()
            if rcvbuf is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, address)
            reader, writer = await asyncio.open_connection(sock=sock, **kwargs)
        else:
            reader, writer = await asyncio.open_unix_connection(
                str(address), **kwargs
            )
        return cls(reader, writer)

    async def send(self, obj):
        self.writer.write((json.dumps(obj) + "\n").encode())
        await self.writer.drain()

    async def send_raw(self, data: bytes):
        self.writer.write(data)
        await self.writer.drain()

    async def recv(self):
        line = await asyncio.wait_for(self.reader.readline(), timeout=10.0)
        if not line:
            return None  # EOF
        return json.loads(line)

    async def recv_until(self, predicate):
        """Read records until one satisfies ``predicate``; returns all."""
        seen = []
        while True:
            rec = await self.recv()
            assert rec is not None, f"EOF before match; saw {seen[-5:]}"
            seen.append(rec)
            if predicate(rec):
                return seen

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_daemon(tmp_path, listener="unix", **kwargs):
    """Start a daemon; returns (daemon, task, address).

    The address is the socket path for a ``"unix"`` listener, and the
    ``(host, port)`` the daemon reports ready on for ``"tcp"`` (bound
    to 127.0.0.1, port 0).
    """
    daemon = ServeDaemon(**kwargs)
    ready = asyncio.Event()
    bound: list[str] = []

    def on_ready(address: str) -> None:
        bound.append(address)
        ready.set()

    daemon.on_ready = on_ready
    if listener == "tcp":
        task = asyncio.create_task(daemon.run_tcp("127.0.0.1", 0))
    else:
        sock = tmp_path / "serve.sock"
        task = asyncio.create_task(daemon.run_unix(sock))
    await asyncio.wait_for(ready.wait(), timeout=10.0)
    if listener == "tcp":
        _, host, port = bound[0].split(":")
        return daemon, task, (host, int(port))
    return daemon, task, sock


async def stop_daemon(daemon, task):
    daemon.request_shutdown()
    await task


async def hard_kill(daemon, task):
    """Simulate SIGKILL: cancel everything, flush nothing."""
    tasks = [task]
    tasks += [state.task for state in daemon.tenants.values()]
    tasks += [conn.task for conn in daemon.connections]
    for t in tasks:
        t.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


def job_line(tenant, jid, arrival, deadline, length=1.0):
    return {
        "op": "job", "tenant": tenant, "id": jid, "arrival": arrival,
        "deadline": deadline, "length": length,
    }


async def _pump(client, n, tenant="t1"):
    """Send ``n`` tight-deadline jobs: every arrival flushes the previous
    job's start/completion, so the daemon emits output continuously."""
    for i in range(n):
        await client.send(job_line(tenant, i, float(i), i + 1.0, 0.5))


class TestDaemonBasics:
    def test_open_job_close_flow(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(tmp_path)
            client = await Client.connect(sock)
            ready = await client.recv()
            assert ready["kind"] == "serve.ready"
            assert ready["default_scheduler"] == "batch+"
            assert "batch+" in ready["schedulers"]

            await client.send({"op": "open", "tenant": "t1",
                               "scheduler": "batch"})
            opened = await client.recv()
            assert opened == {
                "kind": "serve.open", "tenant": "t1", "scheduler": "batch",
                "clairvoyant": False,
            }
            await client.send(job_line("t1", 0, 0.0, 2.0))
            await client.send(job_line("t1", 1, 0.5, 1.5, 3.0))
            await client.send({"op": "close", "tenant": "t1"})
            seen = await client.recv_until(
                lambda r: r["kind"] == "serve.closed"
            )
            kinds = [r["kind"] for r in seen]
            assert "start" in kinds and "decision" in kinds
            assert seen[-1]["tenant"] == "t1"
            assert seen[-1]["span"] > 0
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())

    def test_implicit_open_uses_default_scheduler(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(
                tmp_path, scheduler="batch"
            )
            client = await Client.connect(sock)
            await client.recv()  # ready
            await client.send(job_line("t1", 0, 0.0, 2.0))
            opened = await client.recv()
            assert opened["kind"] == "serve.open"
            assert opened["scheduler"] == "batch"
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())

    def test_stats_and_fanout_checkpoint(self, tmp_path):
        async def scenario():
            ckpt = tmp_path / "ckpt"
            daemon, task, sock = await start_daemon(
                tmp_path, checkpoint_dir=ckpt
            )
            client = await Client.connect(sock)
            await client.recv()  # ready
            for tenant in ("a", "b"):
                await client.send(job_line(tenant, 0, 0.0, 2.0))
            # Tenant-less checkpoint fans out to both (FIFO per tenant:
            # it runs after the implicit opens even though they are
            # still queued when this line is routed).
            await client.send({"op": "checkpoint"})
            acks = []
            while len(acks) < 2:
                rec = await client.recv()
                if rec["kind"] == "serve.checkpoint":
                    acks.append(rec)
            assert {a["tenant"] for a in acks} == {"a", "b"}
            assert len(list_checkpoints(ckpt)) == 2

            await client.send({"op": "stats"})
            stats = (await client.recv_until(
                lambda r: r["kind"] == "serve.stats"
            ))[-1]
            assert stats["lines_in"] == 4  # 2 jobs + checkpoint + stats
            assert set(stats["tenants"]) == {"a", "b"}
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())

    def test_shutdown_op_drains(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(tmp_path)
            client = await Client.connect(sock)
            await client.recv()  # ready
            await client.send(job_line("t1", 0, 0.0, 2.0))
            await client.send({"op": "shutdown"})
            seen = await client.recv_until(
                lambda r: r["kind"] == "serve.closed"
            )
            assert any(r["kind"] == "serve.bye" for r in seen)
            await task  # daemon exits on its own
            assert daemon.draining

        run_async(scenario())


class TestDaemonBadInput:
    def test_malformed_lines_rejected_daemon_survives(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(tmp_path)
            client = await Client.connect(sock)
            await client.recv()  # ready
            for bad in (b"{nope\n", b"[1,2]\n", b'{"op":"wat"}\n',
                        b'{"op":"job"}\n', b"\xff\xfe\n"):
                await client.send_raw(bad)
                err = await client.recv()
                assert err["kind"] == "serve.error"
            # A per-tenant validation error keeps the tenant live.
            await client.send(job_line("t1", 0, 5.0, 9.0))
            await client.recv_until(lambda r: r["kind"] == "serve.open")
            await client.send(job_line("t1", 1, 1.0, 2.0))  # past arrival
            err = (await client.recv_until(
                lambda r: r["kind"] == "serve.error"
            ))[-1]
            assert err["tenant"] == "t1"
            # ... and the daemon still schedules for it afterwards.
            await client.send(job_line("t1", 2, 6.0, 7.0))
            await client.send({"op": "close", "tenant": "t1"})
            closed = (await client.recv_until(
                lambda r: r["kind"] == "serve.closed"
            ))[-1]
            assert closed["jobs"] == 2
            assert daemon.errors >= 6
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())

    def test_oversized_line_dropped_connection_survives(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(
                tmp_path, max_line_override=128
            )
            client = await Client.connect(sock)
            await client.recv()  # ready
            huge = b'{"op": "job", "tenant": "t1", "pad": "' \
                + b"x" * 4096 + b'"}\n'
            await client.send_raw(huge)
            err = await client.recv()
            assert err["kind"] == "serve.error"
            assert err.get("oversized") is True
            # The bytes after the oversized line still parse normally.
            await client.send(job_line("t1", 0, 0.0, 2.0))
            opened = (await client.recv_until(
                lambda r: r["kind"] == "serve.open"
            ))[-1]
            assert opened["tenant"] == "t1"
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())

    def test_oversized_then_rest_of_buffer_preserved(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(
                tmp_path, max_line_override=128
            )
            client = await Client.connect(sock)
            await client.recv()  # ready
            # One write carrying an oversized line AND a valid op: the
            # reader must drop exactly the oversized line.
            blob = b"y" * 300 + b"\n" + json.dumps(
                {"op": "stats"}
            ).encode() + b"\n"
            await client.send_raw(blob)
            err = await client.recv()
            assert err["kind"] == "serve.error" and err["oversized"]
            stats = await client.recv()
            assert stats["kind"] == "serve.stats"
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())


class TestDaemonBackpressure:
    def test_stalled_consumer_bounds_daemon_memory(self, tmp_path):
        """A consumer that stops reading must stall intake (bounded
        queues all the way down) — not grow daemon buffers."""
        self._stalled_consumer(tmp_path, "unix")

    def test_stalled_tcp_consumer_bounds_daemon_memory(self, tmp_path):
        """The same over the TCP listener (127.0.0.1, port 0)."""
        self._stalled_consumer(tmp_path, "tcp")

    @staticmethod
    def _stalled_consumer(tmp_path, listener):
        """The stream outgrows what intake may hold: the framer's 64 KiB
        read chunk plus twice the reader's limit."""
        N = 1200

        async def scenario():
            # Small max_line also bounds the daemon's raw reader buffer,
            # so stalled parsing stops byte intake instead of hiding
            # ~128KB in the server-side StreamReader.
            daemon, task, address = await start_daemon(
                tmp_path, listener, queue_size_override=4,
                max_line_override=256,
            )
            client = await Client.connect(address, limit=1024, rcvbuf=4096)
            await client.recv()  # ready
            # Shrink the daemon-side socket send buffer so the kernel
            # absorbs very little: the writer blocks early and the
            # backpressure chain engages within a few hundred records.
            (conn,) = daemon.connections
            raw = conn._writer.get_extra_info("socket")
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            conn._writer.transport.set_write_buffer_limits(high=2048)
            # ... and the client-side send buffer, so the producer's own
            # drain() blocks once the daemon stops reading.
            claw = client.writer.get_extra_info("socket")
            claw.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            client.writer.transport.set_write_buffer_limits(high=2048)

            async def produce():
                # Tight deadlines: every arrival flushes the previous
                # job's start/completion, so output flows continuously.
                for i in range(N):
                    await client.send(job_line("t1", i, float(i), i + 1.0,
                                               0.5))
                await client.send({"op": "close", "tenant": "t1"})

            producer = asyncio.create_task(produce())
            # Consumer stalled: wait for intake to plateau.
            last, stable = -1, 0
            for _ in range(400):
                await asyncio.sleep(0.01)
                if daemon.lines_in == last:
                    stable += 1
                    if stable >= 20:  # no intake for ~200ms
                        break
                else:
                    last, stable = daemon.lines_in, 0
            if listener == "unix":
                # (A TCP receive buffer takes the rest of this stream.)
                assert not producer.done()  # the client's send() blocked too
            assert daemon.lines_in < N  # intake genuinely stalled
            # The daemon's reader stopped reading the socket: it holds
            # about twice its limit (--max-line), not asyncio's default.
            assert not conn._writer.transport.is_reading()
            state = daemon.tenants["t1"]
            assert state.queue.qsize() <= 4
            assert conn.out.qsize() <= 4
            assert conn._writer.transport.get_write_buffer_size() < 65536

            # Resume consuming: everything drains, nothing was lost.
            seen = await client.recv_until(
                lambda r: r["kind"] == "serve.closed"
            )
            await producer
            starts = [r for r in seen if r["kind"] == "start"]
            assert len(starts) == N
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())


class TestDaemonScale:
    def test_120_concurrent_tenant_streams(self, tmp_path):
        """The acceptance bar: >= 100 concurrent tenant streams."""
        N = 120

        async def scenario():
            daemon, task, sock = await start_daemon(tmp_path)
            client = await Client.connect(sock)
            await client.recv()  # ready
            # Interleave ops across all tenants: every stream is open
            # concurrently before any closes.
            for i in range(N):
                await client.send(job_line(f"w{i:03d}", 0, 0.0, 2.0))
            for i in range(N):
                await client.send(job_line(f"w{i:03d}", 1, 0.5, 1.5, 3.0))
            await client.send({"op": "stats"})
            stats = (await client.recv_until(
                lambda r: r["kind"] == "serve.stats"
            ))[-1]
            assert len(stats["tenants"]) == N
            for i in range(N):
                await client.send({"op": "close", "tenant": f"w{i:03d}"})
            closed = {}
            while len(closed) < N:
                rec = await client.recv()
                assert rec is not None
                if rec["kind"] == "serve.closed":
                    closed[rec["tenant"]] = rec
            assert set(closed) == {f"w{i:03d}" for i in range(N)}
            spans = {r["span"] for r in closed.values()}
            assert spans == {closed["w000"]["span"]}  # identical workloads
            assert all(r["jobs"] == 2 for r in closed.values())
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())


class TestDaemonDrain:
    def test_drain_closes_sessions_writes_traces_and_checkpoints(
        self, tmp_path
    ):
        async def scenario():
            ckpt, traces = tmp_path / "ckpt", tmp_path / "traces"
            daemon, task, sock = await start_daemon(
                tmp_path, checkpoint_dir=ckpt, trace_dir=traces
            )
            client = await Client.connect(sock)
            await client.recv()  # ready
            for tenant in ("a", "b", "c"):
                await client.send(job_line(tenant, 0, 0.0, 5.0))
                await client.send(job_line(tenant, 1, 1.0, 6.0, 2.0))
            # Give the workers a beat to apply, then drain mid-stream.
            await client.send({"op": "stats"})
            await client.recv_until(lambda r: r["kind"] == "serve.stats")
            daemon.request_shutdown()
            await task
            # All in-flight records were flushed before the close.
            records = []
            while True:
                rec = await client.recv()
                if rec is None:
                    break
                records.append(rec)
            closed = [r for r in records if r["kind"] == "serve.closed"]
            assert {r["tenant"] for r in closed} == {"a", "b", "c"}
            # Every admitted job started (the engine's deadline
            # backstops fire on drain).
            for tenant in ("a", "b", "c"):
                starts = [
                    r for r in records
                    if r["kind"] == "start" and r["tenant"] == tenant
                ]
                assert {r["job"] for r in starts} == {0, 1}
            # Checkpoints + traces on disk; traces reconcile strictly.
            assert len(list_checkpoints(ckpt)) == 3
            for tenant in ("a", "b", "c"):
                trace = traces / f"{tenant}.trace.jsonl"
                assert trace.exists()
                assert main(["obs", "explain", str(trace), "--strict"]) == 0
            await client.close()

        run_async(scenario())

    def test_drain_survives_a_published_trace_moved_away(self, tmp_path):
        """The merged trace reads the per-tenant files back: when one is
        gone by the drain, the merge fails as one counted error and the
        drain still closes, publishes and flushes everything else."""
        async def scenario():
            traces = tmp_path / "traces"
            daemon, task, sock = await start_daemon(tmp_path, trace_dir=traces)
            client = await Client.connect(sock)
            await client.recv()  # ready
            await client.send(job_line("a", 0, 0.0, 2.0))
            await client.send({"op": "close", "tenant": "a"})
            await client.recv_until(lambda r: r["kind"] == "serve.trace")
            (traces / "a.trace.jsonl").unlink()  # shipped off, say
            await client.send(job_line("b", 0, 0.0, 2.0))
            await client.send({"op": "stats"})
            await client.recv_until(lambda r: r["kind"] == "serve.stats")
            daemon.request_shutdown()
            await task
            records = []
            while (rec := await client.recv()) is not None:
                records.append(rec)
            closed = [r["tenant"] for r in records if r["kind"] == "serve.closed"]
            assert closed == ["b"]
            assert daemon.errors == 1
            assert sorted(p.name for p in traces.iterdir()) == ["b.trace.jsonl"]
            await client.close()

        run_async(scenario())

    def test_drain_watchdog_aborts_stalled_consumer(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(
                tmp_path, queue_size_override=2, max_line_override=256,
                drain_timeout=0.3,
            )
            client = await Client.connect(sock, limit=1024)
            await client.recv()  # ready
            (conn,) = daemon.connections
            raw = conn._writer.get_extra_info("socket")
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            conn._writer.transport.set_write_buffer_limits(high=1024)
            # Enough work that drain cannot flush into a stalled socket.
            producer = asyncio.create_task(_pump(client, 200))
            # Wait until the chain is genuinely wedged (worker blocked
            # mid-emit): intake stops advancing.
            last, stable = -1, 0
            for _ in range(400):
                await asyncio.sleep(0.01)
                if daemon.lines_in == last:
                    stable += 1
                    if stable >= 20:
                        break
                else:
                    last, stable = daemon.lines_in, 0
            daemon.request_shutdown()
            # The consumer never reads: the watchdog must still let the
            # daemon terminate (well under the suite timeout).
            await task
            assert conn.dead
            producer.cancel()
            await asyncio.gather(producer, return_exceptions=True)

        run_async(scenario())


class TestDaemonRestore:
    def _reference_outputs(self, ops):
        session = TenantSession("t1")
        outs = list(session.hello())
        for op in ops:
            outs += session.apply(dict(op))
        outs += session.apply({"op": "close", "tenant": "t1"})
        return outs

    def test_kill_restore_bit_identical_remaining_records(self, tmp_path):
        pre_ops = [job_line("t1", 0, 0.0, 5.0), job_line("t1", 1, 1.0, 6.0)]
        post_ops = [job_line("t1", 2, 2.0, 7.0, 2.0)]
        full = self._reference_outputs(pre_ops + post_ops)

        async def scenario():
            ckpt = tmp_path / "ckpt"
            daemon1, task1, sock1 = await start_daemon(
                tmp_path, checkpoint_dir=ckpt
            )
            client1 = await Client.connect(sock1)
            await client1.recv()  # ready
            delivered = []
            for op in pre_ops:
                await client1.send(op)
            await client1.send({"op": "checkpoint", "tenant": "t1"})
            while True:
                rec = await client1.recv()
                if rec["kind"] == "serve.checkpoint":
                    break
                delivered.append(rec)
            await hard_kill(daemon1, task1)  # SIGKILL: no drain, no flush
            await client1.close()
            (sock1_path := sock1).unlink(missing_ok=True)

            daemon2, task2, sock2 = await start_daemon(
                tmp_path / "ckpt", checkpoint_dir=ckpt, restore=True
            )
            client2 = await Client.connect(sock2)
            ready = await client2.recv()
            assert ready["tenants"] == ["t1"]
            for op in post_ops:
                await client2.send(op)
            await client2.send({"op": "close", "tenant": "t1"})
            post = await client2.recv_until(
                lambda r: r["kind"] == "serve.closed"
            )
            # Bit-identical: delivered-before-kill + emitted-after-restore
            # is exactly the uninterrupted record stream.
            assert delivered + post == full
            started = [r["job"] for r in delivered + post
                       if r["kind"] == "start"]
            assert sorted(started) == [0, 1, 2]  # no re-admissions
            await client2.close()
            await stop_daemon(daemon2, task2)

        run_async(scenario())

    def test_restored_closed_tenant_stays_closed(self, tmp_path):
        async def scenario():
            ckpt = tmp_path / "ckpt"
            daemon1, task1, sock1 = await start_daemon(
                tmp_path, checkpoint_dir=ckpt
            )
            client1 = await Client.connect(sock1)
            await client1.recv()
            await client1.send(job_line("t1", 0, 0.0, 2.0))
            await client1.send({"op": "close", "tenant": "t1"})
            await client1.recv_until(lambda r: r["kind"] == "serve.closed")
            await client1.close()
            await stop_daemon(daemon1, task1)

            restored = restore_session(list_checkpoints(ckpt)[0])
            assert restored.closed
            daemon2, task2, sock2 = await start_daemon(
                ckpt, checkpoint_dir=ckpt, restore=True
            )
            client2 = await Client.connect(sock2)
            ready = await client2.recv()
            assert ready["tenants"] == ["t1"]
            await client2.send(job_line("t1", 9, 10.0, 12.0))
            err = await client2.recv()
            assert err["kind"] == "serve.error"
            assert "closed" in err["error"]
            await client2.close()
            await stop_daemon(daemon2, task2)

        run_async(scenario())


class TestDaemonRestoreTelemetry:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["no-trace-dir", "trace-dir"])
    def test_restore_keeps_tenant_telemetry(self, tmp_path, traced):
        """A killed and restored daemon reports the same per-tenant
        telemetry as before the kill: the replay feeds it."""
        ckpt = tmp_path / "ckpt"
        traces = tmp_path / "traces"
        flags = {"checkpoint_dir": ckpt, "telemetry": True}
        if traced:
            flags["trace_dir"] = traces

        async def scenario():
            daemon1, task1, sock1 = await start_daemon(tmp_path, **flags)
            client1 = await Client.connect(sock1)
            await client1.recv()  # ready
            await client1.send({"op": "open", "tenant": "a",
                                "scheduler": "cdb", "params": {"alpha": 2.0}})
            for i in range(12):
                await client1.send(
                    job_line("a", i, i * 0.7, i * 0.7 + 2.0, 1.0 + i % 3))
                await client1.send(
                    job_line("b", i, i * 0.5, i * 0.5 + 1.0, 0.5 + i % 2))
            await client1.send({"op": "advance", "tenant": "b", "t": 20.0})
            await client1.send({"op": "checkpoint"})
            acks = 0
            while acks < 2:  # every op before the checkpoint is applied
                acks += (await client1.recv())["kind"] == "serve.checkpoint"
            await client1.send({"op": "stats"})
            before = (await client1.recv_until(
                lambda r: r["kind"] == "serve.stats"
            ))[-1]["telemetry"]
            await hard_kill(daemon1, task1)  # SIGKILL: no drain, no flush
            await client1.close()

            second = tmp_path / "second"
            second.mkdir()
            daemon2, task2, sock2 = await start_daemon(
                second, restore=True, **flags
            )
            client2 = await Client.connect(sock2)
            assert (await client2.recv())["tenants"] == ["a", "b"]
            await client2.send({"op": "stats"})
            after = (await client2.recv_until(
                lambda r: r["kind"] == "serve.stats"
            ))[-1]["telemetry"]
            assert before["tenants"]["a"]["jobs"]["released"] == 12
            assert before["tenants"]["b"]["jobs"]["completed"] == 12
            assert after["tenants"] == before["tenants"]
            assert after["aggregate"] == before["aggregate"]
            await client2.close()
            await stop_daemon(daemon2, task2)

        run_async(scenario())
        if traced:  # the drained trace of a restored tenant reconciles
            for tenant in ("a", "b"):
                trace = traces / f"{tenant}.trace.jsonl"
                assert main(["obs", "explain", str(trace), "--strict"]) == 0
        else:
            assert not traces.exists()


class TestDaemonRestoreRace:
    def test_connection_waits_for_restore_before_ready(
        self, tmp_path, monkeypatch
    ):
        """A client that connects while checkpoints are still replaying
        must see the restored tenants, and its first op must reach the
        restored session — not a fresh one that would later overwrite
        the checkpoint."""
        ckpt = tmp_path / "ckpt"
        session = TenantSession("t1")
        session.hello()
        pre_ops = [job_line("t1", i, float(i), i + 1.0, 0.5) for i in range(3)]
        pre_ops.append({"op": "advance", "tenant": "t1", "t": 20.0})
        for op in pre_ops:
            session.apply(dict(op))
        save_checkpoint(session, ckpt)

        gate = threading.Event()

        def gated_restore_all(directory, **kwargs):
            assert gate.wait(TIMEOUT), "restore gate never opened"
            return restore_all(directory, **kwargs)

        monkeypatch.setattr(daemon_module, "restore_all", gated_restore_all)

        async def scenario():
            daemon = ServeDaemon(checkpoint_dir=ckpt, restore=True)
            sock = tmp_path / "serve.sock"
            task = asyncio.create_task(daemon.run_unix(sock))
            try:
                while not sock.exists():
                    await asyncio.sleep(0.01)
                client = await Client.connect(sock)
                await client.send(job_line("t1", 99, 0.5, 3.0))
                first = asyncio.ensure_future(client.reader.readline())
                done, _ = await asyncio.wait({first}, timeout=0.5)
                assert not done, "serve.ready sent before restore finished"
                gate.set()
                ready = json.loads(await asyncio.wait_for(first, 10.0))
                assert ready["kind"] == "serve.ready"
                assert ready["tenants"] == ["t1"]
                err = await client.recv()
                assert err["kind"] == "serve.error"
                assert "past" in err["error"]
                await client.close()
            finally:
                gate.set()
                await stop_daemon(daemon, task)
            # The drain closed the restored session; its log kept every
            # pre-restart op (a fresh session would have logged one job).
            path = list_checkpoints(ckpt)[0]
            assert load_checkpoint(path)[1][:4] == pre_ops
            restored = restore_session(path)
            assert restored.ops == session.ops + 1 == 5  # + the drain's close
            assert restored.clock == 20.0

        run_async(scenario())


class TestDaemonWriterFailure:
    def test_dead_consumer_does_not_wedge_workers(self, tmp_path):
        async def scenario():
            daemon, task, sock = await start_daemon(
                tmp_path, queue_size_override=2
            )
            client = await Client.connect(sock)
            await client.recv()  # ready
            await client.send(job_line("t1", 0, 0.0, 2.0))
            # Abruptly drop the connection reader AND writer.
            client.writer.transport.abort()
            # The daemon must keep applying ops for the tenant via a new
            # connection (the old writer marks itself dead but keeps
            # consuming its queue).
            client2 = await Client.connect(sock)
            await client2.recv()  # ready
            await client2.send(job_line("t2", 0, 0.0, 2.0))
            await client2.send({"op": "close", "tenant": "t2"})
            closed = (await client2.recv_until(
                lambda r: r["kind"] == "serve.closed"
            ))[-1]
            assert closed["tenant"] == "t2"
            await client2.close()
            await stop_daemon(daemon, task)

        run_async(scenario())


class TestDaemonWriterBatching:
    def test_burst_goes_out_in_fewer_writes_than_records(self, tmp_path):
        """The writer sends everything queued per wake-up in one write;
        the bytes are still the records encoded one by one."""
        ops = [job_line("t1", i, float(i), i + 1.0, 0.5) for i in range(200)]
        ops.append({"op": "close", "tenant": "t1"})
        session = TenantSession("t1")
        reference = list(session.hello())
        for op in ops:
            reference += session.apply(dict(op))
        expected = b"".join(encode_record(r) for r in reference)

        async def scenario():
            daemon, task, sock = await start_daemon(tmp_path)
            client = await Client.connect(sock)
            await client.recv()  # ready
            (conn,) = daemon.connections
            writes = []
            write = conn._writer.write

            def counting_write(data):
                writes.append(len(data))
                write(data)

            conn._writer.write = counting_write
            await client.send_raw(
                b"".join((json.dumps(op) + "\n").encode() for op in ops)
            )
            lines = []
            while not lines or b'"kind":"serve.closed"' not in lines[-1]:
                line = await asyncio.wait_for(client.reader.readline(), 10.0)
                assert line, "EOF before serve.closed"
                lines.append(line)
            assert b"".join(lines) == expected
            assert sum(writes) == len(expected)
            assert len(writes) < len(reference)
            await client.close()
            await stop_daemon(daemon, task)

        run_async(scenario())


class TestStdioMode:
    def test_cli_rejects_bad_tcp_spec(self):
        from repro.serve.cli import _parse_hostport

        with pytest.raises(ValueError):
            _parse_hostport("no-port")
        assert _parse_hostport("127.0.0.1:7077") == ("127.0.0.1", 7077)
        assert _parse_hostport("[::1]:7077") == ("[::1]", 7077)


class TestLineFramer:
    """Unit tests for the bounded framer, straight over a StreamReader.

    The daemon-level tests above cover the happy drop path; these pin
    the exact boundary and the chunk/EOF edges that only show up when
    the oversized line straddles internal reads.
    """

    @staticmethod
    def _framer(data: bytes, max_line: int):
        from repro.serve.daemon import _LineFramer

        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return _LineFramer(reader, max_line)

    def test_exact_boundary_line_accepted(self):
        async def scenario():
            line = b"x" * 64  # len == max_line: allowed, not oversized
            framer = self._framer(line + b"\n" + b"y" * 65 + b"\n", 64)
            assert await framer.next_line() == (line, False)
            assert await framer.next_line() == (b"", True)  # one byte over
            assert await framer.next_line() == (None, False)

        run_async(scenario())

    def test_oversized_line_spanning_read_chunks(self):
        async def scenario():
            # 200k of junk forces several 64 KiB reads inside the drop
            # loop before the newline shows up; the next line survives.
            data = b"j" * 200_000 + b"\n" + b'{"op": "stats"}\n'
            framer = self._framer(data, 128)
            assert await framer.next_line() == (b"", True)
            assert await framer.next_line() == (b'{"op": "stats"}', False)
            assert await framer.next_line() == (None, False)

        run_async(scenario())

    def test_eof_mid_drop(self):
        async def scenario():
            # The stream ends inside an oversized, never-terminated
            # line: EOF is reported *with* the oversized flag so the
            # caller can account for the dropped garbage.
            framer = self._framer(b"z" * 100_000, 128)
            assert await framer.next_line() == (None, True)
            assert await framer.next_line() == (None, False)

        run_async(scenario())

    def test_unterminated_tail_returned_at_eof(self):
        async def scenario():
            framer = self._framer(b"a\nb", 64)
            assert await framer.next_line() == (b"a", False)
            assert await framer.next_line() == (b"b", False)
            assert await framer.next_line() == (None, False)

        run_async(scenario())

    def test_oversized_unterminated_tail_at_eof(self):
        async def scenario():
            # Tail with no newline AND over the bound: EOF + oversized.
            framer = self._framer(b"a\n" + b"b" * 65, 64)
            assert await framer.next_line() == (b"a", False)
            assert await framer.next_line() == (None, True)

        run_async(scenario())

    def test_many_exact_boundary_lines(self):
        async def scenario():
            lines = [bytes([65 + i]) * 32 for i in range(8)]
            framer = self._framer(b"\n".join(lines) + b"\n", 32)
            for expected in lines:
                assert await framer.next_line() == (expected, False)
            assert await framer.next_line() == (None, False)

        run_async(scenario())
