"""Drive the real ``repro serve`` daemon from outside, over a unix socket.

The daemon is a subprocess started from the checkout's ``src`` (the
package is not installed).  One asyncio client in this process holds a
single connection: a writer task sends the op stream (as fast as
backpressure allows, or on a seeded schedule) and a reader task keeps
every received chunk with its arrival time.  Records are split, matched
to ops and checked only after the timed window closes.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .ops import OpStream

#: Every phase and readiness wait is bounded by this many seconds.
PHASE_TIMEOUT = 120.0
READY_TIMEOUT = 30.0
#: A connection that delivers nothing for this long has lost records:
#: stop reading and let the gates report what is missing.
IDLE_TIMEOUT = 10.0
CLOSED_MARK = b'"kind":"serve.closed"'
_TENANT_RE = re.compile(rb'"tenant":"([^"]+)"')
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_PDEATHSIG = 1
#: Ops per write() in the closed loop: small enough that each op's send
#: time is known to within one chunk, large enough to keep the client cheap.
BURST_CHUNK_OPS = 32


class PhaseError(RuntimeError):
    """A benchmark phase failed; the message names the phase."""

    def __init__(self, phase: str, message: str) -> None:
        super().__init__(f"phase {phase}: {message}")
        self.phase = phase


def proc_cpu_s(pid: int) -> float:
    """User + system CPU of a whole process (all threads, live and exited)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        stat = fh.read()
    fields = stat[stat.rindex(b")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", "rb") as fh:
        for line in fh:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise PhaseError("measure", f"no VmHWM for pid {pid}")


def split_cpus() -> "tuple[set[int], set[int]] | None":
    """``(client CPUs, process-under-test CPUs)`` when there are at least two.

    Pinning keeps the client from being scheduled onto the daemon's core:
    a woken client would otherwise preempt the daemon inside a span, and
    the span would count the client's time as the daemon's.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


def pin(pid: int, cpus: "set[int] | None") -> None:
    if cpus:
        os.sched_setaffinity(pid, cpus)


def child_setup(cpus: "set[int] | None"):
    """``preexec_fn`` for a process under test: pin it, and have the kernel
    SIGKILL it if this process dies first, so no daemon outlives a run."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int

    def setup() -> None:
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        pin(0, cpus)

    return setup


def daemon_env(root: Path) -> dict[str, str]:
    """The daemon's environment: the checkout's ``src`` first on the path,
    and no inherited ``REPRO_*`` knob, so every run has the same config."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Daemon:
    """One ``repro serve --unix`` subprocess, always reaped by :meth:`kill`."""

    def __init__(self, root: Path, workdir: Path, name: str, flags: list[str],
                 boot: "list[str] | None" = None) -> None:
        self.root = root
        sock = workdir / f"{name}.sock"
        # AF_UNIX paths are capped at 107 bytes and a checkout can sit
        # deep in the tree: the daemon (cwd = root) binds, and this
        # process connects, through short paths relative to each cwd.
        bind = os.path.relpath(sock, root)
        self.sock_arg = os.path.relpath(sock)
        for path in (bind, self.sock_arg):
            if len(path.encode()) > 100:
                raise PhaseError("spawn", f"socket path too long: {path}")
        self.stderr_path = workdir / f"{name}.stderr"
        entry = boot if boot is not None else ["-m", "repro"]
        self.cmd = [sys.executable, *entry, "serve", "--unix", bind, *flags]
        self.proc: subprocess.Popen[bytes] | None = None
        self.spawned_at = 0.0

    def spawn(self) -> None:
        cpus = split_cpus()
        with open(self.stderr_path, "wb") as err:
            self.spawned_at = time.perf_counter()
            self.proc = subprocess.Popen(
                self.cmd, cwd=self.root, env=daemon_env(self.root),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                preexec_fn=child_setup(cpus[1] if cpus else None),
            )

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def stderr_tail(self) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    async def connect(self, phase: str) -> tuple[asyncio.StreamReader, asyncio.StreamWriter, dict, float]:
        """Connect once the socket is up; return the ``serve.ready`` record
        and the time it arrived."""
        deadline = time.perf_counter() + READY_TIMEOUT
        while True:
            if self.proc is not None and self.proc.poll() is not None:
                raise PhaseError(phase, f"daemon exited with {self.proc.returncode}: {self.stderr_tail()}")
            try:
                reader, writer = await asyncio.open_unix_connection(self.sock_arg, limit=1 << 22)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > deadline:
                    raise PhaseError(phase, "daemon never listened") from None
                await asyncio.sleep(0.002)
        line = await asyncio.wait_for(reader.readline(), READY_TIMEOUT)
        ready_at = time.perf_counter()
        record = json.loads(line) if line else {}
        if record.get("kind") != "serve.ready":
            raise PhaseError(phase, f"expected serve.ready, got {line[:200]!r}")
        return reader, writer, record, ready_at

    def signal(self, sig: int) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(sig)

    def kill(self) -> None:
        """SIGKILL and reap (idempotent)."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass


@dataclass
class Exchange:
    """What one connection sent and received."""

    send_times: list[float]
    chunks: list[tuple[float, bytes]]
    first_write: float
    last_closed: float
    client_cpu_s: float
    lags: list[float] = field(default_factory=list)


async def exchange(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    stream: OpStream,
    *,
    phase: str,
    schedule: "list[float] | None" = None,
) -> Exchange:
    """Send every op and collect records until the reference count arrived.

    ``schedule`` holds each op's due offset in seconds (open loop); without
    it the ops go out in chunks as fast as the daemon reads them.
    """
    lines = stream.lines
    n = len(lines)
    send_times = [0.0] * n
    lags: list[float] = []
    chunks: list[tuple[float, bytes]] = []
    expected_lines = stream.expected_records
    expected_closed = len(stream.tenants)
    last_closed = 0.0
    cpu0 = time.process_time()
    start = time.perf_counter()

    async def write_loop() -> None:
        if schedule is None:
            for lo in range(0, n, BURST_CHUNK_OPS):
                hi = min(n, lo + BURST_CHUNK_OPS)
                now = time.perf_counter()
                for i in range(lo, hi):
                    send_times[i] = now
                writer.write(b"".join(lines[lo:hi]))
                await writer.drain()
            return
        i = 0
        while i < n:
            due = start + schedule[i]
            now = time.perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
            hi = i
            while hi < n and start + schedule[hi] <= now:
                send_times[hi] = start + schedule[hi]
                lags.append(now - send_times[hi])
                hi += 1
            writer.write(b"".join(lines[i:hi]))
            await writer.drain()
            i = hi

    async def read_loop() -> None:
        nonlocal last_closed
        got = 0
        closed = 0
        tail = b""
        while got < expected_lines:
            try:
                chunk = await asyncio.wait_for(reader.read(1 << 20), IDLE_TIMEOUT)
            except asyncio.TimeoutError:
                return
            now = time.perf_counter()
            if not chunk:
                raise PhaseError(phase, f"daemon closed the connection after {got}/{expected_lines} records")
            chunks.append((now, chunk))
            got += chunk.count(b"\n")
            if closed < expected_closed:
                data = tail + chunk
                cut = data.rfind(b"\n") + 1
                closed += data.count(CLOSED_MARK, 0, cut)
                tail = data[cut:]
                if closed >= expected_closed:
                    last_closed = now

    writer_task = asyncio.create_task(write_loop())
    reader_task = asyncio.create_task(read_loop())
    try:
        await asyncio.wait_for(reader_task, PHASE_TIMEOUT)
        if not writer_task.done():
            raise PhaseError(phase, "the daemon stopped reading ops")
        await writer_task
    except asyncio.TimeoutError:
        raise PhaseError(phase, f"timed out after {PHASE_TIMEOUT:.0f}s") from None
    finally:
        for task in (writer_task, reader_task):
            task.cancel()
        await asyncio.gather(writer_task, reader_task, return_exceptions=True)
    if not last_closed:
        raise PhaseError(phase, "not every tenant reported serve.closed")
    return Exchange(send_times, chunks, start, last_closed, time.process_time() - cpu0, lags)


def split_records(chunks: list[tuple[float, bytes]]) -> tuple[dict[str, list[bytes]], dict[str, list[float]], list[bytes]]:
    """Group received lines by tenant, keeping each line's arrival time.

    Returns ``(lines, times, untenanted)``; lines keep their newline so
    they compare byte for byte with ``encode_record`` output.
    """
    lines: dict[str, list[bytes]] = {}
    times: dict[str, list[float]] = {}
    other: list[bytes] = []
    buf = b""
    search = _TENANT_RE.search
    for t, chunk in chunks:
        buf += chunk
        parts = buf.split(b"\n")
        buf = parts.pop()
        for part in parts:
            m = search(part)
            if m is None:
                other.append(part + b"\n")
                continue
            tenant = m.group(1).decode()
            lines.setdefault(tenant, []).append(part + b"\n")
            times.setdefault(tenant, []).append(t)
    if buf:
        other.append(buf)
    return lines, times, other


def op_latencies(stream: OpStream, ex: Exchange, times: dict[str, list[float]]) -> list[float]:
    """Seconds from each op's send (or due) time to its last record.

    Only ops that cause at least one record are timed; the reference
    replay says how many records each op causes, so the k-th record of a
    tenant belongs to a known op.
    """
    cursor: dict[str, int] = {}
    out: list[float] = []
    for i, (tenant, count) in enumerate(zip(stream.op_tenant, stream.op_records)):
        if not count:
            continue
        idx = cursor.get(tenant, 0) + count
        cursor[tenant] = idx
        arrived = times.get(tenant, [])
        if idx <= len(arrived):
            out.append(arrived[idx - 1] - ex.send_times[i])
    return out


async def request(reader: asyncio.StreamReader, writer: asyncio.StreamWriter, op: dict, phase: str) -> dict:
    """Send one op and return the next record."""
    writer.write((json.dumps(op) + "\n").encode())
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), PHASE_TIMEOUT)
    if not line:
        raise PhaseError(phase, f"no reply to {op['op']}")
    return json.loads(line)


async def close_writer(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await asyncio.wait_for(writer.wait_closed(), 5.0)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        pass


async def dump_spans(daemon: Daemon, out: Path, phase: str) -> dict:
    """Ask a traced daemon to write its layer totals, then read them."""
    daemon.signal(signal.SIGUSR1)
    deadline = time.perf_counter() + READY_TIMEOUT
    while not out.exists():
        if daemon.proc is not None and daemon.proc.poll() is not None:
            raise PhaseError(phase, f"traced daemon exited: {daemon.stderr_tail()}")
        if time.perf_counter() > deadline:
            raise PhaseError(phase, "traced daemon never wrote its spans")
        await asyncio.sleep(0.01)
    return json.loads(out.read_text())
