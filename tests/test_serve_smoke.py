"""End-to-end smoke: the real ``python -m repro serve`` process.

Everything here drives the installed CLI through a subprocess — the
SIGTERM drain, SIGKILL + ``--restore`` recovery, and checkpoint
verification exactly as an operator would run them.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.cli import main
from repro.serve.checkpoint import save_checkpoint
from repro.serve.daemon import MERGED_TRACE_NAME
from repro.serve.session import TenantSession

from tests.test_serve_session import trace_lines

REPO = Path(__file__).resolve().parent.parent
TIMEOUT = 30.0


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _spawn(*argv, stdin=None):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *argv],
        cwd=REPO, env=_env(), stdin=stdin,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _wait_for_socket(path, proc, deadline=10.0):
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        if Path(path).exists():
            return
        if proc.poll() is not None:
            out, err = proc.communicate(timeout=5)
            raise AssertionError(
                f"daemon exited early ({proc.returncode}): {out!r} {err!r}"
            )
        time.sleep(0.05)
    raise AssertionError(f"socket {path} never appeared")


class _Client:
    """Blocking JSONL client over a Unix socket."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(10.0)
        self.sock.connect(str(path))
        self.rfile = self.sock.makefile("r", encoding="utf-8")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def recv(self):
        line = self.rfile.readline()
        return json.loads(line) if line else None

    def recv_until(self, predicate):
        seen = []
        while True:
            rec = self.recv()
            assert rec is not None, f"EOF before match; saw {seen[-5:]}"
            seen.append(rec)
            if predicate(rec):
                return seen

    def drain_to_eof(self):
        seen = []
        while True:
            rec = self.recv()
            if rec is None:
                return seen
            seen.append(rec)

    def close(self):
        try:
            self.rfile.close()
            self.sock.close()
        except OSError:
            pass


def job_op(tenant, jid, arrival, deadline, length=1.0):
    return {
        "op": "job", "tenant": tenant, "id": jid, "arrival": arrival,
        "deadline": deadline, "length": length,
    }


def test_sigterm_drain_closes_tenants_and_reconciles(tmp_path):
    sock = tmp_path / "serve.sock"
    traces = tmp_path / "traces"
    ckpt = tmp_path / "ckpt"
    proc = _spawn(
        "--unix", str(sock), "--trace-dir", str(traces),
        "--checkpoint-dir", str(ckpt), "--drain-timeout", "10",
    )
    try:
        _wait_for_socket(sock, proc)
        client = _Client(sock)
        assert client.recv()["kind"] == "serve.ready"
        for tenant in ("alpha", "beta"):
            client.send(job_op(tenant, 0, 0.0, 2.0))
            client.send(job_op(tenant, 1, 0.5, 1.5, 3.0))
        # Make sure every line is parsed before the signal arrives.
        client.send({"op": "stats"})
        stats = client.recv_until(lambda r: r["kind"] == "serve.stats")[-1]
        assert stats["lines_in"] == 5
        proc.send_signal(signal.SIGTERM)
        # The drain closes both sessions and flushes before exiting.
        seen = client.drain_to_eof()
        client.close()
        out, err = proc.communicate(timeout=TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=TIMEOUT)
    assert proc.returncode == 0, (out, err)
    assert "serving on unix:" in out
    assert "drained: 2 tenant(s)" in out
    closed = {r["tenant"] for r in seen if r["kind"] == "serve.closed"}
    assert closed == {"alpha", "beta"}
    # Drained traces reconcile under the strict explain checker.
    for tenant in ("alpha", "beta"):
        trace = traces / f"{tenant}.trace.jsonl"
        assert trace.exists()
        assert main(["obs", "explain", str(trace), "--strict"]) == 0
    # Final checkpoints landed too.
    assert sorted(p.name for p in ckpt.iterdir()) == [
        "alpha.ckpt.jsonl", "beta.ckpt.jsonl"
    ]


def test_sigkill_then_restore_is_bit_identical(tmp_path):
    pre_ops = [job_op("t1", 0, 0.0, 5.0), job_op("t1", 1, 1.0, 6.0)]
    post_ops = [job_op("t1", 2, 2.0, 7.0, 2.0)]
    # Reference: one uninterrupted session, computed in-process.
    ref_session = TenantSession("t1")
    reference = list(ref_session.hello())
    for op in pre_ops + post_ops:
        reference += ref_session.apply(dict(op))
    reference += ref_session.apply({"op": "close", "tenant": "t1"})

    ckpt = tmp_path / "ckpt"
    sock1 = tmp_path / "serve1.sock"
    proc1 = _spawn("--unix", str(sock1), "--checkpoint-dir", str(ckpt))
    delivered = []
    try:
        _wait_for_socket(sock1, proc1)
        client = _Client(sock1)
        assert client.recv()["kind"] == "serve.ready"
        for op in pre_ops:
            client.send(op)
        client.send({"op": "checkpoint", "tenant": "t1"})
        seen = client.recv_until(lambda r: r["kind"] == "serve.checkpoint")
        delivered += [r for r in seen if r["kind"] != "serve.checkpoint"]
        client.close()
    finally:
        proc1.kill()  # SIGKILL: no drain, no flush
        proc1.communicate(timeout=TIMEOUT)

    sock2 = tmp_path / "serve2.sock"
    proc2 = _spawn(
        "--unix", str(sock2), "--checkpoint-dir", str(ckpt), "--restore"
    )
    try:
        _wait_for_socket(sock2, proc2)
        client = _Client(sock2)
        ready = client.recv()
        assert ready["tenants"] == ["t1"]  # restored before serving
        for op in post_ops:
            client.send(op)
        client.send({"op": "close", "tenant": "t1"})
        seen = client.recv_until(lambda r: r["kind"] == "serve.closed")
        delivered += seen
        client.close()
        proc2.send_signal(signal.SIGTERM)
        out2, err2 = proc2.communicate(timeout=TIMEOUT)
        assert proc2.returncode == 0, (out2, err2)
    finally:
        if proc2.poll() is None:
            proc2.kill()
            proc2.communicate(timeout=TIMEOUT)

    # The full delivered stream equals the uninterrupted reference:
    # nothing replayed twice, nothing lost.
    assert delivered == reference
    started = [r["job"] for r in delivered if r["kind"] == "start"]
    assert sorted(started) == [0, 1, 2]


#: Two tenants' interleaved job streams: 7 ops each, so a cadence of 3
#: flushes twice mid-stream and leaves one op for the drain's close.
STREAMED = {
    tenant: [job_op(tenant, i, 0.5 * i, 0.5 * i + 1.0 + i % 3) for i in range(7)]
    for tenant in ("alpha", "beta")
}


def _one_shot_trace(tenant, tmp_path):
    """The trace an uninterrupted session writes at its close in one go."""
    session = TenantSession(tenant, trace=True)
    session.hello()
    for op in STREAMED[tenant]:
        session.apply(dict(op))
    session.apply({"op": "close", "tenant": tenant, "reason": "drain"})
    return trace_lines(session.write_trace(tmp_path / "one-shot"))


def _send_streams(sock, upto):
    """Send the first ``upto`` ops of each stream."""
    client = _Client(sock)
    assert client.recv()["kind"] == "serve.ready"
    for i in range(upto):
        for ops in STREAMED.values():
            client.send(ops[i])
    return client


def _wait_for_files(directory, names, deadline=10.0):
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        if directory.is_dir() and sorted(
            p.name for p in directory.iterdir()
        ) == names:
            return
        time.sleep(0.05)
    raise AssertionError(f"{names} never appeared in {directory}")


def _assert_published(traces, tmp_path):
    """Both tenants' traces and the merged one are complete and strict,
    and their rows equal one-shot writes apart from wall-clock fields."""
    assert sorted(p.name for p in traces.iterdir()) == [
        MERGED_TRACE_NAME, "alpha.trace.jsonl", "beta.trace.jsonl"
    ]
    merged = trace_lines(traces / MERGED_TRACE_NAME)
    for tenant in STREAMED:
        trace = traces / f"{tenant}.trace.jsonl"
        assert main(["obs", "explain", str(trace), "--strict"]) == 0
        expected = _one_shot_trace(tenant, tmp_path)
        assert trace_lines(trace) == expected
        mine = [r for r in merged[1:-1] if r["attrs"].get("tenant") == tenant]
        assert mine == expected[1:-1]
    assert main(
        ["obs", "explain", str(traces / MERGED_TRACE_NAME), "--strict"]
    ) == 0
    with open(traces / MERGED_TRACE_NAME, encoding="utf-8") as fh:
        stamps = [json.loads(line).get("ts") for line in fh]
    stamps = [ts for ts in stamps if ts is not None]
    assert stamps == sorted(stamps)


def test_streamed_traces_drain_equal_to_one_shot_writes(tmp_path):
    sock = tmp_path / "serve.sock"
    traces = tmp_path / "traces"
    proc = _spawn(
        "--unix", str(sock), "--trace-dir", str(traces),
        "--checkpoint-every", "3", "--drain-timeout", "10",
    )
    try:
        _wait_for_socket(sock, proc)
        client = _send_streams(sock, 7)
        _wait_for_files(
            traces, ["alpha.trace.jsonl.part", "beta.trace.jsonl.part"]
        )
        client.send({"op": "stats"})  # every line parsed before the drain
        client.recv_until(lambda r: r["kind"] == "serve.stats")
        proc.send_signal(signal.SIGTERM)
        client.drain_to_eof()
        client.close()
        out, err = proc.communicate(timeout=TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=TIMEOUT)
    assert proc.returncode == 0, (out, err)
    _assert_published(traces, tmp_path)


def test_sigkill_leaves_part_files_restore_publishes(tmp_path):
    traces = tmp_path / "traces"
    ckpt = tmp_path / "ckpt"
    dirs = ("--trace-dir", str(traces), "--checkpoint-dir", str(ckpt),
            "--checkpoint-every", "3")
    sock1 = tmp_path / "serve1.sock"
    proc1 = _spawn("--unix", str(sock1), *dirs)
    try:
        _wait_for_socket(sock1, proc1)
        # Six ops per tenant: the cadence seals and flushes all of them.
        # A checkpoint op answers only after the ops before it.
        client = _send_streams(sock1, 6)
        client.send({"op": "checkpoint"})
        client.recv_until(lambda r: r["kind"] == "serve.checkpoint")
        client.recv_until(lambda r: r["kind"] == "serve.checkpoint")
        client.close()
    finally:
        proc1.kill()  # SIGKILL mid-stream: no drain, no close
        proc1.communicate(timeout=TIMEOUT)
    assert sorted(p.name for p in traces.iterdir()) == [
        "alpha.trace.jsonl.part", "beta.trace.jsonl.part"
    ]

    sock2 = tmp_path / "serve2.sock"
    proc2 = _spawn("--unix", str(sock2), "--restore", *dirs)
    try:
        _wait_for_socket(sock2, proc2)
        client = _Client(sock2)
        assert client.recv()["tenants"] == ["alpha", "beta"]
        for ops in STREAMED.values():
            client.send(ops[6])
        client.send({"op": "stats"})
        client.recv_until(lambda r: r["kind"] == "serve.stats")
        proc2.send_signal(signal.SIGTERM)
        client.drain_to_eof()
        client.close()
        out, err = proc2.communicate(timeout=TIMEOUT)
    finally:
        if proc2.poll() is None:
            proc2.kill()
            proc2.communicate(timeout=TIMEOUT)
    assert proc2.returncode == 0, (out, err)
    _assert_published(traces, tmp_path)


def test_verify_checkpoints_cli(tmp_path):
    for tenant in ("a", "b"):
        session = TenantSession(tenant)
        session.hello()
        session.apply(job_op(tenant, 0, 0.0, 2.0))
        save_checkpoint(session, tmp_path)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve", "--verify-checkpoints",
            "--checkpoint-dir", str(tmp_path),
        ],
        cwd=REPO, env=_env(), capture_output=True, text=True, timeout=TIMEOUT,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verified 2 checkpoint(s)" in proc.stdout
    assert "a: open" in proc.stdout


def test_stdio_mode_single_session(tmp_path):
    lines = "".join(
        json.dumps(op) + "\n"
        for op in [job_op("t1", 0, 0.0, 2.0), {"op": "close", "tenant": "t1"}]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--stdio"],
        cwd=REPO, env=_env(), input=lines, capture_output=True, text=True,
        timeout=TIMEOUT,
    )
    assert proc.returncode == 0, proc.stderr
    records = [
        json.loads(line)
        for line in proc.stdout.splitlines()
        if line.startswith("{")
    ]
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "serve.ready"
    assert "serve.closed" in kinds
    # stdout is the protocol channel in stdio mode: nothing but JSONL
    # there, human-facing lines on stderr.
    assert all(line.startswith("{") for line in proc.stdout.splitlines())
    assert "drained: 1 tenant(s)" in proc.stderr


def test_stdio_mode_with_regular_file_redirection(tmp_path):
    # ``repro serve --stdio < jobs.jsonl > out.jsonl`` hands the daemon
    # regular files, which asyncio's pipe transports reject outright
    # ("Pipe transport is only for pipes, sockets and character
    # devices").  The daemon bridges those ends through a real pipe —
    # the whole stream must land in the output file before exit.
    in_path = tmp_path / "jobs.jsonl"
    out_path = tmp_path / "out.jsonl"
    in_path.write_text(
        "".join(
            json.dumps(op) + "\n"
            for op in [
                job_op("t1", 0, 0.0, 2.0),
                job_op("t1", 1, 0.5, 3.0),
                {"op": "close", "tenant": "t1"},
            ]
        )
    )
    with in_path.open("rb") as fin, out_path.open("wb") as fout:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio"],
            cwd=REPO, env=_env(), stdin=fin, stdout=fout,
            stderr=subprocess.PIPE, text=False, timeout=TIMEOUT,
        )
    assert proc.returncode == 0, proc.stderr
    records = [
        json.loads(line)
        for line in out_path.read_text().splitlines()
        if line
    ]
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "serve.ready"
    assert kinds[-1] == "serve.closed"
    assert [r["job"] for r in records if r["kind"] == "start"] == [0, 1]
    assert b"drained: 1 tenant(s)" in proc.stderr


_FAN_IN_SCRIPT = r"""
import itertools, json, resource, sys
from pathlib import Path
from repro.obs.recorder import TraceRecorder
from repro.serve.daemon import write_merged_trace
from repro.serve.session import TenantSession

out, tenants, limit = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
ticks = itertools.count()
# A coarse shared clock: rows of different tenants tie on ``ts``.
TraceRecorder._now = lambda self: float(next(ticks) // 50)
sessions = []
for k in range(tenants):
    name = f"t{k:02d}"
    session = TenantSession(name, trace=True, log_ops=False)
    session.recorder.epoch = 0.0
    session.hello()
    for i in range(6):
        session.apply({"op": "job", "tenant": name, "id": i,
                       "arrival": float(i), "deadline": i + 1.0,
                       "length": 1.0})
        if i % 2:
            session.flush_trace(out)
    if k % 3:
        session.apply({"op": "close", "tenant": name})
        session.write_trace(out)
    sessions.append(session)
rows = [row for s in sessions for row in s.trace_rows()]
expected = sorted(rows, key=lambda row: row["ts"])  # stable: tenant order
assert len({row["ts"] for row in rows}) < len(rows) // 4
soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
try:  # one file per tenant at once no longer fits
    held = [open(path) for path in sorted(out.glob("t*.trace.jsonl*"))]
except OSError:
    pass
else:
    raise SystemExit("the open-file limit did not bite")
path = write_merged_trace(sessions, out)
got = [json.loads(line) for line in Path(path).read_text().splitlines()]
assert got[0]["kind"] == "meta" and got[0]["tenants"] == [s.tenant for s in sessions]
assert got[-1]["kind"] == "metrics"
assert got[1:-1] == expected, "merge differs from a one-pass stable merge"
assert not [p for p in out.iterdir() if p.name.startswith(".merge")]
print("merged", len(got) - 2)
"""


def test_merged_trace_fits_a_low_open_file_limit(tmp_path):
    """More traced tenants than the soft open-file limit allows at once
    still merge, in passes, into exactly the one-pass rows (ties in
    tenant order)."""
    proc = subprocess.run(
        [sys.executable, "-c", _FAN_IN_SCRIPT, str(tmp_path), "40", "16"],
        cwd=REPO, env=_env(), capture_output=True, text=True, timeout=TIMEOUT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("merged ")
