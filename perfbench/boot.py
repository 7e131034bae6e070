"""Traced-run bootstrap: wrap the public layer functions, then run a program.

Usage::

    python perfbench/boot.py OUT.json -m repro serve ...
    python perfbench/boot.py OUT.json perfbench/paper.py --seed 1

The wrappers time each call into a layer and keep every span in memory
(compact per-thread arrays: wall and thread-CPU start and end, parent
span, layer, op id).  A GC pause becomes a child span of whatever span
it interrupted.  On ``SIGUSR1`` or at exit the spans are folded into
per-layer totals and written to ``OUT.json`` atomically: calls, busy
time (wall, so it includes waits such as a blocked ``send``) and self
time (thread CPU minus the CPU of the child spans), whose sum the
caller subtracts from the process CPU.

Queue waits are matched by object identity: ``parse_op``'s result is
held until the same dict enters ``TenantSession.apply``, and each output
record is held from ``apply``'s return until it enters
``encode_record``, so no id is reused while it is being matched.
"""

from __future__ import annotations

import asyncio
import atexit
import gc
import json
import os
import runpy
import signal
import sys
import threading
from array import array
from time import perf_counter, thread_time

_local = threading.local()
_buffers: list["_Buffer"] = []
_names: list[str] = []
_name_ids: dict[str, int] = {}
_counters: dict[str, float] = {}
_pending_ops: dict[int, tuple] = {}
_pending_records: dict[int, tuple] = {}
_tenant_waits = array("d")
_out_waits = array("d")
_instances: dict[int, object] = {}
_state = {"op": -1, "op_seq": 0, "written": False}


class _Buffer:
    __slots__ = ("t0", "t1", "c0", "c1", "parent", "name", "op", "stack")

    def __init__(self) -> None:
        self.t0 = array("d")
        self.t1 = array("d")
        self.c0 = array("d")
        self.c1 = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.stack: list[int] = []


def _buffer() -> _Buffer:
    buf = getattr(_local, "buf", None)
    if buf is None:
        buf = _local.buf = _Buffer()
        _buffers.append(buf)
    return buf


def _name_id(name: str) -> int:
    idx = _name_ids.get(name)
    if idx is None:
        idx = _name_ids[name] = len(_names)
        _names.append(name)
    return idx


def _add(counter: str, value: float = 1.0) -> None:
    _counters[counter] = _counters.get(counter, 0.0) + value


def _open(buf: _Buffer, name_id: int) -> int:
    stack = buf.stack
    sid = len(buf.t0)
    buf.parent.append(stack[-1] if stack else -1)
    buf.name.append(name_id)
    buf.op.append(_state["op"])
    buf.t1.append(0.0)
    buf.c1.append(0.0)
    stack.append(sid)
    buf.t0.append(perf_counter())
    buf.c0.append(thread_time())
    return sid


def _close(buf: _Buffer, sid: int) -> float:
    buf.c1[sid] = thread_time()
    now = perf_counter()
    buf.t1[sid] = now
    buf.stack.pop()
    return now


def span(name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(result, args, end_time)`` may count."""
    name_id = _name_id(name)
    local = _local
    state = _state

    def traced(*args, **kwargs):
        # _open/_close inlined: this runs several times per served op.
        buf = getattr(local, "buf", None) or _buffer()
        stack = buf.stack
        sid = len(buf.t0)
        buf.parent.append(stack[-1] if stack else -1)
        buf.name.append(name_id)
        buf.op.append(state["op"])
        buf.t1.append(0.0)
        buf.c1.append(0.0)
        stack.append(sid)
        buf.t0.append(perf_counter())
        buf.c0.append(thread_time())
        try:
            result = fn(*args, **kwargs)
        finally:
            buf.c1[sid] = thread_time()
            end = perf_counter()
            buf.t1[sid] = end
            stack.pop()
        if after is not None:
            after(result, args, end)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def _on_gc(phase: str, info: dict) -> None:
    buf = _buffer()
    if phase == "start":
        _open(buf, _name_id("runtime.gc"))
        if info.get("generation") == 2:
            _add("runtime.gc.collections_gen2")
    elif buf.stack and buf.name[buf.stack[-1]] == _name_ids["runtime.gc"]:
        sid = buf.stack[-1]
        end = _close(buf, sid)
        pause = end - buf.t0[sid]
        if pause > _counters.get("runtime.gc.pause_max_s", 0.0):
            _counters["runtime.gc.pause_max_s"] = pause


# ------------------------------------------------------------------ layers
def _patch(module, attr: str, wrapper_for) -> None:
    """Replace ``module.attr`` and every ``repro`` module's alias of it."""
    original = getattr(module, attr)
    wrapped = wrapper_for(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)
    setattr(module, attr, wrapped)


def _install() -> None:
    import repro.analysis.certify as certify
    import repro.core.engine as engine
    import repro.offline.decompose_instance as decompose
    import repro.serve.daemon as daemon
    import repro.serve.protocol as protocol
    import repro.serve.session as session
    from repro.core.errors import SolverError
    from repro.obs.live import TenantTelemetry

    def after_parse(op, _args, end):
        seq = _state["op_seq"]
        _state["op_seq"] = seq + 1
        _pending_ops[id(op)] = (op, end, seq)

    parse = daemon.parse_op

    def parse_op(raw):
        try:
            return traced_parse(raw)
        except protocol.ProtocolError:
            _add("protocol.parse.errors")
            raise

    traced_parse = span("protocol.parse", parse, after_parse)
    daemon.parse_op = parse_op
    session.job_from_op = span("protocol.job_from_op", session.job_from_op)

    def after_encode(data, _args, _end):
        _add("protocol.encode.bytes", len(data))

    encode = span("protocol.encode", daemon.encode_record, after_encode)

    def encode_record(record):
        held = _pending_records.pop(id(record), None)
        if held is not None:
            _out_waits.append(perf_counter() - held[1])
        return encode(record)

    daemon.encode_record = encode_record

    def hold_records(records, _args, end):
        _add("session.records_out", len(records))
        op = _state["op"]
        for record in records:
            _pending_records[id(record)] = (record, end, op)

    apply = span("session.apply", session.TenantSession.apply, hold_records)

    def apply_op(self, op):
        held = _pending_ops.pop(id(op), None)
        if held is not None:
            _tenant_waits.append(perf_counter() - held[1])
            _state["op"] = held[2]
        try:
            return apply(self, op)
        finally:
            _state["op"] = -1

    session.TenantSession.apply = apply_op
    session.TenantSession.hello = span("session.hello", session.TenantSession.hello, hold_records)

    def file_bytes(counter):
        def after(path, _args, _end):
            _add(counter, os.path.getsize(path))
        return after

    session.TenantSession.write_trace = span(
        "trace.write", session.TenantSession.write_trace, file_bytes("trace.write.bytes"))
    daemon.save_checkpoint = span(
        "checkpoint.save", daemon.save_checkpoint, file_bytes("checkpoint.save.bytes"))
    daemon.restore_all = span("checkpoint.restore", daemon.restore_all)

    sim = engine.Simulator
    sim.feed = span("engine.feed", sim.feed)
    sim.advance = span("engine.advance", sim.advance,
                       lambda n, _a, _e: _add("engine.advance.events", n))
    sim.finish_stream = span("engine.finish", sim.finish_stream)
    _patch(engine, "simulate", lambda fn: span(
        "engine.simulate", fn, lambda r, _a, _e: _add("engine.simulate.events", r.events_processed)))
    TenantTelemetry.observe = span("live.observe", TenantTelemetry.observe)

    _patch(certify, "span_lower_bound", lambda fn: span("offline.lower_bound", fn))
    _patch(certify, "best_offline_span", lambda fn: span("offline.heuristic", fn))

    def exact(fn):
        inner = span("offline.exact", fn)

        def attempt(*args, **kwargs):
            _add("offline.exact.attempts")
            try:
                return inner(*args, **kwargs)
            except SolverError:
                _add("offline.exact.fallbacks")
                raise

        return attempt

    _patch(certify, "exact_optimal_span_float", exact)
    _patch(decompose, "exact_optimal_span_decomposed", exact)

    def after_bracket(_r, args, _e):
        _instances[id(args[0])] = args[0]

    _patch(certify, "bracket_optimum", lambda fn: span("certify.bracket", fn, after_bracket))

    writer = asyncio.StreamWriter
    writer.write = span("transport.write", writer.write)
    drain = writer.drain

    async def timed_drain(self):
        # A wait, not a span: other tasks run while it is suspended.
        t0 = perf_counter()
        try:
            return await drain(self)
        finally:
            _add("transport.drain.wait_s", perf_counter() - t0)

    writer.drain = timed_drain
    gc.callbacks.append(_on_gc)


# ----------------------------------------------------------------- summary
def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summary() -> dict:
    """Fold every span into per-layer calls / busy / self totals."""
    layers: dict[str, list[float]] = {}
    total_self = 0.0
    spans = 0
    for buf in list(_buffers):
        n = len(buf.t1)
        child_cpu = [0.0] * n
        for sid in range(n - 1, -1, -1):
            parent = buf.parent[sid]
            if buf.t1[sid] and parent >= 0:  # t1 == 0: still open at the dump
                child_cpu[parent] += buf.c1[sid] - buf.c0[sid]
        for sid in range(n):
            if not buf.t1[sid]:
                continue
            own = buf.c1[sid] - buf.c0[sid] - child_cpu[sid]
            total_self += own
            spans += 1
            entry = layers.setdefault(_names[buf.name[sid]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += buf.t1[sid] - buf.t0[sid]
            entry[2] += own
    return {
        "layers": {k: {"calls": v[0], "busy_s": v[1], "self_s": v[2]} for k, v in layers.items()},
        "counters": dict(_counters),
        "tenant_queue_wait_s": [_percentile(_tenant_waits, 0.5), _percentile(_tenant_waits, 0.99)],
        "out_queue_wait_s": [_percentile(_out_waits, 0.5), _percentile(_out_waits, 0.99)],
        "instances": len(_instances),
        "total_self_s": total_self,
        "spans": spans,
    }


def _write(path: str) -> None:
    if _state["written"]:
        return
    _state["written"] = True
    gc.disable()  # the fold allocates; keep its own collections out of the spans
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(summary(), fh)
    os.replace(tmp, path)


def main() -> None:
    if len(sys.argv) < 3:
        raise SystemExit("usage: boot.py OUT.json (-m MODULE | SCRIPT) [ARGS...]")
    out = os.path.abspath(sys.argv[1])
    target = sys.argv[2:]
    _install()
    signal.signal(signal.SIGUSR1, lambda _s, _f: _write(out))
    atexit.register(_write, out)
    if target[0] == "-m":
        sys.argv = [target[1], *target[2:]]
        runpy.run_module(target[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(target)
        sys.path.insert(0, os.path.dirname(os.path.abspath(target[0])))
        runpy.run_path(target[0], run_name="__main__")


if __name__ == "__main__":
    main()
