"""A served tenant folds its past at idle instants, and nothing it
serves, traces or reports changes.

The long-stream property: for every scheduler that declares
``foldable``, a folding session and the same session with folding
turned off give the same served bytes (``serve.closed`` included), the
same final telemetry snapshot and the same streamed trace rows apart
from wall-clock fields, over streams with ``advance`` ops, a duplicate
of a folded id and a kill-and-restore mid-stream.  The declaration
check: after every fold, no view of a dropped row can be reached from
the scheduler.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from types import BuiltinFunctionType, FunctionType, ModuleType
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarCore
from repro.core.engine import JobView, SchedulerContext, Simulator
from repro.core.errors import SimulationError
from repro.obs.live import TenantTelemetry
from repro.obs.recorder import Recorder
from repro.schedulers.registry import SCHEDULERS, scheduler_names
from repro.serve.checkpoint import load_checkpoint, replay_summary, save_checkpoint
from repro.serve.protocol import ProtocolError, encode_record
from repro.serve.session import TenantSession

TENANT = "f1"
FOLDING = sorted(name for name, cls in SCHEDULERS.items() if cls.foldable)
#: serve_paced's schedulers: each must declare.
PACED = ("batch", "batch+", "cdb", "profit")


def op_stream(seed: int, n: int = 240) -> list[dict[str, Any]]:
    """Bursts of jobs with idle gaps, ``advance`` ops, a duplicate of an
    early (by then folded) id, an advance into the past, then close."""
    rng = np.random.default_rng(seed)
    ops: list[dict[str, Any]] = []
    t = 0.0
    for i in range(n):
        if i and rng.random() < 0.12:
            t = round(t + float(rng.uniform(12.0, 20.0)), 2)
        elif i and rng.random() > 0.3:
            t = round(t + float(rng.exponential(0.8)), 2)
        laxity = 0.0 if rng.random() < 0.2 else round(float(rng.uniform(0, 6)), 2)
        ops.append({
            "op": "job", "tenant": TENANT, "id": i, "arrival": t,
            "deadline": round(t + laxity, 2),
            "length": round(float(rng.uniform(0.5, 5.0)), 2),
        })
        if rng.random() < 0.08:
            t = round(t + float(rng.uniform(0.0, 8.0)), 2)
            ops.append({"op": "advance", "tenant": TENANT, "t": t})
        if i == (2 * n) // 3:
            ops.append(dict(ops[0]))  # a duplicate of a folded id
            ops.append({"op": "advance", "tenant": TENANT, "t": t - 1.0})
    ops.append({"op": "close", "tenant": TENANT})
    return ops


def _trace_rows(path: str) -> list[dict[str, Any]]:
    """A written trace without its wall-clock fields."""
    rows = []
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        row.pop("ts", None)
        attrs = row.get("attrs")
        if isinstance(attrs, dict):
            attrs.pop("wall_s", None)
        if row.get("kind") == "metrics":
            hists = row["data"]["histograms"]
            for name in list(hists):
                if name.startswith("span."):
                    hists[name] = {"count": hists[name]["count"]}
        rows.append(row)
    return rows


def serve(
    scheduler: str,
    ops: list[dict[str, Any]],
    tmp: Path,
    *,
    restore_at: int | None = None,
) -> dict[str, Any]:
    """Serve ``ops`` through one session, the daemon's way (a trace
    flushed every 7 ops); with ``restore_at``, checkpoint there, drop
    the session and go on from a restore of the checkpoint."""
    telemetry = TenantTelemetry(TENANT)
    session = TenantSession(
        TENANT, scheduler=scheduler, telemetry=telemetry, trace=True
    )
    served = [encode_record(r) for r in session.hello()]
    for i, op in enumerate(ops):
        if i == restore_at:
            path = save_checkpoint(session, tmp / "ckpt")
            telemetry = TenantTelemetry(TENANT)  # the crash loses it
            session = TenantSession.restore(
                *load_checkpoint(path), telemetry=telemetry, trace=True
            )
        try:
            served += [encode_record(r) for r in session.apply(op)]
        except (ProtocolError, SimulationError) as exc:
            served.append(f"{type(exc).__name__}: {exc}".encode())
        if i % 7 == 6 and not session.closed:
            session.flush_trace(tmp / "trace")
    return {
        "served": served,
        "telemetry": telemetry.snapshot(),
        "trace": _trace_rows(session.write_trace(tmp / "trace")),
        "session": session,
    }


@pytest.mark.parametrize("scheduler", FOLDING)
@given(seed=st.integers(0, 2**20), cut=st.floats(0.1, 0.9))
@settings(max_examples=6, deadline=None)
def test_folding_session_serves_what_an_unfolded_one_does(
    scheduler, seed, cut, tmp_path_factory
):
    ops = op_stream(seed)
    restore_at = int(cut * len(ops))
    folds = []
    real_fold = Simulator.fold

    def counting(self):
        dropped = real_fold(self)
        folds.append(dropped)
        return dropped

    Simulator.fold = counting
    try:
        got = serve(scheduler, ops, tmp_path_factory.mktemp("fold"),
                    restore_at=restore_at)
    finally:
        Simulator.fold = real_fold
    Simulator.fold = lambda self: 0  # the unfolded reference
    try:
        want = serve(scheduler, ops, tmp_path_factory.mktemp("plain"))
    finally:
        Simulator.fold = real_fold
    assert sum(folds) > len(ops) // 3  # the stream really folded
    assert got["served"] == want["served"]
    assert got["telemetry"] == want["telemetry"]
    assert got["trace"] == want["trace"]
    dup = b"SimulationError: duplicate job id 0 admitted"
    assert got["served"].count(dup) == 1


def test_stream_folds_before_its_duplicate():
    """The duplicate in the property streams arrives after its id was
    folded, so the rejection comes from the folded id runs."""
    ops = op_stream(3)
    session = TenantSession(TENANT, scheduler="batch+", log_ops=False)
    session.hello()
    first_dup = next(i for i, op in enumerate(ops[1:], 1) if op.get("id") == 0)
    for op in ops[:first_dup]:
        session.apply(op)
    assert session.sim is not None
    assert 0 not in session.sim._core._table.idx_of
    with pytest.raises(SimulationError, match="duplicate job id 0 admitted"):
        session.apply(ops[first_dup])


def test_the_paced_schedulers_declare():
    assert set(PACED) <= set(FOLDING)


_OPAQUE = (
    type, ModuleType, FunctionType, BuiltinFunctionType, SchedulerContext,
    ColumnarCore, Recorder, np.ndarray, str, bytes, int, float,
)


def reachable_views(root: object) -> list[JobView]:
    """Every ``JobView`` reachable from ``root``'s own state (the engine,
    the context and the recorders are not followed)."""
    seen: set[int] = set()
    stack = [root]
    views = []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, JobView):
            views.append(obj)
        elif obj is root or not isinstance(obj, _OPAQUE):
            stack.extend(gc.get_referents(obj))
    return views


@pytest.mark.parametrize("scheduler", scheduler_names())
def test_declaration_holds_after_every_fold(scheduler):
    """A declaring scheduler reaches no view of a dropped row after any
    fold; under a declining one the engine never folds."""
    session = TenantSession(TENANT, scheduler=scheduler, log_ops=False)
    session.hello()
    sim = session.sim
    assert sim is not None
    sched = sim._core._scheduler
    dropped = 0
    for op in op_stream(11)[:-1]:
        try:
            session.apply(op)
        except (ProtocolError, SimulationError):
            continue
        folded = sim._core._past.jobs if sim._core._past is not None else 0
        if folded != dropped:
            dropped = folded
            for view in reachable_views(sched):
                view.id  # raises SimulationError on a detached view
    if SCHEDULERS[scheduler].foldable:
        assert dropped > 100
    else:
        assert dropped == 0


def test_folded_scheduler_drops_its_history():
    session = TenantSession(TENANT, scheduler="cdb", log_ops=False)
    session.hello()
    for op in op_stream(5)[:60]:
        session.apply(op)
    sched = session.sim._core._scheduler
    assert len(sched._job_category) < 20
    assert all(len(sub.iterations) < 20 for sub in sched._categories.values())


def test_closed_session_keeps_only_its_summary(tmp_path):
    ops = [op for op in op_stream(9) if op["op"] != "advance" or op["t"] > 0]
    session = TenantSession(TENANT, scheduler="profit", trace=True)
    session.hello()
    outs = []
    for op in ops:
        try:
            outs += session.apply(op)
        except (ProtocolError, SimulationError):
            pass
    closed = outs[-1]
    assert closed["kind"] == "serve.closed"
    assert session.sim is None and session.closed
    assert session.result is not None
    assert session.result.span == closed["span"]
    assert session.result.events_processed == closed["events"]
    assert session.result.scheduler is None
    with pytest.raises(SimulationError, match="closed"):
        session.result.schedule
    assert session.clock >= ops[-2].get("arrival", 0.0) > 0
    path = session.write_trace(tmp_path)
    assert Path(path).name == f"{TENANT}.trace.jsonl"
    save_checkpoint(session, tmp_path)
    summary = replay_summary(str(tmp_path / f"{TENANT}.ckpt.jsonl"))
    assert summary["jobs"] == session.jobs == 240
    assert summary["span"] == closed["span"]
    assert summary["clock"] == session.clock
