"""What a served tenant keeps in memory, measured with ``tracemalloc``.

A session keeps only what is not yet on disk: no op log without a
checkpoint journal, only the journal's unsealed ops with one, and only
the trace records of the current flush window.  The byte bounds are
measured inside each test against the bare streaming engine, so they
hold across interpreter versions.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Any, Callable

import pytest

from repro.core.engine import Simulator
from repro.core.job import Instance
from repro.obs.live import TenantTelemetry
from repro.schedulers import BatchPlus
from repro.serve.checkpoint import save_checkpoint
from repro.serve.protocol import job_from_op
from repro.serve.session import TenantSession

#: Jobs in the retained-bytes probe.
N = 20_000


def disjoint_op(i: int) -> dict[str, Any]:
    """Job ``i`` of the probe: laxity 1, arrivals 3 apart, so each job
    runs alone and every one is its own batch+ iteration."""
    return {
        "op": "job", "tenant": "t", "id": i, "arrival": 3.0 * i,
        "deadline": 3.0 * i + 1.0, "length": 1.0,
    }


def retained_per_job(build: Callable[[int], Any]) -> float:
    """Bytes still allocated per job after ``build(N)``, object kept."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build(N)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return (after - before) / N


def bare_engine(n: int) -> Simulator:
    sim = Simulator(BatchPlus(), instance=Instance([], name="bare"))
    sim.start_stream()
    for i in range(n):
        job = job_from_op(disjoint_op(i))
        sim.feed([job])
        sim.advance(job.arrival, inclusive=False)
    return sim


def untraced_session(n: int) -> TenantSession:
    session = TenantSession(
        "t", telemetry=TenantTelemetry("t"), log_ops=False
    )
    session.hello()
    for i in range(n):
        session.apply(disjoint_op(i))
    return session


def test_untraced_unjournaled_session_stays_near_the_bare_engine():
    bare = retained_per_job(bare_engine)
    served = retained_per_job(untraced_session)
    assert served <= 1.25 * bare, (served, bare)


def test_session_without_journal_keeps_no_op_log(tmp_path):
    session = untraced_session(10)
    assert session.input_log is None
    assert session.ops == 10
    with pytest.raises(RuntimeError, match="keeps no op log"):
        save_checkpoint(session, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_journaled_session_log_is_empty_after_each_save(tmp_path):
    session = TenantSession("t")
    session.hello()
    for i in range(200):
        session.apply(disjoint_op(i))
        assert len(session.input_log) == session.ops_since_checkpoint
        if session.ops_since_checkpoint == 64:
            save_checkpoint(session, tmp_path)
            assert session.input_log == []
    session.apply({"op": "close", "tenant": "t"})
    save_checkpoint(session, tmp_path)
    assert session.input_log == []
    assert session.ops == 201


def test_traced_session_holds_at_most_one_flush_window(tmp_path):
    """Flushed every 64 ops, a traced session holds exactly the records
    made since its last flush, never the stream's."""
    session = TenantSession("t", trace=True, log_ops=False)
    recorder = session.recorder
    assert recorder is not None
    session.hello()
    made = held_max = 0
    window = len(recorder.records)
    for i in range(1000):
        before = len(recorder.records)
        session.apply(disjoint_op(i))
        window += len(recorder.records) - before
        held_max = max(held_max, len(recorder.records))
        assert len(recorder.records) == window
        if session.ops_since_checkpoint == 64:
            session.flush_trace(tmp_path)
            assert recorder.records == [] and session.ops_since_checkpoint == 0
            made += window
            window = 0
    made += window
    session.apply({"op": "close", "tenant": "t"})
    path = session.write_trace(tmp_path)
    with open(path, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh)
    assert rows - 2 > made  # meta + metrics, plus the close's records
    assert held_max * 10 < made
