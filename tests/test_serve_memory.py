"""What a served tenant keeps in memory, measured with ``tracemalloc``.

A session keeps only what is not yet on disk: no op log without a
checkpoint journal, only the journal's unsealed ops with one, and only
the trace records of the current flush window.  And it keeps only what
is live: at each idle instant it folds its past, so from ``N`` to
``4 N`` jobs a folding session grows by the 8-byte covered length it
keeps per job and a closed one by nothing.  The byte bounds are
measured inside each test, against the bare streaming engine or the
session itself at ``N`` jobs, so they hold across interpreter versions.
"""

from __future__ import annotations

import gc
import tracemalloc
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import pytest

from repro.core.engine import Simulator
from repro.core.job import Instance
from repro.obs.live import LiveAggregator, TenantTelemetry
from repro.schedulers import BatchPlus
from repro.schedulers.registry import SCHEDULERS
from repro.serve.checkpoint import save_checkpoint
from repro.serve.protocol import job_from_op
from repro.serve.session import TenantSession

#: Jobs in the retained-bytes probe.
N = 20_000

#: Jobs at the first measurement of the flat-memory probes (then 4×).
N_FLAT = 10_000

#: What a folding session may keep per job: the 8-byte covered length.
#: The array holding them over-allocates by up to 1/16, which from N to
#: 4N jobs reads at most 8.7 B per job.
PER_JOB_BYTES = 9.0

#: serve_paced's schedulers, one per closed tenant in turn.
PACED = ("batch", "batch+", "cdb", "profit")


def disjoint_op(i: int) -> dict[str, Any]:
    """Job ``i`` of the probe: laxity 1, arrivals 3 apart, so each job
    runs alone and every one is its own batch+ iteration."""
    return {
        "op": "job", "tenant": "t", "id": i, "arrival": 3.0 * i,
        "deadline": 3.0 * i + 1.0, "length": 1.0,
    }


def burst_op(i: int, tenant: str = "t") -> dict[str, Any]:
    """Job ``i`` of the flat-memory probes: bursts of 8 jobs 0.1 apart,
    each burst done before the next begins, so the tenant goes idle
    (and folds) once per burst."""
    arrival = 10.0 * (i // 8) + 0.1 * (i % 8)
    return {
        "op": "job", "tenant": tenant, "id": i, "arrival": arrival,
        "deadline": arrival + 1.0, "length": 1.0,
    }


def traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@contextmanager
def tracing() -> Iterator[None]:
    """Trace allocations.  The objects alive before are frozen out of
    the cyclic collector meanwhile, so a long test process's heap does
    not slow the probe's collections."""
    gc.collect()
    gc.freeze()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        gc.unfreeze()


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


@pytest.mark.parametrize(
    "scheduler", sorted(n for n, cls in SCHEDULERS.items() if cls.foldable)
)
def test_folding_session_keeps_only_covered_lengths_per_job(scheduler):
    """From N to 4N jobs the session grows by its 8 B covered lengths:
    engine rows, scheduler history and telemetry follow the live set."""
    with tracing():
        base = traced()
        session = TenantSession(
            "t", scheduler=scheduler, telemetry=TenantTelemetry("t"),
            log_ops=False,
        )
        session.hello()
        for i in range(N_FLAT):
            session.apply(burst_op(i))
        at_n = traced() - base
        for i in range(N_FLAT, 4 * N_FLAT):
            session.apply(burst_op(i))
        at_4n = traced() - base
    growth = (at_4n - at_n) / (3 * N_FLAT)
    assert growth <= PER_JOB_BYTES, (growth, at_n, at_4n)


def closed_tenants(jobs_per_tenant: int) -> tuple[LiveAggregator, list[TenantSession]]:
    """20 tenants over serve_paced's schedulers, each served
    ``jobs_per_tenant`` jobs and closed, with their telemetry."""
    live = LiveAggregator()
    sessions = []
    for k in range(20):
        name = f"t{k}"
        session = TenantSession(
            name, scheduler=PACED[k % len(PACED)],
            telemetry=live.tenant(name), log_ops=False,
        )
        session.hello()
        for i in range(jobs_per_tenant):
            session.apply(burst_op(i, name))
        session.apply({"op": "close", "tenant": name})
        sessions.append(session)
    return live, sessions


def test_closed_tenants_keep_only_their_summary():
    """Many closed tenants: from N to 4N jobs served in all, what they
    keep does not grow (no engine, no scheduler, folded telemetry)."""
    kept = {}
    for total in (N_FLAT, 4 * N_FLAT):
        with tracing():
            base = traced()
            tenants = closed_tenants(total // 20)
            kept[total] = traced() - base
        live, sessions = tenants
        assert all(s.sim is None and s.closed for s in sessions)
        del tenants, live, sessions
    growth = (kept[4 * N_FLAT] - kept[N_FLAT]) / (3 * N_FLAT)
    assert growth <= PER_JOB_BYTES, (growth, kept)
