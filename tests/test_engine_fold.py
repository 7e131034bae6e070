"""Folding a streaming run: the engine drops its completed rows at idle
instants (``Simulator.fold``), and nothing it reports changes.

A folded stream's span, event count, obs records and metrics must equal
the unfolded stream's bit for bit, the span must still equal the batch
run's (``simulate``), and what the fold drops must be gone for real:
views detach, ids move into runs, the columns keep their capacity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Instance, Job, simulate
from repro.core.engine import Simulator
from repro.core.errors import SchedulingViolationError, SimulationError
from repro.obs import TraceRecorder
from repro.schedulers import OnlineScheduler
from repro.schedulers.registry import SCHEDULERS, make_scheduler

#: Registry schedulers that let a stream fold.
FOLDING = sorted(name for name, cls in SCHEDULERS.items() if cls.foldable)
DECLINING = sorted(name for name, cls in SCHEDULERS.items() if not cls.foldable)


def bursty_jobs(seed: int, n: int = 400) -> list[Job]:
    """Bursts of jobs with idle gaps between them, in arrival order."""
    rng = np.random.default_rng(seed)
    jobs = []
    t = 0.0
    for i in range(n):
        if rng.random() < 0.15:
            t += float(rng.uniform(12.0, 20.0))  # past every running job
        else:
            t += float(rng.exponential(0.8))
        length = float(rng.uniform(0.5, 5.0))
        laxity = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 6.0))
        jobs.append(Job(id=i, arrival=t, deadline=t + laxity, length=length))
    return jobs


def stream(name: str, jobs: list[Job], *, fold: bool, recorder=None):
    """Feed ``jobs`` the serve-session way; fold after each step."""
    sim = Simulator(
        make_scheduler(name),
        instance=Instance([], name="fold"),
        clairvoyant=SCHEDULERS[name].requires_clairvoyance,
        recorder=recorder,
    )
    sim.start_stream()
    folded = 0
    for job in jobs:
        sim.feed([job])
        sim.advance(job.arrival, inclusive=False)
        if fold:
            folded += sim.fold()
    return sim, sim.finish_stream(), folded


def _records(rec: TraceRecorder) -> list[tuple]:
    out = []
    for r in rec.records:
        attrs = dict(r.attrs)
        attrs.pop("wall_s", None)
        out.append((r.kind, r.name, attrs))
    return out


def _metrics(rec: TraceRecorder) -> dict:
    data = rec.metrics.to_dict()
    for name in list(data["histograms"]):
        if name.startswith("span."):  # wall-clock durations
            del data["histograms"][name]
    return data


@pytest.mark.parametrize("name", FOLDING)
def test_folded_stream_reports_what_the_unfolded_one_does(name):
    jobs = bursty_jobs(7)
    rec_plain, rec_fold = TraceRecorder(), TraceRecorder()
    _, plain, none = stream(name, jobs, fold=False, recorder=rec_plain)
    _, folded, dropped = stream(name, jobs, fold=True, recorder=rec_fold)
    assert none == 0 and dropped > len(jobs) // 2
    batch = simulate(
        make_scheduler(name),
        Instance(jobs),
        clairvoyant=SCHEDULERS[name].requires_clairvoyance,
    )
    assert folded.span == plain.span == batch.span  # bit for bit
    assert folded.events_processed == plain.events_processed
    # A fold emits nothing; engine.jobs, run_end's jobs and the
    # engine.job_length histogram count the folded rows too.
    assert _records(rec_fold) == _records(rec_plain)
    assert _metrics(rec_fold) == _metrics(rec_plain)
    assert _metrics(rec_fold)["counters"]["engine.jobs"] == len(jobs)


def multiscale_jobs(seed: int, n: int = 2000) -> list[Job]:
    """Bursty jobs whose time scale grows from 1e-3 to 1e4: their covered
    lengths carry bits at many scales, so float sums of them depend on
    the order of the additions (one scale would make every order exact)."""
    rng = np.random.default_rng(seed)
    jobs = []
    t = 0.0
    for i in range(n):
        scale = 10.0 ** (-3 + 7 * i / n)
        t += float(rng.exponential(scale)) * (8.0 if rng.random() < 0.15 else 0.4)
        length = float(rng.uniform(0.5, 2.0)) * scale
        laxity = float(rng.uniform(0.0, 3.0)) * scale
        jobs.append(Job(id=i, arrival=t, deadline=t + laxity, length=length))
    return jobs


@pytest.mark.parametrize("seed", range(8))
def test_span_of_a_long_folded_stream_is_bit_identical(seed):
    """The span sums every row's covered length in one pairwise sum, as
    the unfolded run does; a sum of partial sums would differ."""
    jobs = multiscale_jobs(seed)
    _, plain, _ = stream("batch+", jobs, fold=False)
    _, folded, dropped = stream("batch+", jobs, fold=True)
    assert dropped > 1900
    assert folded.span == plain.span
    assert folded.events_processed == plain.events_processed


def test_folded_result_keeps_span_and_events_only():
    _, result, dropped = stream("batch+", bursty_jobs(3), fold=True)
    assert dropped and result.span > 0 and result.events_processed > 0
    with pytest.raises(SimulationError, match="folded"):
        result.schedule
    with pytest.raises(SimulationError, match="folded"):
        result.instance


def test_stream_that_never_folds_keeps_its_schedule():
    jobs = bursty_jobs(3, n=50)
    _, result, _ = stream("batch+", jobs, fold=False)
    assert len(result.instance.jobs) == 50
    result.schedule.validate()


@pytest.mark.parametrize("name", DECLINING)
def test_declining_scheduler_never_folds(name):
    _, _, dropped = stream(name, bursty_jobs(5, n=120), fold=True)
    assert dropped == 0


def test_batch_run_never_folds():
    sim = Simulator(make_scheduler("batch+"), instance=Instance(bursty_jobs(1, 30)))
    sim.run()
    assert sim.fold() == 0


def test_fold_waits_for_an_idle_instant():
    sim = Simulator(make_scheduler("eager"), instance=Instance([]))
    sim.start_stream()
    sim.feed([Job(id=1, arrival=0.0, deadline=0.0, length=4.0)])
    sim.advance(1.0)
    assert sim.fold() == 0  # job 1 is running
    sim.advance(4.0)
    assert sim.fold() == 1
    sim.feed([Job(id=2, arrival=5.0, deadline=6.0, length=1.0)])
    assert sim.fold() == 0  # only an unarrived row is left
    assert sim.finish_stream().span == 5.0


def test_rows_done_behind_an_unarrived_row_stay():
    """Fed out of arrival order, the done rows are no prefix: no fold
    until the earlier row is done too."""
    sim = Simulator(make_scheduler("eager"), instance=Instance([]))
    sim.start_stream()
    sim.feed([Job(id=1, arrival=10.0, deadline=10.0, length=1.0)])
    sim.feed([Job(id=2, arrival=0.0, deadline=0.0, length=1.0)])
    sim.advance(5.0)
    assert sim.fold() == 0
    sim.advance(12.0)
    assert sim.fold() == 2
    assert sim.finish_stream().span == 2.0


def test_duplicate_of_a_folded_id_is_rejected():
    sim = Simulator(make_scheduler("eager"), instance=Instance([]))
    sim.start_stream()
    for i in (5, 6, 7, 9):
        sim.feed([Job(id=i, arrival=float(i), deadline=float(i), length=0.5)])
        sim.advance(float(i) + 1.0)
        assert sim.fold() == 1
    for jid in (5, 6, 7, 9):
        with pytest.raises(SimulationError, match=f"duplicate job id {jid} admitted"):
            sim.feed([Job(id=jid, arrival=20.0, deadline=20.0, length=1.0)])
    sim.feed([Job(id=8, arrival=20.0, deadline=20.0, length=1.0)])  # never seen
    assert sim.finish_stream().span == 3.0


def test_folded_jobs_read_as_started_and_completed():
    sim = Simulator(make_scheduler("eager"), instance=Instance([]))
    sim.start_stream()
    sim.feed([Job(id=1, arrival=0.0, deadline=0.0, length=1.0)])
    sim.advance(2.0)
    assert sim.fold() == 1
    ctx = sim._core._ctx
    assert ctx.is_started(1) and ctx.is_completed(1)
    assert not ctx.is_started(2)
    with pytest.raises(SchedulingViolationError, match="job 1 was already started"):
        ctx.start(1)
    with pytest.raises(SchedulingViolationError, match="unknown job id 2"):
        ctx.start(2)


def test_fold_keeps_capacity_and_renumbers_kept_rows():
    sim = Simulator(make_scheduler("eager"), instance=Instance([]))
    sim.start_stream()
    core = sim._core
    for i in range(100):
        sim.feed([Job(id=i, arrival=float(i), deadline=float(i), length=0.5)])
    sim.advance(49.9)  # jobs 0..49 done, 50..99 not yet arrived
    cap = core._table._cap
    kept = core._view(core._table.idx_of[70])  # a view of a kept row
    assert sim.fold() == 50
    table = core._table
    assert table.n == 50 and table._cap == cap
    assert table.ids_list == list(range(50, 100))
    assert table.idx_of == {jid: jid - 50 for jid in range(50, 100)}
    assert kept.id == 70 and kept.arrival == 70.0
    assert bool(np.isnan(table.start[50:cap]).all())
    result = sim.finish_stream()
    assert result.span == 50.0 and result.events_processed == 300


class _Hoarder(OnlineScheduler):
    """Declares ``foldable`` but keeps the views of completed jobs."""

    name = "hoarder"
    foldable = True

    def __init__(self) -> None:
        super().__init__()
        self.views = []

    def on_arrival(self, ctx, job) -> None:
        ctx.start(job.id)

    def on_completion(self, ctx, job) -> None:
        self.views.append(job)


def test_a_view_of_a_folded_row_is_detached():
    sched = _Hoarder()
    sim = Simulator(sched, instance=Instance([]))
    sim.start_stream()
    sim.feed([Job(id=1, arrival=0.0, deadline=0.0, length=1.0)])
    sim.feed([Job(id=2, arrival=3.0, deadline=3.0, length=1.0)])
    sim.advance(2.0)
    (view,) = sched.views
    assert view.id == 1
    assert sim.fold() == 1
    with pytest.raises(SimulationError, match="detached"):
        view.id
    with pytest.raises(SimulationError, match="detached"):
        view.length
    sim.advance(5.0)
    assert sched.views[1].id == 2  # the kept row, renumbered, reads right


def test_stale_deadline_events_still_count():
    """Eager starts a long-laxity job at arrival; its deadline event is
    still queued when the job's row folds, and pops later as before."""
    jobs = [
        Job(id=0, arrival=0.0, deadline=50.0, length=1.0),
        Job(id=1, arrival=10.0, deadline=10.0, length=1.0),
        Job(id=2, arrival=60.0, deadline=60.0, length=1.0),
    ]
    recs = {}
    for fold in (False, True):
        rec = TraceRecorder()
        _, result, dropped = stream("eager", jobs, fold=fold, recorder=rec)
        recs[fold] = (result.events_processed, rec.metrics.to_dict()["counters"])
    assert dropped == 2
    assert recs[True] == recs[False]
    assert recs[True][1]["engine.events.deadline"] == 3
