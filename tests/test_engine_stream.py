"""Streaming engine sessions: ``start_stream``/``feed``/``advance``.

The serve daemon's whole determinism story rests on one property: a
time-ordered job stream fed through the incremental API produces the
*same* schedule, decision records and span as running the equivalent
static instance through one :meth:`Simulator.run`.  These tests pin that
parity across every registry scheduler, each under the information model
it declares, plus the error contract of the streaming entry points.
"""

from __future__ import annotations

import pytest

from repro.core import Instance, Trace
from repro.core.columnar import ColumnarCore
from repro.core.engine import Simulator
from repro.core.errors import SimulationError
from repro.obs import TraceRecorder
from repro.obs.records import KIND_DECISION
from repro.schedulers.registry import make_scheduler, scheduler_names
from repro.workloads import WorkloadSpec, generate

#: Every registry scheduler: the serve daemon accepts any of them.
STREAM_SCHEDULERS = scheduler_names()


def _clairvoyant(name: str) -> bool:
    return bool(make_scheduler(name).requires_clairvoyance)


def _batch_run(name: str, inst: Instance):
    rec = TraceRecorder()
    sim = Simulator(
        make_scheduler(name),
        instance=inst,
        clairvoyant=_clairvoyant(name),
        recorder=rec,
    )
    return sim.run(), rec


def _stream_run(name: str, inst: Instance):
    """Feed jobs one at a time, in arrival order, the serve-session way."""
    rec = TraceRecorder()
    sim = Simulator(
        make_scheduler(name),
        instance=Instance([], name=f"stream/{inst.name}"),
        clairvoyant=_clairvoyant(name),
        recorder=rec,
    )
    sim.start_stream()
    for job in sorted(inst.jobs, key=lambda j: (j.arrival, j.id)):
        sim.feed([job])
        # Exclusive advance: the whole time-`a` cohort stays queued until
        # the stream moves strictly past `a` (same-time arrivals land in
        # one cohort, exactly as the batch engine orders them).
        sim.advance(job.arrival, inclusive=False)
    return sim.finish_stream(), rec


def _decisions(rec: TraceRecorder):
    return [
        (r.name, tuple(sorted(r.attrs.items())))
        for r in rec.records
        if r.kind == KIND_DECISION
    ]


class TestStreamBatchParity:
    @pytest.mark.parametrize("name", STREAM_SCHEDULERS)
    def test_seeded_workloads_bit_identical(self, name):
        spec = WorkloadSpec(n=30, laxity_scale=2.0, length_high=6.0)
        for seed in range(3):
            inst = generate(spec, seed=seed)
            batch_result, batch_rec = _batch_run(name, inst)
            stream_result, stream_rec = _stream_run(name, inst)
            assert stream_result.span == batch_result.span
            assert (
                stream_result.schedule.starts()
                == batch_result.schedule.starts()
            )
            assert _decisions(stream_rec) == _decisions(batch_rec)

    @pytest.mark.parametrize("name", STREAM_SCHEDULERS)
    def test_fixture_instances(self, name, simple_instance, serial_instance):
        for inst in (simple_instance, serial_instance):
            batch_result, _ = _batch_run(name, inst)
            stream_result, _ = _stream_run(name, inst)
            assert stream_result.span == batch_result.span
            assert (
                stream_result.schedule.starts()
                == batch_result.schedule.starts()
            )

    @pytest.mark.parametrize("name", ["batch", "batch+", "epoch-batch"])
    @pytest.mark.parametrize(
        "inner", [None, TraceRecorder], ids=["alone", "obs"]
    )
    def test_stream_gathers_cohorts_identically(
        self, inner, name, monkeypatch
    ):
        """The loop takes same-time cohorts in one step whatever the
        trace wraps; the streamed trace must still equal the batch
        trace."""
        cohorts = []
        original = ColumnarCore._cohort_completion

        def counting(core, cohort):
            cohorts.append(len(cohort))
            original(core, cohort)

        monkeypatch.setattr(ColumnarCore, "_cohort_completion", counting)
        inst = Instance.from_triples(
            [(i // 3, 2, 1 + i % 2) for i in range(30)], name="cohorts"
        )
        batch_trace = Trace(inner and inner())
        batch = Simulator(
            make_scheduler(name), instance=inst, recorder=batch_trace
        )
        batch_result = batch.run()
        cohorts.clear()
        trace = Trace(inner and inner())
        sim = Simulator(
            make_scheduler(name), instance=Instance([], name=inst.name),
            recorder=trace,
        )
        sim.start_stream()
        for job in sorted(inst.jobs, key=lambda j: (j.arrival, j.id)):
            sim.feed([job])
            sim.advance(job.arrival, inclusive=False)
        result = sim.finish_stream()
        release_free = [r for r in trace if r.kind.value != "release"]
        assert release_free == [
            r for r in batch_trace if r.kind.value != "release"
        ]
        assert result.events_processed == batch_result.events_processed
        assert result.span == batch_result.span
        assert cohorts, "the streamed run never gathered a cohort"

    def test_same_time_cohort_preserved(self, batchable_instance):
        """Jobs sharing an arrival must still batch as one cohort."""
        inst = Instance.from_triples(
            [(0, 4, 3), (0, 4, 2), (0, 4, 3), (3, 4, 1)], name="cohort"
        )
        for target in (inst, batchable_instance):
            batch_result, _ = _batch_run("batch+", target)
            stream_result, _ = _stream_run("batch+", target)
            assert (
                stream_result.schedule.starts()
                == batch_result.schedule.starts()
            )

    def test_interleaved_advance_between_feeds(self):
        """Explicit advances between arrivals don't change the schedule."""
        inst = Instance.from_triples(
            [(0, 2, 1), (1, 3, 2), (5, 1, 1)], name="interleave"
        )
        batch_result, _ = _batch_run("batch+", inst)
        sim = Simulator(
            make_scheduler("batch+"),
            instance=Instance([]),
            recorder=TraceRecorder(),
        )
        sim.start_stream()
        jobs = sorted(inst.jobs, key=lambda j: j.arrival)
        sim.feed([jobs[0]])
        sim.advance(0.5)  # inclusive mid-gap advance
        sim.feed([jobs[1]])
        sim.advance(jobs[1].arrival, inclusive=False)
        sim.advance(4.0)
        sim.feed([jobs[2]])
        result = sim.finish_stream()
        assert result.schedule.starts() == batch_result.schedule.starts()
        assert result.span == batch_result.span


class TestStreamApi:
    def _stream_sim(self, **kwargs) -> Simulator:
        sim = Simulator(
            make_scheduler("batch+"), instance=Instance([]), **kwargs
        )
        sim.start_stream()
        return sim

    def test_now_property_tracks_advance(self):
        sim = self._stream_sim()
        assert sim.now == 0.0
        sim.advance(3.5)
        assert sim.now == 3.5
        sim.advance(3.5)  # idempotent at the same horizon
        assert sim.now == 3.5

    def test_feed_requires_stream(self):
        sim = Simulator(make_scheduler("batch+"), instance=Instance([]))
        with pytest.raises(SimulationError, match="start_stream"):
            sim.feed([])
        with pytest.raises(SimulationError, match="start_stream"):
            sim.advance(1.0)
        with pytest.raises(SimulationError, match="start_stream"):
            sim.finish_stream()

    def test_advance_into_past_rejected(self):
        sim = self._stream_sim()
        sim.advance(5.0)
        with pytest.raises(SimulationError, match="in the past"):
            sim.advance(4.0)

    def test_feed_past_arrival_rejected(self):
        sim = self._stream_sim()
        sim.advance(10.0)
        job = Instance.from_triples([(5, 2, 1)]).jobs[0]
        with pytest.raises(SimulationError, match="in the past"):
            sim.feed([job])

    def test_feed_duplicate_id_rejected(self):
        sim = self._stream_sim()
        job = Instance.from_triples([(0, 5, 1)]).jobs[0]
        sim.feed([job])
        with pytest.raises(SimulationError, match="duplicate"):
            sim.feed([job])

    def test_adversary_rejected(self):
        from repro.adversaries import NonClairvoyantLowerBoundAdversary

        sim = Simulator(
            make_scheduler("batch+"),
            adversary=NonClairvoyantLowerBoundAdversary(mu=3.0),
        )
        with pytest.raises(SimulationError, match="adversar"):
            sim.start_stream()

    def test_stream_session_runs_once(self):
        sim = self._stream_sim()
        sim.finish_stream()
        with pytest.raises(SimulationError, match="only run once|start_stream"):
            sim.start_stream()

    def test_run_after_stream_rejected(self):
        sim = self._stream_sim()
        with pytest.raises(SimulationError, match="only run once"):
            sim.run()

    def test_finish_stream_starts_every_fed_job(self):
        sim = self._stream_sim()
        inst = Instance.from_triples([(0, 3, 2), (1, 2, 1)])
        for job in inst.jobs:
            sim.feed([job])
            sim.advance(job.arrival, inclusive=False)
        result = sim.finish_stream()
        assert set(result.schedule.starts()) == {j.id for j in inst.jobs}
        assert result.span > 0
