"""Unit tests for simulation tracing."""

from __future__ import annotations


from repro.adversaries import NonClairvoyantLowerBoundAdversary, geometric_profile
from repro.core import Instance, TraceKind, simulate
from repro.core.trace import Trace
from repro.obs import NULL_RECORDER
from repro.schedulers import Batch, BatchPlus, Doubler


def traced(scheduler, instance=None, **kwargs):
    """Run with a core trace as the recorder; returns (result, trace)."""
    trace = Trace()
    return simulate(scheduler, instance, recorder=trace, **kwargs), trace


class TestTraceCollection:
    def test_disabled_by_default(self, simple_instance):
        """A run keeps no core trace unless one is its recorder."""
        result = simulate(BatchPlus(), simple_instance, recorder=NULL_RECORDER)
        assert result.recorder is None
        assert not hasattr(result, "trace")

    def test_enabled_records_everything(self, simple_instance):
        result, trace = traced(BatchPlus(), simple_instance)
        assert result.recorder is trace
        n = len(simple_instance)
        assert len(trace.filter(TraceKind.RELEASE)) == n
        assert len(trace.filter(TraceKind.ARRIVAL)) == n
        assert len(trace.filter(TraceKind.START)) == n
        assert len(trace.filter(TraceKind.COMPLETION)) == n

    def test_times_monotone(self, simple_instance):
        _, trace = traced(Batch(), simple_instance)
        times = [r.time for r in trace]
        assert times == sorted(times)

    def test_starts_match_schedule(self, simple_instance):
        result, trace = traced(Batch(), simple_instance)
        assert trace.starts() == result.schedule.starts()

    def test_per_job_lifecycle_order(self, simple_instance):
        _, trace = traced(BatchPlus(), simple_instance)
        for job in simple_instance:
            kinds = [r.kind for r in trace.for_job(job.id)]
            assert kinds.index(TraceKind.RELEASE) < kinds.index(TraceKind.ARRIVAL)
            assert kinds.index(TraceKind.ARRIVAL) < kinds.index(TraceKind.START)
            assert kinds.index(TraceKind.START) < kinds.index(TraceKind.COMPLETION)

    def test_timer_records(self):
        inst = Instance.from_triples([(0, 10, 3)])
        _, trace = traced(Doubler(), inst, clairvoyant=True)
        assert len(trace.filter(TraceKind.TIMER)) >= 1

    def test_adversary_records(self):
        adv = NonClairvoyantLowerBoundAdversary(
            mu=3.0, profile=geometric_profile(1, 4)
        )
        _, trace = traced(Batch(), adversary=adv, clairvoyant=False)
        assigns = trace.filter(TraceKind.ASSIGN)
        # every adversary-released (length=None) job gets an assignment
        assert len(assigns) == 16  # iteration 1 jobs; final 4 have fixed lengths
        assert len(trace.filter(TraceKind.ADVERSARY_WAKEUP)) >= 1
        # the earmarked job's record carries its committed length μ
        earmark = adv.earmarked_ids[0]
        detail = [r.detail for r in assigns if r.job_id == earmark]
        assert detail == ["length=3"]


class TestTraceApi:
    def test_render_truncates(self):
        t = Trace()
        for i in range(10):
            t.append(float(i), TraceKind.ARRIVAL, i)
        out = t.render(limit=3)
        assert "7 more records" in out

    def test_indexing_and_len(self):
        t = Trace()
        t.append(0.0, TraceKind.ARRIVAL, 1)
        assert len(t) == 1
        assert t[0].job_id == 1

    def test_deadline_only_recorded_when_it_fires(self, simple_instance):
        """Deadline records appear only for jobs still pending at their
        deadline (Eager-started jobs never produce one)."""
        from repro.schedulers import Eager

        _, trace = traced(Eager(), simple_instance)
        assert trace.filter(TraceKind.DEADLINE) == []
