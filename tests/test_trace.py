"""Unit tests for simulation tracing."""

from __future__ import annotations


from repro.adversaries import NonClairvoyantLowerBoundAdversary, geometric_profile
from repro.core import Instance, TraceKind, simulate
from repro.core.trace import Trace
from repro.schedulers import Batch, BatchPlus, Doubler


class TestTraceCollection:
    def test_disabled_by_default(self, simple_instance):
        result = simulate(BatchPlus(), simple_instance)
        assert result.trace is None

    def test_enabled_records_everything(self, simple_instance):
        result = simulate(BatchPlus(), simple_instance, trace=True)
        trace = result.trace
        assert trace is not None
        n = len(simple_instance)
        assert len(trace.filter(TraceKind.RELEASE)) == n
        assert len(trace.filter(TraceKind.ARRIVAL)) == n
        assert len(trace.filter(TraceKind.START)) == n
        assert len(trace.filter(TraceKind.COMPLETION)) == n

    def test_times_monotone(self, simple_instance):
        result = simulate(Batch(), simple_instance, trace=True)
        times = [r.time for r in result.trace]
        assert times == sorted(times)

    def test_starts_match_schedule(self, simple_instance):
        result = simulate(Batch(), simple_instance, trace=True)
        assert result.trace.starts() == result.schedule.starts()

    def test_per_job_lifecycle_order(self, simple_instance):
        result = simulate(BatchPlus(), simple_instance, trace=True)
        for job in simple_instance:
            kinds = [r.kind for r in result.trace.for_job(job.id)]
            assert kinds.index(TraceKind.RELEASE) < kinds.index(TraceKind.ARRIVAL)
            assert kinds.index(TraceKind.ARRIVAL) < kinds.index(TraceKind.START)
            assert kinds.index(TraceKind.START) < kinds.index(TraceKind.COMPLETION)

    def test_timer_records(self):
        inst = Instance.from_triples([(0, 10, 3)])
        result = simulate(Doubler(), inst, clairvoyant=True, trace=True)
        assert len(result.trace.filter(TraceKind.TIMER)) >= 1

    def test_adversary_records(self):
        adv = NonClairvoyantLowerBoundAdversary(
            mu=3.0, profile=geometric_profile(1, 4)
        )
        result = simulate(Batch(), adversary=adv, clairvoyant=False, trace=True)
        trace = result.trace
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

        result = simulate(Eager(), simple_instance, trace=True)
        assert result.trace.filter(TraceKind.DEADLINE) == []
