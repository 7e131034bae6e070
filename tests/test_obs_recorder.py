"""Recorder invariants: NullRecorder identity, TraceRecorder semantics,
ambient arming, and the REPRO_STRICT + recorder interplay."""

from __future__ import annotations

import pytest

from repro.core import ClairvoyanceError, Instance
from repro.core.engine import Simulator, simulate
from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    TraceRecorder,
    get_recorder,
    reset_recorder,
    set_recorder,
    trace_dir,
    trace_enabled,
)
from repro.schedulers import Batch, BatchPlus, Eager
from repro.schedulers.base import OnlineScheduler


@pytest.fixture(autouse=True)
def _isolated_ambient(monkeypatch):
    """Each test runs with a disarmed ambient recorder and a clean env."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    previous = set_recorder(NULL_RECORDER)
    yield
    set_recorder(previous)


class TestNullRecorderIdentity:
    """Running with a NullRecorder is indistinguishable from no recorder."""

    def test_results_identical_across_disarmed_recorders(self, simple_instance):
        outputs = []
        for rec in (None, NullRecorder(), NULL_RECORDER):
            result = simulate(
                BatchPlus(), simple_instance, trace=True, recorder=rec
            )
            outputs.append(
                (
                    result.span,
                    result.events_processed,
                    sorted(result.schedule.starts().items()),
                    [
                        (e.time, e.kind, e.job_id, e.detail)
                        for e in (result.trace or [])
                    ],
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("case", ["e1-adversary", "seeded-instance"])
    def test_disabled_recorder_is_never_consulted(self, case):
        """A recorder with ``enabled = False`` is never called: one whose
        every method raises leaves both paper paths' runs identical."""
        from repro.adversaries import (
            NonClairvoyantLowerBoundAdversary,
            paper_profile,
        )
        from repro.workloads import WorkloadSpec, generate

        class Untouchable(Recorder):
            enabled = False

            def _consulted(self, *args, **kwargs):
                raise AssertionError("a disabled recorder was consulted")

            instant = decision = span = counter_add = gauge_set = _consulted
            histogram_observe = metrics_snapshot = merge_metrics = _consulted

        def run(recorder):
            if case == "e1-adversary":
                adversary = NonClairvoyantLowerBoundAdversary(
                    5.0, paper_profile(2)
                )
                result = simulate(
                    Batch(), adversary=adversary, clairvoyant=False,
                    recorder=recorder,
                )
            else:
                instance = generate(WorkloadSpec(n=300), seed=7)
                result = simulate(BatchPlus(), instance, recorder=recorder)
            return (
                result.span,
                result.events_processed,
                sorted(result.schedule.starts().items()),
                result.recorder,
            )

        plain = run(None)
        assert plain[1] > 0
        assert run(Untouchable()) == plain

    def test_disarmed_run_exposes_no_recorder(self, simple_instance):
        result = simulate(Batch(), simple_instance, recorder=NullRecorder())
        assert result.recorder is None

    def test_null_recorder_protocol_is_all_noops(self):
        rec = NullRecorder()
        assert rec.enabled is False
        rec.instant("x", a=1)
        rec.decision("batch-start", job=1, t=0.0, scheduler="batch")
        rec.counter_add("c")
        rec.gauge_set("g", 1.0)
        rec.histogram_observe("h", 0.5)
        with rec.span("s", k=1):
            pass
        assert rec.metrics_snapshot() is None
        rec.merge_metrics({"counters": {"c": 1.0}})  # still a no-op
        assert rec.metrics_snapshot() is None

    def test_scheduler_obs_stays_null_when_disarmed(self, simple_instance):
        sched = Batch()
        simulate(sched, simple_instance, recorder=NullRecorder())
        assert sched.obs is NULL_RECORDER


class TestTraceRecorder:
    def test_armed_run_returns_recorder_with_records(self, simple_instance):
        rec = TraceRecorder()
        result = simulate(Batch(), simple_instance, recorder=rec)
        assert result.recorder is rec
        assert len(rec.records) > 0
        names = {r.name for r in rec.records}
        assert "engine.release" in names
        assert "engine.start" in names
        assert "engine.completion" in names
        assert "engine.run_end" in names
        assert rec.metrics.counters["engine.events_processed"] == float(
            result.events_processed
        )
        assert rec.metrics.counters["engine.jobs"] == float(len(simple_instance))

    def test_armed_run_matches_disarmed_outputs(self, simple_instance):
        """Observability must never change the simulation itself."""
        plain = simulate(BatchPlus(), simple_instance)
        armed = simulate(BatchPlus(), simple_instance, recorder=TraceRecorder())
        assert armed.span == plain.span
        assert armed.events_processed == plain.events_processed
        assert armed.schedule.starts() == plain.schedule.starts()

    def test_span_emits_begin_end_and_histogram(self):
        rec = TraceRecorder()
        with rec.span("work", tag=1):
            pass
        kinds = [r.kind for r in rec.records]
        assert kinds == ["span_begin", "span_end"]
        assert rec.records[0].attrs == {"tag": 1}
        assert rec.records[1].attrs["wall_s"] >= 0.0
        assert rec.metrics.histograms["span.work.wall_s"].count == 1

    def test_decision_records_and_counts(self):
        rec = TraceRecorder()
        rec.decision("deadline-flag", job=3, t=2.5, scheduler="batch", deadline=2.5)
        (record,) = rec.records
        assert record.kind == "decision"
        assert record.name == "deadline-flag"
        assert record.attrs["job"] == 3
        assert record.attrs["t"] == 2.5
        assert record.attrs["scheduler"] == "batch"
        assert record.attrs["deadline"] == 2.5
        assert rec.metrics.counters["decision.deadline-flag"] == 1.0

    def test_max_records_cap_drops_and_counts(self):
        rec = TraceRecorder(max_records=5)
        for i in range(12):
            rec.instant("e", i=i)
        assert len(rec.records) == 5
        assert rec.metrics.counters["obs.records_dropped"] == 7.0
        # metrics keep aggregating past the cap
        rec.counter_add("still.counting")
        assert rec.metrics.counters["still.counting"] == 1.0

    def test_snapshot_reset_and_merge_roundtrip(self):
        rec = TraceRecorder()
        rec.counter_add("c", 2.0)
        rec.gauge_set("g", 7.0)
        rec.histogram_observe("h", 0.5)
        snap = rec.metrics_snapshot(reset=True)
        assert snap is not None
        assert rec.metrics_snapshot() is None  # reset emptied the registry
        other = TraceRecorder()
        other.counter_add("c", 1.0)
        other.merge_metrics(snap)
        assert other.metrics.counters["c"] == 3.0
        assert other.metrics.gauges["g"] == 7.0
        assert other.metrics.histograms["h"].count == 1

    def test_len_counts_records(self):
        rec = TraceRecorder()
        rec.instant("a")
        rec.instant("b")
        assert len(rec) == 2


class TestMetricsRegistry:
    def test_histogram_bucketing_and_merge(self):
        reg = MetricsRegistry()
        for v in (1e-7, 0.5, 100.0):
            reg.histogram_observe("h", v)
        hist = reg.histograms["h"]
        assert hist.count == 3
        assert hist.vmin == 1e-7 and hist.vmax == 100.0
        assert sum(hist.counts) == 3
        assert hist.counts[-1] == 1  # 100.0 overflows the last edge
        other = MetricsRegistry.from_dict(reg.to_dict())
        other.merge(reg)
        assert other.histograms["h"].count == 6

    def test_merge_rejects_mismatched_edges(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram_observe("h", 1.0)
        b.histogram_observe("h", 1.0, edges=(1.0, 2.0))
        with pytest.raises(ValueError, match="different bucket edges"):
            a.merge(b)

    def test_edges_must_strictly_increase(self):
        from repro.obs import Histogram

        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram((1.0, 1.0, 2.0))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestAmbientRuntime:
    def test_default_is_null(self):
        assert get_recorder() is NULL_RECORDER
        assert get_recorder().enabled is False

    def test_set_recorder_returns_previous(self):
        rec = TraceRecorder()
        prev = set_recorder(rec)
        assert prev is NULL_RECORDER
        assert get_recorder() is rec
        assert set_recorder(prev) is rec

    def test_reset_rearms_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        reset_recorder()
        assert isinstance(get_recorder(), TraceRecorder)
        monkeypatch.delenv("REPRO_TRACE")
        reset_recorder()
        assert get_recorder() is NULL_RECORDER

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "OFF"])
    def test_falsey_env_values_stay_disarmed(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert trace_enabled() is False

    def test_trace_dir_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        assert trace_dir() == "."
        monkeypatch.setenv("REPRO_TRACE_DIR", "/tmp/traces")
        assert trace_dir() == "/tmp/traces"

    def test_simulator_prefers_explicit_over_ambient(self, simple_instance):
        ambient = TraceRecorder()
        set_recorder(ambient)
        explicit = TraceRecorder()
        result = simulate(Batch(), simple_instance, recorder=explicit)
        assert result.recorder is explicit
        assert len(ambient.records) == 0

    def test_simulator_uses_armed_ambient(self, simple_instance):
        ambient = TraceRecorder()
        set_recorder(ambient)
        result = simulate(Batch(), simple_instance)
        assert result.recorder is ambient
        assert len(ambient.records) > 0


class _PeekLength(OnlineScheduler):
    """Declares non-clairvoyance, then reads ``job.length`` anyway."""

    name = "peek-length"
    requires_clairvoyance = False

    def on_arrival(self, ctx, job):
        job.length  # strict mode must reject this pre-completion read
        ctx.start(job.id)


class TestStrictGuardInterplay:
    """ClairvoyanceGuard violations surface as trace records too."""

    def test_guard_emits_instant_and_counter(self):
        inst = Instance.from_triples([(0, 2, 1)], name="one")
        rec = TraceRecorder()
        sim = Simulator(
            _PeekLength(), instance=inst, clairvoyant=True, strict=True,
            recorder=rec,
        )
        with pytest.raises(ClairvoyanceError, match="strict mode"):
            sim.run()
        guard_records = [
            r for r in rec.records if r.name == "engine.clairvoyance_guard"
        ]
        assert len(guard_records) == 1
        assert guard_records[0].attrs["job"] == 0
        assert guard_records[0].attrs["scheduler"] == "_PeekLength"
        assert rec.metrics.counters["engine.clairvoyance_guard.reads"] == 1.0
        assert sim.strict_guard is not None
        assert sim.strict_guard.accesses == [(0, 0.0)]

    def test_guard_silent_when_disarmed(self):
        inst = Instance.from_triples([(0, 2, 1)], name="one")
        sim = Simulator(
            _PeekLength(), instance=inst, clairvoyant=True, strict=True,
            recorder=NullRecorder(),
        )
        with pytest.raises(ClairvoyanceError):
            sim.run()
        assert sim.strict_guard is not None
        assert sim.strict_guard.accesses == [(0, 0.0)]

    def test_compliant_scheduler_emits_no_guard_records(self, simple_instance):
        rec = TraceRecorder()
        simulate(Eager(), simple_instance, strict=True, recorder=rec)
        assert not any(
            r.name == "engine.clairvoyance_guard" for r in rec.records
        )
        assert "engine.clairvoyance_guard.reads" not in rec.metrics.counters


class TestRecorderProtocol:
    def test_base_recorder_is_contractually_disabled(self):
        rec = Recorder()
        assert rec.enabled is False
        with rec.span("s"):
            rec.instant("x")
        assert rec.metrics_snapshot() is None
