"""Live telemetry plane: incremental structures + end-to-end properties.

The load-bearing claims (see ``docs/observability.md``):

* :class:`~repro.core.intervalset.MutableIntervalSet`, which keeps the
  telemetry's span and mandatory-interval union, matches a brute-force
  union measure;
* :class:`OnlineOptLowerBound` is **monotone nondecreasing** under any
  feed order, equals the certified offline
  :func:`~repro.offline.lower_bounds.span_lower_bound` when fed in
  nondecreasing arrival order, and never exceeds it in any order;
* replaying real engine traces (all five paper schedulers) through
  :class:`TenantTelemetry` keeps the LB monotone
  at every record, ends ≤ the certified reference, reproduces the
  engine's span exactly, and therefore reports a ratio ≥ 1.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.obs import TraceRecorder
from repro.obs.live import (
    LiveAggregator,
    OnlineOptLowerBound,
    TenantTelemetry,
    render_prometheus,
    telemetry_addr,
    telemetry_enabled,
)
from repro.core.engine import Simulator
from repro.core.intervalset import MutableIntervalSet
from repro.core.job import Instance, Job
from repro.offline import span_lower_bound
from repro.schedulers.registry import make_scheduler
from repro.workloads import WorkloadSpec, generate

#: The five schedulers the paper analyses (§3–§6).
PAPER_SCHEDULERS = ("batch", "batch+", "cdb", "epoch-batch", "profit")
CLAIRVOYANT = {"cdb", "profit"}


def _brute_union(intervals: list[tuple[float, float]]) -> float:
    events = sorted((s, e) for s, e in intervals if e > s)
    total = 0.0
    cur_s = cur_e = None
    for s, e in events:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class TestIntervalUnion:
    """The telemetry's union: ``measure`` is the span and
    ``intersection_length(-inf, t)`` the busy time up to ``t``."""

    def test_empty(self):
        u = MutableIntervalSet()
        assert u.measure == 0.0
        assert len(u) == 0
        assert u.intersection_length(-math.inf, 10.0) == 0.0

    def test_degenerate_interval_ignored(self):
        u = MutableIntervalSet()
        u.add(2.0, 2.0)
        u.add(3.0, 1.0)
        assert u.measure == 0.0

    def test_touching_intervals_merge(self):
        u = MutableIntervalSet()
        u.add(0.0, 1.0)
        u.add(1.0, 2.0)
        assert u.measure == pytest.approx(2.0)
        assert len(u) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_random_against_brute_force(self, seed):
        rng = random.Random(seed)
        u = MutableIntervalSet()
        intervals: list[tuple[float, float]] = []
        for _ in range(120):
            s = rng.uniform(0.0, 50.0)
            e = s + rng.uniform(0.0, 8.0)
            u.add(s, e)
            intervals.append((s, e))
            assert u.measure == pytest.approx(_brute_union(intervals))
        t = rng.uniform(0.0, 60.0)
        clipped = [(s, min(e, t)) for s, e in intervals if s < t]
        assert u.intersection_length(-math.inf, t) == pytest.approx(
            _brute_union(clipped)
        )


def _random_jobs(rng: random.Random, n: int) -> list[Job]:
    jobs = []
    for i in range(n):
        arrival = rng.uniform(0.0, 40.0)
        length = rng.uniform(0.1, 6.0)
        laxity = rng.uniform(0.0, 8.0)
        jobs.append(
            Job(id=i, arrival=arrival, deadline=arrival + laxity, length=length)
        )
    return jobs


class TestOnlineOptLowerBound:
    def test_empty_is_zero(self):
        assert OnlineOptLowerBound().value == 0.0

    def test_single_job(self):
        lb = OnlineOptLowerBound()
        lb.add(0.0, 1.0, 5.0)  # laxity < p: mandatory [1, 5)
        assert lb.max_length == 5.0
        assert lb.mandatory == pytest.approx(4.0)
        assert lb.value == pytest.approx(5.0)

    def test_chain_of_tight_jobs(self):
        lb = OnlineOptLowerBound()
        # d(i) + p(i) = 2, next arrival 2: must be disjoint — chains.
        lb.add(0.0, 1.0, 1.0)
        lb.add(2.0, 3.0, 1.0)
        lb.add(4.0, 5.0, 1.0)
        assert lb.chain == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_sorted_feed_matches_offline_reference(self, seed):
        rng = random.Random(1000 + seed)
        jobs = _random_jobs(rng, rng.randrange(1, 60))
        lb = OnlineOptLowerBound()
        prev = 0.0
        for job in sorted(jobs, key=lambda j: j.arrival):
            lb.add(job.arrival, job.deadline, job.length)
            assert lb.value >= prev  # monotone at every arrival
            prev = lb.value
        offline = span_lower_bound(Instance(jobs, name=f"fuzz-{seed}"))
        assert lb.value == pytest.approx(offline, abs=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_shuffled_feed_stays_sound(self, seed):
        rng = random.Random(2000 + seed)
        jobs = _random_jobs(rng, rng.randrange(1, 60))
        shuffled = list(jobs)
        rng.shuffle(shuffled)
        lb = OnlineOptLowerBound()
        prev = 0.0
        for job in shuffled:
            lb.add(job.arrival, job.deadline, job.length)
            assert lb.value >= prev
            prev = lb.value
        offline = span_lower_bound(Instance(jobs, name=f"shuffle-{seed}"))
        assert lb.value <= offline + 1e-9


class TestFold:
    """Folding at an instant every later arrival follows keeps every value."""

    @pytest.mark.parametrize("seed", range(20))
    def test_lower_bound_fold_keeps_every_value(self, seed):
        rng = random.Random(3000 + seed)
        jobs = sorted(_random_jobs(rng, 80), key=lambda j: j.arrival)
        plain, folded = OnlineOptLowerBound(), OnlineOptLowerBound()
        for job in jobs:
            if rng.random() < 0.3:
                folded.fold(job.arrival)  # every later add arrives by now
            plain.add(job.arrival, job.deadline, job.length)
            folded.add(job.arrival, job.deadline, job.length)
            assert (folded.value, folded.chain, folded.mandatory,
                    folded.max_length) == (plain.value, plain.chain,
                                           plain.mandatory, plain.max_length)

    def test_lower_bound_fold_keeps_one_entry_of_the_past(self):
        lb = OnlineOptLowerBound()
        for i in range(100):  # a chain: each job ends before the next
            lb.fold(3.0 * i)
            lb.add(3.0 * i, 3.0 * i + 0.5, 1.0)
        assert lb.chain == 100.0
        assert len(lb._lcs) <= 2

    @pytest.mark.parametrize("name", PAPER_SCHEDULERS)
    def test_telemetry_fold_keeps_the_snapshot(self, name):
        """Replay a batch run's trace; fold at every instant nothing is
        pending or running and later releases arrive at or after it."""
        inst = generate(
            WorkloadSpec(n=120, arrival_rate=0.2, laxity_scale=1.0), seed=5
        )
        recorder = TraceRecorder()
        Simulator(
            make_scheduler(name), instance=inst, recorder=recorder,
            clairvoyant=name in CLAIRVOYANT,
        ).run()
        # The batch run releases every job at t=0: feed each release at
        # its arrival instead, as a stream would.
        events = []
        for record in recorder.records:
            if record.name == "engine.release":
                events.append((record.attrs["arrival"], 0, record))
            elif record.name in ("engine.start", "engine.completion"):
                events.append((record.attrs["t"], 1, record))
        events.sort(key=lambda e: (e[0], e[1]))
        plain, folded = TenantTelemetry("t"), TenantTelemetry("t")
        folds = 0
        for k, (t, _, record) in enumerate(events):
            plain.observe(record)
            folded.observe(record)
            idle = folded.started == folded.completed == folded.released
            if idle and k + 1 < len(events) and events[k + 1][0] > t:
                folded.fold(t)
                folds += 1
            assert folded.snapshot() == plain.snapshot()
        assert folds > 5
        assert len(folded._span) < len(plain._span)


def _replay(records) -> tuple[TenantTelemetry, bool]:
    """Feed a trace through one telemetry instance, checking monotonicity."""
    telemetry = TenantTelemetry("t")
    monotone = True
    prev = 0.0
    for record in records:
        telemetry.observe(record)
        value = telemetry.lb.value
        if value < prev:
            monotone = False
        prev = value
    return telemetry, monotone


class TestTraceReplayProperties:
    """All five paper schedulers on seeded instances."""

    @pytest.mark.parametrize("name", PAPER_SCHEDULERS)
    @pytest.mark.parametrize("seed", (7, 23))
    def test_lb_monotone_sound_and_span_exact(self, name, seed):
        inst = generate(WorkloadSpec(n=50, laxity_scale=1.5), seed=seed)
        recorder = TraceRecorder()
        result = Simulator(
            make_scheduler(name),
            instance=inst,
            recorder=recorder,
            clairvoyant=name in CLAIRVOYANT,
        ).run()
        telemetry, monotone = _replay(recorder.records)
        assert monotone, f"{name}: LB decreased during replay"
        reference = span_lower_bound(inst)
        assert telemetry.lb.value <= reference + 1e-9, (
            f"{name}: live LB {telemetry.lb.value} exceeds "
            f"certified reference {reference}"
        )
        assert telemetry.span == pytest.approx(result.span, rel=1e-9)
        assert telemetry.released == len(inst.jobs)
        assert telemetry.completed == len(inst.jobs)
        ratio = telemetry.ratio
        assert ratio is not None and ratio >= 1.0 - 1e-12

    @pytest.mark.parametrize("name", PAPER_SCHEDULERS)
    def test_decision_mix_stays_in_vocabulary(self, name):
        from repro.obs import decision_vocabulary

        inst = generate(WorkloadSpec(n=40, laxity_scale=1.5), seed=3)
        recorder = TraceRecorder()
        Simulator(
            make_scheduler(name),
            instance=inst,
            recorder=recorder,
            clairvoyant=name in CLAIRVOYANT,
        ).run()
        telemetry, _ = _replay(recorder.records)
        assert set(telemetry.decisions) <= decision_vocabulary()


class TestSnapshotAndExposition:
    def _armed(self) -> LiveAggregator:
        inst = generate(WorkloadSpec(n=30, laxity_scale=1.5), seed=5)
        live = LiveAggregator()
        recorder = TraceRecorder()
        Simulator(
            make_scheduler("batch"), instance=inst, recorder=recorder
        ).run()
        for record in recorder.records:
            live.observe("alpha", record)
        return live

    def test_snapshot_shape(self):
        snap = self._armed().snapshot()
        assert snap["kind"] == "telemetry"
        alpha = snap["tenants"]["alpha"]
        assert alpha["jobs"]["released"] == 30
        assert alpha["jobs"]["pending"] == 0
        assert alpha["span"] > 0.0
        assert alpha["opt_lb"]["value"] > 0.0
        assert alpha["ratio"] >= 1.0
        assert snap["aggregate"]["tenants"] == 1
        assert snap["aggregate"]["max_ratio"] == alpha["ratio"]

    def test_snapshot_merges_daemon_and_loopwatch_sections(self):
        snap = self._armed().snapshot(
            daemon={"lines_in": 4, "queued": {"alpha": 1}},
            loopwatch={"counters": {"loopwatch.stalls": 0.0}},
        )
        assert snap["daemon"]["lines_in"] == 4
        assert snap["loopwatch"]["counters"]["loopwatch.stalls"] == 0.0

    def test_prometheus_exposition(self):
        text = render_prometheus(
            self._armed().snapshot(daemon={"lines_in": 4, "queued": {"alpha": 1}})
        )
        assert text.endswith("\n")
        assert '# TYPE repro_tenant_span gauge' in text
        assert 'repro_tenant_span{tenant="alpha"} ' in text
        assert 'repro_tenant_jobs{tenant="alpha",state="completed"} 30' in text
        assert "repro_daemon_lines_in_total 4" in text
        assert 'repro_daemon_tenant_queue_depth{tenant="alpha"} 1' in text

    def test_prometheus_escapes_labels(self):
        live = LiveAggregator()
        live.tenant('we"ird')
        text = render_prometheus(live.snapshot())
        assert 'tenant="we\\"ird"' in text

    def test_empty_ratio_is_nan(self):
        live = LiveAggregator()
        live.tenant("idle")
        text = render_prometheus(live.snapshot())
        assert 'repro_tenant_ratio{tenant="idle"} NaN' in text


class TestKnobs:
    def test_telemetry_enabled_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert telemetry_enabled() is True

    @pytest.mark.parametrize("value", ["0", "off", "false", ""])
    def test_telemetry_disabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        assert telemetry_enabled() is False

    def test_addr_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_ADDR", "127.0.0.1:9100")
        assert telemetry_addr() == ("127.0.0.1", 9100)

    def test_addr_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_ADDR", "127.0.0.1:9100")
        assert telemetry_addr("0.0.0.0:7077") == ("0.0.0.0", 7077)

    def test_addr_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_ADDR", raising=False)
        assert telemetry_addr() is None

    def test_addr_rejects_bare_port(self):
        with pytest.raises(ValueError):
            telemetry_addr("7077")
