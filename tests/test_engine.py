"""Unit tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.core import (
    ClairvoyanceError,
    DeadlineMissedError,
    Instance,
    Job,
    SchedulingViolationError,
    SimulationError,
    Simulator,
    Trace,
    simulate,
)
from repro.core.columnar import ColumnarCore
from repro.core.engine import AdversaryResponse
from repro.core.events import EventKind
from repro.obs import TraceRecorder
from repro.schedulers import Eager, Lazy, OnlineScheduler, make_scheduler
from repro.adversaries import (
    BaseAdversary,
    NonClairvoyantLowerBoundAdversary,
    geometric_profile,
)


class Recorder(OnlineScheduler):
    """Starts everything eagerly and records every hook invocation."""

    name = "recorder"

    def __init__(self):
        super().__init__()
        self.log: list[tuple[str, float, int | None]] = []

    def on_arrival(self, ctx, job):
        self.log.append(("arrival", ctx.now, job.id))
        ctx.start(job.id)

    def on_completion(self, ctx, job):
        self.log.append(("completion", ctx.now, job.id))

    def on_deadline(self, ctx, job):
        self.log.append(("deadline", ctx.now, job.id))
        ctx.start(job.id)


class TestBasicRuns:
    def test_result_schedule_is_feasible(self, simple_instance):
        result = simulate(Eager(), simple_instance)
        result.schedule.validate()
        assert result.span > 0
        assert result.events_processed > 0

    def test_eager_starts_at_arrivals(self, simple_instance):
        result = simulate(Eager(), simple_instance)
        for job in simple_instance:
            assert result.schedule.start_of(job.id) == job.arrival

    def test_lazy_starts_at_deadlines(self, simple_instance):
        result = simulate(Lazy(), simple_instance)
        for job in simple_instance:
            assert result.schedule.start_of(job.id) == job.deadline

    def test_hooks_fire_in_time_order(self, simple_instance):
        rec = Recorder()
        simulate(rec, simple_instance)
        times = [t for _, t, _ in rec.log]
        assert times == sorted(times)

    def test_completion_reveals_length(self):
        seen: dict[int, float] = {}

        class LengthPeek(OnlineScheduler):
            def on_arrival(self, ctx, job):
                with pytest.raises(ClairvoyanceError):
                    job.length  # hidden in non-clairvoyant mode
                ctx.start(job.id)

            def on_completion(self, ctx, job):
                seen[job.id] = job.length  # visible now

        inst = Instance.from_triples([(0, 2, 3)])
        simulate(LengthPeek(), inst, clairvoyant=False)
        assert seen == {0: 3.0}

    def test_clairvoyant_mode_reveals_length_at_arrival(self):
        class Peek(OnlineScheduler):
            requires_clairvoyance = True

            def on_arrival(self, ctx, job):
                assert job.length == 3.0
                assert job.length_if_known == 3.0
                ctx.start(job.id)

        simulate(Peek(), Instance.from_triples([(0, 2, 3)]), clairvoyant=True)

    def test_simulator_single_use(self, simple_instance):
        sim = Simulator(Eager(), instance=simple_instance)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run()

    def test_requires_instance_xor_adversary(self, simple_instance):
        with pytest.raises(SimulationError):
            Simulator(Eager())
        with pytest.raises(SimulationError):
            Simulator(
                Eager(), instance=simple_instance, adversary=BaseAdversary()
            )

    def test_empty_instance(self):
        result = simulate(Eager(), Instance([]))
        assert result.span == 0.0


class TestViolations:
    def test_deadline_missed_raises(self, simple_instance):
        class DoNothing(OnlineScheduler):
            pass

        with pytest.raises(DeadlineMissedError):
            simulate(DoNothing(), simple_instance)

    def test_double_start_rejected(self):
        class DoubleStart(OnlineScheduler):
            def on_arrival(self, ctx, job):
                ctx.start(job.id)
                ctx.start(job.id)

        with pytest.raises(SchedulingViolationError):
            simulate(DoubleStart(), Instance.from_triples([(0, 1, 1)]))

    def test_unknown_job_rejected(self):
        class StartGhost(OnlineScheduler):
            def on_arrival(self, ctx, job):
                ctx.start(999)

        with pytest.raises(SchedulingViolationError):
            simulate(StartGhost(), Instance.from_triples([(0, 1, 1)]))

    def test_past_timer_rejected(self):
        class PastTimer(OnlineScheduler):
            def on_arrival(self, ctx, job):
                ctx.set_timer(ctx.now - 1.0)

        with pytest.raises(SchedulingViolationError):
            simulate(PastTimer(), Instance.from_triples([(1, 1, 1)]))

    def test_event_budget(self, simple_instance):
        class TimerLoop(OnlineScheduler):
            def on_arrival(self, ctx, job):
                ctx.start(job.id)
                ctx.set_timer(ctx.now)

            def on_timer(self, ctx, tag):
                ctx.set_timer(ctx.now)  # same-time timer forever

        with pytest.raises(SimulationError):
            simulate(TimerLoop(), simple_instance, max_events=1000)

    def test_unknown_length_without_adversary(self):
        inst = Instance([Job(0, 0, 1, None)])
        with pytest.raises(SimulationError):
            simulate(Eager(), inst)

    @pytest.mark.parametrize("armed", [False, True], ids=["disarmed", "armed"])
    @pytest.mark.parametrize("jid", [2**63, 2**64], ids=["2^63", "2^64"])
    def test_batch_job_id_beyond_int64_rejected(self, jid, armed):
        """Batch admission rejects the id before recording its release,
        as streaming admission does."""
        recorder = TraceRecorder() if armed else None
        inst = Instance([Job(0, 0.0, 1.0, 1.0), Job(jid, 0.0, 1.0, 1.0)])
        with pytest.raises(SimulationError, match="int64"):
            simulate(make_scheduler("batch+"), inst, recorder=recorder)
        if recorder is not None:
            released = [
                r.attrs["job"]
                for r in recorder.records
                if r.name == "engine.release"
            ]
            assert released == [0]


class TestContext:
    def test_pending_sorted_by_deadline(self):
        snapshots: list[list[int]] = []

        class PendingPeek(OnlineScheduler):
            def on_deadline(self, ctx, job):
                snapshots.append([v.id for v in ctx.pending()])
                for v in ctx.pending():
                    ctx.start(v.id)

        # J1 has the earlier deadline; J0 pends behind it.
        inst = Instance(
            [Job(0, 0, 8, 1), Job(1, 0, 3, 1)], name="pending-order"
        )
        simulate(PendingPeek(), inst)
        assert snapshots[0] == [1, 0]

    def test_running_view(self):
        observed: list[list[int]] = []

        class RunningPeek(OnlineScheduler):
            def on_arrival(self, ctx, job):
                ctx.start(job.id)
                observed.append([v.id for v in ctx.running()])

        inst = Instance.from_triples([(0, 0, 5), (1, 0, 5)])
        simulate(RunningPeek(), inst)
        assert observed == [[0], [0, 1]]

    def test_is_started_and_completed(self):
        class Checker(OnlineScheduler):
            def on_arrival(self, ctx, job):
                assert not ctx.is_started(job.id)
                ctx.start(job.id)
                assert ctx.is_started(job.id)
                assert not ctx.is_completed(job.id)

            def on_completion(self, ctx, job):
                assert ctx.is_completed(job.id)

        simulate(Checker(), Instance.from_triples([(0, 1, 1)]))


class TestSameTimeSemantics:
    def test_completion_before_arrival_at_same_time(self):
        """A job completing at t is not 'running' for an arrival at t."""
        order: list[str] = []

        class Tracker(OnlineScheduler):
            def on_arrival(self, ctx, job):
                order.append(f"arrive{job.id}")
                ctx.start(job.id)

            def on_completion(self, ctx, job):
                order.append(f"complete{job.id}")

        # J0 runs [0,2); J1 arrives exactly at 2.
        inst = Instance.from_triples([(0, 0, 2), (2, 0, 1)])
        simulate(Tracker(), inst)
        assert order == ["arrive0", "complete0", "arrive1", "complete1"]

    def test_zero_laxity_arrival_then_deadline(self):
        """A zero-laxity job gets its arrival hook before the deadline
        backstop at the same instant."""
        order: list[str] = []

        class ArrivalOnly(OnlineScheduler):
            def on_arrival(self, ctx, job):
                order.append("arrival")

            def on_deadline(self, ctx, job):
                order.append("deadline")
                ctx.start(job.id)

        simulate(ArrivalOnly(), Instance.from_triples([(1, 0, 1)]))
        assert order == ["arrival", "deadline"]


class _OneJobAdversary(BaseAdversary):
    """Releases one adversary-controlled job and assigns length 2."""

    def initial_jobs(self):
        return [Job(0, 0.0, 5.0, None)]

    def assign_length(self, job, t):
        return 2.0


class TestAdversaryIntegration:
    def test_adaptive_length_assignment(self):
        result = simulate(Eager(), adversary=_OneJobAdversary(), clairvoyant=False)
        assert result.instance[0].length == 2.0
        assert result.span == 2.0

    def test_adversary_requires_nonclairvoyant(self):
        with pytest.raises(SimulationError):
            simulate(Eager(), adversary=_OneJobAdversary(), clairvoyant=True)

    def test_adversary_release_in_past_rejected(self):
        class PastRelease(BaseAdversary):
            def initial_jobs(self):
                return [Job(0, 1.0, 2.0, 1.0)]

            def on_start(self, job, t):
                return AdversaryResponse(release=(Job(1, 0.0, 3.0, 1.0),))

        with pytest.raises(SimulationError):
            simulate(Eager(), adversary=PastRelease(), clairvoyant=False)

    def test_nonpositive_assigned_length_rejected(self):
        class BadLength(_OneJobAdversary):
            def assign_length(self, job, t):
                return 0.0

        with pytest.raises(SimulationError):
            simulate(Eager(), adversary=BadLength(), clairvoyant=False)

    def test_base_adversary_assign_not_implemented(self):
        class NoAssign(BaseAdversary):
            def initial_jobs(self):
                return [Job(0, 0.0, 5.0, None)]

        with pytest.raises(NotImplementedError):
            simulate(Eager(), adversary=NoAssign(), clairvoyant=False)


# ---------------------------------------------------------------------------
# Batch starts: an illegal cohort fails with the scalar path's message
# ---------------------------------------------------------------------------


class _StartsUnknownJob:
    """Starts a job id that was never admitted (batch route)."""

    name = "starts-unknown"
    requires_clairvoyance = False

    def on_deadline(self, ctx, job):
        ctx.start_batch([job.id, 10_000])


class _StartsTwice:
    name = "starts-twice"
    requires_clairvoyance = False

    def on_deadline(self, ctx, job):
        ctx.start_batch([job.id, job.id])


class TestStartBatchViolations:
    @pytest.mark.parametrize(
        "scheduler_cls, message",
        [
            (_StartsUnknownJob, "unknown job id 10000"),
            (_StartsTwice, "job 0 was already started"),
        ],
    )
    def test_violation_message(self, scheduler_cls, message):
        inst = Instance.from_triples([(0.0, 1.0, 1.0), (0.0, 1.0, 2.0)])
        with pytest.raises(SchedulingViolationError) as exc:
            simulate(scheduler_cls(), inst)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Cohort dispatch
# ---------------------------------------------------------------------------


class TestCohorts:
    def test_only_arrival_completion_assign_have_cohort_handlers(self):
        kinds = {
            name[len("_cohort_"):]
            for name in vars(ColumnarCore)
            if name.startswith("_cohort_")
        }
        assert kinds == {"arrival", "completion", "assign"}
        assert all(hasattr(EventKind, kind.upper()) for kind in kinds)

    def test_armed_run_counts_every_event_once(self):
        """The per-kind counters add up to the events dispatched, cohorts
        (and an assign cohort's inline completions) included, and the
        run with a structured recorder matches the one without."""
        runs = []
        for rec in (None, TraceRecorder()):
            adv = NonClairvoyantLowerBoundAdversary(
                5.0, geometric_profile(2, 6)
            )
            trace = Trace(rec)
            result = simulate(
                make_scheduler("batch"), adversary=adv,
                clairvoyant=False, recorder=trace,
            )
            runs.append((result, trace, rec))
        (plain, plain_trace, _), (armed, armed_trace, rec) = runs
        counters = rec.metrics.counters
        per_kind = sum(
            value for name, value in counters.items()
            if name.startswith("engine.events.")
        )
        assert per_kind == counters["engine.events_processed"]
        assert per_kind == plain.events_processed == armed.events_processed
        assert list(plain_trace) == list(armed_trace)


# ---------------------------------------------------------------------------
# JobView strict-mode guard (REPRO_STRICT=1 edge cases)
# ---------------------------------------------------------------------------


def _strict_instance() -> Instance:
    # Overlapping windows and queueing: (arrival, laxity, length).
    return Instance.from_triples(
        [
            (0.0, 2.0, 1.0),
            (0.0, 2.0, 3.0),
            (0.5, 1.0, 0.5),
            (2.0, 3.0, 2.0),
            (2.0, 0.5, 1.0),
            (5.0, 1.0, 0.25),
        ],
        name="strict-guard",
    )


class PeekOnArrival(OnlineScheduler):
    """Reads ``job.length`` through the lazy view before completion."""

    name = "test-peek-arrival"
    requires_clairvoyance = False

    def on_arrival(self, ctx, job):
        _ = job.length


class PeekAfterCompletion(OnlineScheduler):
    """Reads ``job.length`` only where it is legal: after completion."""

    name = "test-peek-completion"
    requires_clairvoyance = False

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[tuple[int, float]] = []

    def on_arrival(self, ctx, job):
        assert job.length_if_known is None  # hidden, but not a guard trip
        ctx.start(job.id)

    def on_completion(self, ctx, job):
        self.seen.append((job.id, job.length))


class TestJobViewStrictGuard:
    def _run_strict(
        self, scheduler, monkeypatch, *, recorder=None, clairvoyant=False
    ):
        monkeypatch.setenv("REPRO_STRICT", "1")
        return Simulator(
            scheduler,
            instance=_strict_instance(),
            clairvoyant=clairvoyant,
            recorder=recorder,
        ).run()

    def test_precompletion_read_raises_fast_loop(self, monkeypatch):
        # Non-clairvoyant run: the length is simply hidden, so the view's
        # visibility check fires before the guard is even consulted.
        with pytest.raises(ClairvoyanceError):
            self._run_strict(PeekOnArrival(), monkeypatch)

    def test_precompletion_read_raises_armed_loop(self, monkeypatch):
        # Clairvoyant run, non-clairvoyant scheduler: lengths are visible
        # in the table, so only the strict guard stands between the
        # scheduler and the oracle.  A live recorder also makes the loop
        # dispatch singly — the guard must fire there too, and its trip
        # must land in the recorder.
        rec = TraceRecorder()
        with pytest.raises(ClairvoyanceError):
            self._run_strict(
                PeekOnArrival(), monkeypatch, recorder=rec, clairvoyant=True
            )
        records = [
            r for r in rec.records if r.name == "engine.clairvoyance_guard"
        ]
        assert records, "guard trip must be visible in the armed recorder"

    def test_guard_survives_aborted_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")
        sim = Simulator(
            PeekOnArrival(), instance=_strict_instance(), clairvoyant=True
        )
        with pytest.raises(ClairvoyanceError):
            sim.run()
        assert sim.strict_guard is not None
        assert sim.strict_guard.accesses  # (job_id, time) of the read

    def test_postcompletion_read_allowed(self, monkeypatch):
        sched = PeekAfterCompletion()
        result = self._run_strict(sched, monkeypatch)
        lengths = {job.id: job.length for job in result.instance.jobs}
        assert sched.seen  # every completion surfaced a visible length
        for job_id, length in sched.seen:
            assert length == lengths[job_id]

    def test_length_if_known_never_trips_guard(self, monkeypatch):
        # PeekAfterCompletion calls length_if_known on every arrival; the
        # run completing proves the lazy view treats it as a non-read.
        result = self._run_strict(PeekAfterCompletion(), monkeypatch)
        assert result.schedule.span > 0
