"""Discrete-event simulator for online FJS.

The simulator runs an *online scheduler* against either a static
:class:`~repro.core.job.Instance` or an *adaptive adversary* (which may
inject jobs and commit processing lengths during the run, as the paper's
lower-bound constructions in §3.1 and §4.1 require).

Information models
------------------
* **Clairvoyant** — the scheduler sees ``p(J)`` from the moment ``J``
  arrives (``JobView.length`` is always available).
* **Non-clairvoyant** — ``p(J)`` is hidden until the job completes;
  accessing it earlier raises :class:`ClairvoyanceError`.  This is
  enforced structurally: the scheduler only ever handles
  :class:`JobView` objects, never raw jobs.

Scheduler protocol
------------------
A scheduler implements any subset of the hooks

``on_arrival(ctx, job)`` · ``on_deadline(ctx, job)`` ·
``on_completion(ctx, job)`` · ``on_timer(ctx, tag)``

and acts through the :class:`SchedulerContext`: ``ctx.start(job_id)``
starts a pending job *now*; ``ctx.set_timer(t, tag)`` requests a wake-up.
The engine guarantees ``on_deadline`` fires exactly when an unstarted
job's starting deadline is reached — if the scheduler returns without
starting it, the run aborts with :class:`DeadlineMissedError`, because an
FJS scheduler must start every job within its window.

Adversary protocol
------------------
An adversary (see ``repro.adversaries.base``) supplies initial jobs,
observes starts/completions, may release more jobs (with arrivals at or
after the current time), request wake-ups, and commit the length of any
job it created with ``length=None``.  Lengths are committed at an
``ASSIGN`` event whose time the adversary chooses when the job starts
(the §3.1 construction assigns lengths one time unit after start).

Strict mode (the clairvoyance oracle)
-------------------------------------
The non-clairvoyant contract is enforced structurally only when the run
itself is non-clairvoyant.  A scheduler that *declares*
``requires_clairvoyance = False`` but is executed with
``clairvoyant=True`` (e.g. in a mixed comparison grid) could silently
read lengths it claims not to need.  Under ``strict=True`` — or
``REPRO_STRICT=1`` in the environment — the engine attaches a
:class:`ClairvoyanceGuard` that records every pre-completion
``JobView.length`` read by such a scheduler and raises
:class:`ClairvoyanceError` on the spot.  This is the runtime oracle that
cross-validates the static RL007 rule in :mod:`repro.lint`: both must
agree on any scheduler, and the lint test suite checks them against each
other on shared fixtures.

Engine core and streaming
-------------------------
One core runs every simulation: the struct-of-arrays
:class:`~repro.core.columnar.ColumnarCore`.  Per-job state lives in a
:class:`~repro.core.columnar.JobTable` of NumPy columns, events carry
integer row indexes, and same-time event cohorts are dispatched as array
operations.  ``Job`` and :class:`JobView` objects are materialised
lazily at the API boundary.  :class:`Simulator` is the public façade
over it: :meth:`Simulator.run` drains the event queue in one call, while
:meth:`~Simulator.start_stream`, :meth:`~Simulator.feed`,
:meth:`~Simulator.advance` and :meth:`~Simulator.finish_stream` drive the
same loop incrementally for ``repro serve``.  Batch-family schedulers
use ``ctx.pending_ids()``/``ctx.start_batch()``, which the core
vectorises.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..obs.recorder import Recorder
    from .columnar import ColumnarCore, JobBatch, JobTable

from .errors import (
    ClairvoyanceError,
    SchedulingViolationError,
    SimulationError,
)
from .events import EventKind
from .job import Instance, Job
from .schedule import Schedule
from .trace import Trace

__all__ = [
    "ClairvoyanceGuard",
    "JobView",
    "SchedulerContext",
    "AdversaryResponse",
    "Adversary",
    "SimulationResult",
    "Simulator",
    "simulate",
    "strict_mode_enabled",
]

#: Hard cap on processed events, guarding against runaway scheduler/adversary
#: interactions (e.g. a timer loop that never advances time).
MAX_EVENTS_DEFAULT = 10_000_000


def strict_mode_enabled() -> bool:
    """Whether ``REPRO_STRICT`` requests the clairvoyance oracle."""
    return os.environ.get("REPRO_STRICT", "").strip().lower() not in (
        "",
        "0",
        "false",
        "off",
    )


class ClairvoyanceGuard:
    """Runtime oracle for the non-clairvoyant information model.

    Armed when a :class:`Simulator` runs in strict mode with a scheduler
    declaring ``requires_clairvoyance = False``.
    Any ``JobView.length`` read before the job completes is recorded in
    :attr:`accesses` as ``(job_id, time)`` and then rejected with
    :class:`ClairvoyanceError` — the dynamic twin of the static RL007
    rule in :mod:`repro.lint`.
    """

    __slots__ = ("accesses", "scheduler_name", "_sim")

    def __init__(self, sim: "ColumnarCore", scheduler_name: str) -> None:
        self.accesses: list[tuple[int, float]] = []
        self.scheduler_name = scheduler_name
        #: The engine core — only ``_now`` and ``_obs`` are read off it.
        self._sim = sim

    def record(self, job_id: int) -> None:
        self.accesses.append((job_id, self._sim._now))
        obs = self._sim._obs
        if obs is not None:
            obs.instant(
                "engine.clairvoyance_guard",
                t=self._sim._now,
                job=job_id,
                scheduler=self.scheduler_name,
            )
            obs.counter_add("engine.clairvoyance_guard.reads")
        raise ClairvoyanceError(
            f"strict mode: scheduler {self.scheduler_name!r} declares "
            f"requires_clairvoyance=False but read job {job_id}'s length "
            f"at t={self._sim._now:g}, before the job completed "
            "(REPRO_STRICT clairvoyance oracle)"
        )


class _FoldedRow:
    """The table behind a view whose row a fold dropped: any read raises."""

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        raise SimulationError(
            "this job view is detached: the stream folded the job's row "
            "at an idle instant, after the job completed"
        )


_FOLDED_ROW: Any = _FoldedRow()


class JobView:
    """The scheduler-facing view of a job: one :class:`JobTable` row.

    Exposes arrival, starting deadline and laxity unconditionally; the
    processing length only when the information model permits (always in
    clairvoyant mode, after completion otherwise).  Scalars come from the
    table's Python list mirrors, so every property returns plain floats.
    A view of a row that :meth:`Simulator.fold` dropped is detached:
    every read raises :class:`SimulationError`.
    """

    __slots__ = ("_core", "_table", "_idx")

    def __init__(self, core: "ColumnarCore", idx: int) -> None:
        self._core = core
        self._table: "JobTable" = core._table
        self._idx = idx

    def _detach(self) -> None:
        self._table = _FOLDED_ROW

    @property
    def id(self) -> int:
        return self._table.ids_list[self._idx]

    @property
    def arrival(self) -> float:
        return self._table.arrival_list[self._idx]

    @property
    def deadline(self) -> float:
        """The starting deadline ``d(J)`` (latest permissible start)."""
        return self._table.deadline_list[self._idx]

    @property
    def laxity(self) -> float:
        i = self._idx
        t = self._table
        return t.deadline_list[i] - t.arrival_list[i]

    @property
    def size(self) -> float:
        """Resource demand (DBP extension); always visible."""
        return self._table.size_list[self._idx]

    @property
    def length(self) -> float:
        """``p(J)``; raises :class:`ClairvoyanceError` when still hidden.

        In strict mode (``REPRO_STRICT=1``) a read by a scheduler that
        declared ``requires_clairvoyance = False`` is additionally
        recorded and rejected even when the run is clairvoyant — see
        :class:`ClairvoyanceGuard`.
        """
        t = self._table
        i = self._idx
        if not t.visible[i]:
            raise ClairvoyanceError(
                f"job {t.ids_list[i]}: processing length is hidden in the "
                "non-clairvoyant setting until the job completes"
            )
        guard = self._core._guard
        if guard is not None and not t.done(i):
            guard.record(t.ids_list[i])
        length = t.plen_list[i]
        assert length is not None
        return length

    @property
    def length_if_known(self) -> float | None:
        """``p(J)`` when visible, else ``None`` (no exception)."""
        t = self._table
        i = self._idx
        return t.plen_list[i] if t.visible[i] else None

    @property
    def started(self) -> bool:
        return self._table.start_list[self._idx] is not None

    @property
    def start_time(self) -> float | None:
        return self._table.start_list[self._idx]

    @property
    def completed(self) -> bool:
        return self._table.done(self._idx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        t = self._table
        i = self._idx
        p: Any = t.plen_list[i] if t.visible[i] else "?"
        return (
            f"JobView(id={self.id}, a={self.arrival:g}, d={self.deadline:g}, "
            f"p={p})"
        )


@dataclass(frozen=True)
class AdversaryResponse:
    """What an adversary hook may request from the engine.

    Attributes
    ----------
    release:
        New jobs to inject.  Each job's arrival must be at or after the
        current simulation time.
    wakeup:
        An absolute time at which ``on_wakeup`` should be invoked, or
        ``None``.
    release_batch:
        A columnar :class:`~repro.core.columnar.JobBatch` of new jobs —
        the vector-friendly sibling of ``release``, admitted as arrays.
        When both fields are set, ``release`` is admitted first.
    """

    release: tuple[Job, ...] = ()
    wakeup: float | None = None
    release_batch: "JobBatch | None" = None


@runtime_checkable
class Adversary(Protocol):
    """Structural protocol for adaptive adversaries (see adversaries.base)."""

    def initial_jobs(self) -> Iterable[Job]: ...

    def on_start(self, job: Job, t: float) -> AdversaryResponse | None: ...

    def on_completion(self, job: Job, t: float) -> AdversaryResponse | None: ...

    def on_wakeup(self, t: float) -> AdversaryResponse | None: ...

    def length_decision_time(self, job: Job, start: float) -> float: ...

    def assign_length(self, job: Job, t: float) -> float: ...


class SchedulerContext:
    """The scheduler's handle on the running simulation.

    A thin façade over the engine core: schedulers act through it and
    never touch the core's job table or event queue directly.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: "ColumnarCore") -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._sim._now

    @property
    def clairvoyant(self) -> bool:
        """Whether processing lengths are visible at arrival."""
        return self._sim._clairvoyant

    def start(self, job_id: int) -> None:
        """Start a pending job at the current time.

        Raises :class:`SchedulingViolationError` on any illegal start
        (unknown/unarrived/already-started job, or past the deadline).
        """
        self._sim._start_job(job_id)

    def start_batch(self, job_ids: Sequence[int]) -> None:
        """Start many pending jobs at the current time, in order.

        Semantically identical to ``for jid in job_ids: ctx.start(jid)``
        (same validation, same error on the first illegal start, same
        trace records) — but the core executes the cohort as array
        operations, which is what makes the batch-family schedulers'
        deadline handler O(cohort) instead of O(cohort) Python calls.
        """
        self._sim._start_batch(job_ids)

    def set_timer(self, time: float, tag: Any = None) -> None:
        """Request an ``on_timer(ctx, tag)`` callback at absolute ``time``."""
        sim = self._sim
        if time < sim._now:
            raise SchedulingViolationError(
                f"timer at {time} is in the past (now={sim._now})"
            )
        sim._queue.push(time, EventKind.TIMER, tag)

    def pending(self) -> list[JobView]:
        """Arrived-but-unstarted jobs, sorted by (deadline, arrival, id).

        Backed by an incrementally maintained index, so schedulers may
        call this on every event without an O(all jobs) scan.
        """
        return self._sim._pending_views()

    def pending_ids(self) -> list[int]:
        """Ids of pending jobs, sorted by (deadline, arrival, id).

        Exactly ``[v.id for v in ctx.pending()]`` but without
        materialising the views — pair with :meth:`start_batch` for the
        vectorised cohort-start path.
        """
        return self._sim._pending_ids()

    def is_started(self, job_id: int) -> bool:
        return self._sim._is_started(job_id)

    def is_completed(self, job_id: int) -> bool:
        return self._sim._is_completed(job_id)

    def running(self) -> list[JobView]:
        """Started-but-uncompleted jobs, sorted by (start, id).

        Backed by the same incremental index as :meth:`pending`.
        """
        return self._sim._running_views()


class SimulationResult:
    """Outcome of a completed simulation.

    Attributes
    ----------
    schedule:
        The validated schedule over the *resolved* instance (all
        adversary-controlled lengths committed).
    instance:
        The resolved instance actually executed.
    span:
        The schedule's span (``schedule.span``).
    events_processed:
        Number of events dispatched — a proxy for simulation work.
    scheduler:
        The scheduler object (exposes algorithm-specific statistics such
        as flag jobs).

    Results are constructed *lazily*: ``span`` and
    ``events_processed`` are available immediately, while the
    ``Job``/``Instance``/``Schedule`` objects are materialised from the
    job table on first access of ``schedule``/``instance`` (benchmark
    loops and served closes that only read ``span`` never pay for them;
    armed runs take the ``engine.run_end`` metrics off the columns).
    A stream that folded (:meth:`Simulator.fold`) no longer holds the
    rows of its past, so its ``schedule`` and ``instance`` raise
    :class:`SimulationError`; so does a :meth:`summary`'s.
    """

    __slots__ = (
        "events_processed",
        "scheduler",
        "trace",
        "recorder",
        "_schedule",
        "_instance",
        "_span",
        "_materialize",
    )

    def __init__(
        self,
        *,
        schedule: Schedule | None = None,
        instance: Instance | None = None,
        events_processed: int,
        scheduler: Any,
        trace: Trace | None = None,
        recorder: Any | None = None,
        materialize: "Callable[[], tuple[Schedule, Instance]] | None" = None,
        span: float | None = None,
    ) -> None:
        if schedule is None and materialize is None:
            raise SimulationError(
                "SimulationResult needs either an eager schedule or a "
                "materialize callback"
            )
        self.events_processed = events_processed
        self.scheduler = scheduler
        self.trace = trace
        #: The armed structured recorder (``None`` when observability was
        #: off) — exposes ``records``/``metrics`` and the JSONL sink.
        self.recorder = recorder
        self._schedule = schedule
        self._instance = instance
        self._span = span
        self._materialize = materialize

    def _ensure(self) -> Schedule:
        schedule = self._schedule
        if schedule is None:
            assert self._materialize is not None
            schedule, self._instance = self._materialize()
            self._schedule = schedule
            self._materialize = None
        return schedule

    @property
    def schedule(self) -> Schedule:
        return self._ensure()

    @property
    def instance(self) -> Instance:
        self._ensure()
        assert self._instance is not None
        return self._instance

    @property
    def span(self) -> float:
        if self._span is not None:
            return self._span
        return self._ensure().span

    def summary(self, reason: str) -> "SimulationResult":
        """This result's span and event count, without the run behind it.

        The summary holds no scheduler, trace, recorder or job table;
        its ``schedule`` and ``instance`` raise :class:`SimulationError`
        with ``reason``.
        """

        def gone() -> tuple[Schedule, Instance]:
            raise SimulationError(reason)

        return SimulationResult(
            events_processed=self.events_processed,
            scheduler=None,
            materialize=gone,
            span=self.span,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult(scheduler={type(self.scheduler).__name__}, "
            f"span={self.span:g}, events={self.events_processed})"
        )


class Simulator:
    """Runs one online scheduler against one instance or adversary.

    Parameters
    ----------
    scheduler:
        An object implementing (a subset of) the scheduler hooks.  Its
        ``setup(ctx)`` method, if present, is invoked before any event.
    instance:
        A static instance; mutually exclusive with ``adversary``.
    adversary:
        An adaptive adversary; mutually exclusive with ``instance``.
    clairvoyant:
        The information model.  Adversary-controlled lengths require
        ``clairvoyant=False`` (a clairvoyant scheduler must know lengths
        at arrival).
    max_events:
        Safety cap on dispatched events.
    trace:
        When true, record a :class:`~repro.core.trace.Trace` of every
        event and scheduler action (exposed on the result).
    strict:
        Enable the clairvoyance oracle (see module docstring).  ``None``
        (the default) defers to the ``REPRO_STRICT`` environment
        variable, so test runs can switch the whole suite on at once.
    recorder:
        A :class:`repro.obs.Recorder` for structured tracing, metrics,
        and decision provenance.  ``None`` (the default) uses the
        process's ambient recorder, which ``REPRO_TRACE=1`` arms — so
        observability needs no code changes at call sites.  A disabled
        recorder (``NullRecorder`` included) is mapped to ``None``
        before the event loop starts: the hot path then carries one
        ``is not None`` test per event, which is what keeps the golden
        trace bit-identical and the macro-bench overhead ≤2 %.

    The simulator is a façade over one
    :class:`~repro.core.columnar.ColumnarCore`, which owns all run state.
    """

    def __init__(
        self,
        scheduler: Any,
        *,
        instance: Instance | None = None,
        adversary: Adversary | None = None,
        clairvoyant: bool = False,
        max_events: int = MAX_EVENTS_DEFAULT,
        trace: bool = False,
        strict: bool | None = None,
        recorder: "Recorder | None" = None,
    ) -> None:
        # Function-level import: the core module imports this one.
        from .columnar import ColumnarCore

        self._core = ColumnarCore(
            scheduler,
            instance=instance,
            adversary=adversary,
            clairvoyant=clairvoyant,
            max_events=max_events,
            trace=trace,
            strict=strict,
            recorder=recorder,
        )

    @property
    def strict_guard(self) -> ClairvoyanceGuard | None:
        """The clairvoyance oracle, when strict mode armed one.

        Its ``accesses`` list survives an aborted run, so tests can
        inspect exactly which pre-completion reads occurred.
        """
        return self._core._guard

    def run(self) -> SimulationResult:
        """Execute the simulation to completion and return the result."""
        return self._core.run()

    # -------------------------------------------------------- streaming feed
    @property
    def now(self) -> float:
        """The logical clock (simulation time) — read-only.

        Streaming callers (``repro serve``) use it to report per-tenant
        progress and to stamp checkpoints; batch callers never need it.
        """
        return self._core._now

    def start_stream(self) -> None:
        """Begin an incremental (streaming) session.

        This is the entry point behind ``repro serve``: instead of one
        :meth:`run` that drains every queued event, the caller
        interleaves :meth:`feed` (admit newly arrived jobs),
        :meth:`advance` (process queued events up to a logical time) and
        finally :meth:`finish_stream` (drain and build the result).  The
        dispatch loop is the one :meth:`run` drains — the same heap, the
        same ``(time, kind, seq)`` total order, the same handlers — so a
        time-ordered job stream produces the same schedule, trace and
        decision records as running the equivalent static instance in
        one shot.  Adversaries are not supported: a streaming session's
        jobs come from the outside world, not from an in-process
        construction.
        """
        self._core.start_stream()

    def feed(self, jobs: "Iterable[Job]") -> int:
        """Admit newly arrived jobs mid-stream; returns how many.

        Each job's arrival must be at or after the current logical clock
        (:class:`SimulationError` otherwise) — the stream is online, so
        the past cannot grow new jobs.  Admission only queues the
        arrival event; it is dispatched by a later :meth:`advance` whose
        horizon covers it, which is what preserves the batch engine's
        same-time cohort order for jobs fed one line at a time.
        """
        return self._core.feed(jobs)

    def advance(self, until: float | None = None, *, inclusive: bool = True) -> int:
        """Dispatch queued events up to ``until``; returns the count.

        ``None`` drains the queue completely.  With ``inclusive=False``
        only events *strictly before* ``until`` dispatch — the mode the
        serve session uses when a job at arrival ``a`` comes in, so the
        whole time-``a`` cohort (arrivals before deadlines, exactly as
        the batch engine orders them) stays queued until the stream
        moves past ``a``.  Either way the logical clock ends at
        ``max(now, until)``, so a later :meth:`feed` of a job arriving
        before ``until`` is rejected: per-tenant streams must be
        time-monotone, exactly like the online model.
        """
        return self._core.advance(until, inclusive=inclusive)

    def finish_stream(self) -> SimulationResult:
        """Drain every remaining event and build the result.

        Remaining deadline events force their starts on the way out (the
        FJS contract: every admitted job must start within its window),
        so after this returns every fed job has started and completed.
        """
        if self._core._streaming:
            # Drain through the public advance, the call that per-layer
            # instrumentation wraps; the core's finish then has no work.
            self.advance(None)
        return self._core.finish_stream()

    def fold(self) -> int:
        """Drop what an idle stream holds of its completed jobs.

        Call it between :meth:`feed`/:meth:`advance` steps; it returns
        the number of jobs dropped, 0 unless the session is idle (no job
        pending or running) and the scheduler declares ``foldable``.  In
        the online model a start is never revised and a finished job
        never affects a later decision, so at an idle instant the past
        can go.  Dropped:

        * the completed rows (columns, list mirrors, ``Job`` objects,
          views, the id → row map); the kept rows are renumbered, and
          a view of a dropped row is detached (reads raise);
        * the scheduler's per-job history (its ``fold()``).

        Kept: each dropped row's covered length (8 bytes per job, so
        the final span is bit-identical), the dropped ids as runs of
        consecutive ids (a duplicate is still rejected), their count
        and, when armed, their ``engine.job_length`` observations, made
        here.  A started job's queued deadline event still pops and
        counts.  Nothing is emitted.  The finished result then keeps
        ``span`` and ``events_processed`` only.  Batch runs never fold.
        """
        return self._core.fold()


def simulate(
    scheduler: Any,
    instance: Instance | None = None,
    *,
    adversary: Adversary | None = None,
    clairvoyant: bool = False,
    max_events: int = MAX_EVENTS_DEFAULT,
    trace: bool = False,
    strict: bool | None = None,
    recorder: "Recorder | None" = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`.

    Examples
    --------
    >>> from repro.core.job import Instance
    >>> from repro.schedulers import BatchPlus
    >>> inst = Instance.from_triples([(0, 2, 1), (0.5, 1, 3)])
    >>> result = simulate(BatchPlus(), inst)
    >>> result.span > 0
    True
    """
    return Simulator(
        scheduler,
        instance=instance,
        adversary=adversary,
        clairvoyant=clairvoyant,
        max_events=max_events,
        trace=trace,
        strict=strict,
        recorder=recorder,
    ).run()
