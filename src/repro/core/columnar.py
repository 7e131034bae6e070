"""Struct-of-arrays engine core: the one event loop behind every run.

An object-per-job layout would allocate one ``Job``, one state record and
one ``JobView`` per job and dispatch every event through a Python
handler.  On the §3.1 adversarial macro (k = 2: 65 808 jobs, >260 000
events) those per-job objects and per-event frames would be the dominant
cost.  This module uses a columnar layout instead:

``JobTable``
    One NumPy column per field (``arrival``/``deadline``/``length``/
    ``start`` as float64, ``ids`` as int64, ``state`` as int8) plus
    Python-list mirrors of the float columns.  Events carry integer
    **row indexes** into the table; ``Job``/:class:`~repro.core.engine.JobView`
    objects are materialised lazily, only at API boundaries (scheduler
    hooks, adversary scalar hooks, the final ``SimulationResult``).

    The list mirrors are load-bearing, not a convenience: heap tuples
    and ``JobView`` properties must carry *Python* floats — a stray
    ``np.float64`` inside a heap tuple forces NumPy comparison dunders
    on every sift (slower than the C tuple fast path) and poisons
    ``json.dumps`` in the obs layer.  Scalar reads therefore go through
    the mirrors; vector math goes through the columns.

``ColumnarCore``
    The event loop, :meth:`ColumnarCore._dispatch`.  :meth:`run` drains
    it with no horizon; the streaming API (``start_stream``/``feed``/
    ``advance``/``finish_stream``) drives it up to a horizon at a time.
    It pops :class:`~repro.core.events.EventQueue` entries in their
    ``(time, kind, seq)`` total order and adds **cohort gathering**: when
    the next heap entries share ``(time, kind)`` they are popped together
    and handled as one array operation.  Gathering kind ``K`` at time
    ``t`` is sound because no handler can push an event at
    ``(t, kind < K)``, and a cohort never crosses a horizon because all
    of it shares one time.  Cohorts gather only when:

    * ``ARRIVAL`` — the scheduler's ``on_arrival`` is the inherited
      no-op (arrival handling then only flips state and pushes
      ``DEADLINE`` events, kind 3 > 2);
    * ``ASSIGN`` — the adversary implements ``assign_lengths_batch``
      (probed via the ``_repro_fallback`` marker *before* gathering,
      because popped events cannot be un-popped).  Same-time completions
      produced by an assign cohort (the §3.1 shape: start + 1 = assign
      time = completion time for every length-1 job) are consumed
      **inline**, never pushed — they still count in
      ``events_processed``, exactly as if popped;
    * ``COMPLETION`` — always (lengths are > 0, so no handler can create
      another completion at the same instant);
    * ``DEADLINE``/``TIMER``/``ADVERSARY`` — never (their handlers may
      start jobs or mutate arbitrary state per event);
    * and never while a recorder is armed.  Gathering changes heap
      push/pop mechanics, which the armed loop surfaces (per-kind event
      counters, ``heap.pushes``, ``heap.peak``), so armed runs dispatch
      every event singly and their obs output stays fixed.

Gathered and single dispatch are observably identical: the same traces,
schedules, exceptions (type, message, and which job raises first) and
obs records.  ``tests/data/engine_oracle.jsonl`` pins that output; the
rules that make it hold are spelled out at each site below.

A streaming run may also *fold* (:meth:`ColumnarCore.fold`): at an idle
instant it drops its completed rows and renumbers the rest, keeping of
the past only what the final result reads off it (each row's covered
length, the ids, the count).  Batch runs never fold.
"""

from __future__ import annotations

import math
from array import array
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DeadlineMissedError,
    SchedulingViolationError,
    SimulationError,
)
from .events import EventQueue
from .intervals import covered_lengths, union_measure
from .intervalset import MutableIntervalSet
from .job import Instance, Job
from .schedule import Schedule
from .trace import Trace, TraceKind

from .engine import (
    MAX_EVENTS_DEFAULT,
    ClairvoyanceGuard,
    JobView,
    SchedulerContext,
    SimulationResult,
    strict_mode_enabled,
)

# Submodule imports (not the ``repro.obs`` package facade) so the
# core <-> obs import cycle stays one-directional at module level:
# ``repro.obs.explain`` imports ``repro.core.audit``, never the engine.
from ..obs.runtime import get_recorder as _get_ambient_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.recorder import Recorder
    from .engine import Adversary, AdversaryResponse

__all__ = ["JobBatch", "JobTable", "ColumnarCore"]

# Event-kind ints, hoisted (see repro.core.events.EventKind).
_COMPLETION = 0
_ASSIGN = 1
_ARRIVAL = 2
_DEADLINE = 3
_TIMER = 4
_ADVERSARY = 5

# Job lifecycle states (int8 column).
_ADMITTED = 0  # released, arrival event not yet dispatched
_PENDING = 1   # arrived, not started
_RUNNING = 2   # started, not completed
_DONE = 3      # completed

#: Below this cohort size, pushing events one by one beats re-heapifying
#: the whole heap (heapify is O(heap), heappush is O(log heap)).
_HEAPIFY_MIN = 64

#: Once this many same-(time, kind) events have been popped one by one,
#: assume the cohort is a large wave and switch to a single partition
#: scan of the heap (O(heap) + sort(cohort) beats cohort · log(heap)
#: heappops for waves that are a sizeable fraction of the heap).
_SCAN_MIN = 32

#: Per-kind dispatch counters (indexed by the raw event kind int) for the
#: observability layer; only touched when a recorder is armed.
_OBS_EVENT_COUNTERS = (
    "engine.events.completion",  # 0
    "engine.events.assign",      # 1
    "engine.events.arrival",     # 2
    "engine.events.deadline",    # 3
    "engine.events.timer",       # 4
    "engine.events.adversary",   # 5
)

#: The gatherable-kind mask while a recorder is armed: no cohorts.
_NO_COHORTS = (False,) * 6

#: The largest job id the int64 ``ids`` column holds.
_MAX_ID = int(np.iinfo(np.int64).max)

#: The row payload of a queued event whose row a fold dropped (a started
#: job's stale DEADLINE): it still pops and counts, and does nothing.
_FOLDED = -1

#: The NumPy columns of a :class:`JobTable`.
_COLUMNS = (
    "ids",
    "arrival",
    "deadline",
    "length0",
    "plen",
    "size",
    "start",
    "state",
)

_MISSING: Any = object()

_F64 = NDArray[np.float64]
_I64 = NDArray[np.int64]


def _as_column(values: Any, n: int, default: float) -> _F64:
    """Coerce a JobBatch column argument to a float64 array of length n."""
    if values is None:
        return np.full(n, default, dtype=np.float64)
    if isinstance(values, (int, float)):
        return np.full(n, float(values), dtype=np.float64)
    return np.ascontiguousarray(values, dtype=np.float64)


class JobBatch:
    """A columnar batch of job releases.

    Adversaries (and ``AdversaryResponse.release_batch``) use this to
    hand the engine whole iterations as arrays, which it admits column
    by column; :meth:`jobs` materialises the equivalent (fully
    validated) :class:`Job` objects.

    ``length`` is ``None`` (all adversary-controlled), a scalar
    (broadcast), or an array with NaN marking adversary-controlled
    entries.  ``size`` defaults to 1.0.
    """

    __slots__ = ("ids", "arrival", "deadline", "length", "size", "_jobs")

    def __init__(
        self,
        ids: Any,
        arrival: Any,
        deadline: Any,
        length: Any = None,
        size: Any = None,
    ) -> None:
        self.ids: _I64 = np.ascontiguousarray(ids, dtype=np.int64)
        n = int(self.ids.shape[0]) if self.ids.ndim == 1 else -1
        self.arrival: _F64 = _as_column(arrival, n, 0.0)
        self.deadline: _F64 = _as_column(deadline, n, 0.0)
        self.length: _F64 = _as_column(length, n, math.nan)
        self.size: _F64 = _as_column(size, n, 1.0)
        for col in (self.arrival, self.deadline, self.length, self.size):
            if col.shape != (n,) or n < 0:
                raise ValueError(
                    "JobBatch columns must be 1-D arrays of one shared length"
                )
        self._jobs: tuple[Job, ...] | None = None

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def jobs(self) -> tuple[Job, ...]:
        """Materialise (and cache) the equivalent ``Job`` objects.

        Uses the validating constructor on purpose: it raises exactly the
        ``InvalidJobError`` a hand-built release would.
        """
        if self._jobs is None:
            ids = self.ids.tolist()
            arrivals = self.arrival.tolist()
            deadlines = self.deadline.tolist()
            lengths = self.length.tolist()
            sizes = self.size.tolist()
            self._jobs = tuple(
                Job(
                    id=ids[k],
                    arrival=arrivals[k],
                    deadline=deadlines[k],
                    length=None if math.isnan(lengths[k]) else lengths[k],
                    size=sizes[k],
                )
                for k in range(len(ids))
            )
        return self._jobs


class JobTable:
    """Struct-of-arrays job storage for :class:`ColumnarCore`.

    Row index = admission order (stable for the whole run); columns grow
    by capacity doubling.  ``length0`` is the length as *released* (NaN
    for adversary-controlled jobs) and ``plen`` the committed length
    (NaN until assigned); ``visible`` (a plain list: it is only ever
    read one row at a time) tracks whether the scheduler may read it
    (clairvoyant-at-release, or completed).
    """

    __slots__ = (
        "n",
        "_cap",
        "ids",
        "arrival",
        "deadline",
        "length0",
        "plen",
        "size",
        "start",
        "state",
        "visible",
        "ids_list",
        "arrival_list",
        "deadline_list",
        "plen_list",
        "start_list",
        "size_list",
        "idx_of",
        "ids_contiguous",
        "_jobs",
    )

    def __init__(self) -> None:
        self.n = 0
        self._cap = 0
        self.ids: _I64 = np.empty(0, dtype=np.int64)
        self.arrival: _F64 = np.empty(0, dtype=np.float64)
        self.deadline: _F64 = np.empty(0, dtype=np.float64)
        self.length0: _F64 = np.empty(0, dtype=np.float64)
        self.plen: _F64 = np.empty(0, dtype=np.float64)
        self.size: _F64 = np.empty(0, dtype=np.float64)
        self.start: _F64 = np.empty(0, dtype=np.float64)
        self.state: NDArray[np.int8] = np.empty(0, dtype=np.int8)
        self.visible: list[bool] = []
        # Python mirrors (scalar reads; see module docstring).
        self.ids_list: list[int] = []
        self.arrival_list: list[float] = []
        self.deadline_list: list[float] = []
        self.plen_list: list[float | None] = []
        self.start_list: list[float | None] = []
        self.size_list: list[float] = []
        self.idx_of: dict[int, int] = {}
        #: True while every row ``i`` has ``ids[i] == i`` — the §3.1
        #: adversaries number jobs 0, 1, 2, … in release order, making
        #: id → row a no-op (``_start_batch`` then skips 10⁴–10⁵ dict
        #: lookups per cohort).
        self.ids_contiguous = True
        #: Lazily materialised ``Job`` per row (original object when the
        #: job entered as one, so adversary scalar hooks see identity).
        self._jobs: list[Job | None] = []

    def _grow(self, extra: int) -> None:
        need = self.n + extra
        if need <= self._cap:
            return
        cap = max(need, self._cap * 2, 64)
        n = self.n
        for name in _COLUMNS:
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)
        # Rows past ``n`` wait in the admission state (not started), so
        # appends write only the released fields.
        self.start[n:] = math.nan
        self.state[n:] = _ADMITTED
        self._cap = cap

    def _append_common(
        self, sl: slice, k: int, length: _F64, clairvoyant: bool
    ) -> None:
        self.length0[sl] = length
        self.plen[sl] = length
        if clairvoyant:
            self.visible.extend((~np.isnan(length)).tolist())
        else:
            self.visible.extend([False] * k)
        self.start_list.extend([None] * k)

    def append_jobs(
        self, jobs: Sequence[Job], clairvoyant: bool
    ) -> int:
        """Bulk-append validated ``Job`` objects; returns the base row."""
        k = len(jobs)
        self._grow(k)
        base = self.n
        sl = slice(base, base + k)
        ids = [job.id for job in jobs]
        arrivals = [job.arrival for job in jobs]
        deadlines = [job.deadline for job in jobs]
        lengths = [job.length for job in jobs]
        sizes = [job.size for job in jobs]
        self.ids[sl] = ids
        if self.ids_contiguous and ids != list(range(base, base + k)):
            self.ids_contiguous = False
        self.arrival[sl] = arrivals
        self.deadline[sl] = deadlines
        self.size[sl] = sizes
        length_col = np.array(
            [math.nan if ln is None else ln for ln in lengths],
            dtype=np.float64,
        )
        self._append_common(sl, k, length_col, clairvoyant)
        self.ids_list.extend(ids)
        self.arrival_list.extend(arrivals)
        self.deadline_list.extend(deadlines)
        self.plen_list.extend(lengths)
        self.size_list.extend(sizes)
        self._jobs.extend(jobs)
        self.n = base + k
        return base

    def append_job(self, job: Job, clairvoyant: bool) -> int:
        """Append one validated ``Job`` with scalar writes; returns its row.

        The streaming path admits one job per protocol op, where the
        slice assignments of :meth:`append_jobs` cost more than the
        writes themselves.  The NumPy writes come first, so a value the
        columns cannot hold raises before the row is committed.
        """
        idx = self.n
        if idx == self._cap:
            self._grow(1)
        jid = job.id
        length = job.length
        known = math.nan if length is None else length
        self.ids[idx] = jid
        self.arrival[idx] = job.arrival
        self.deadline[idx] = job.deadline
        self.length0[idx] = known
        self.plen[idx] = known
        self.size[idx] = job.size
        if self.ids_contiguous and jid != idx:
            self.ids_contiguous = False
        self.ids_list.append(jid)
        self.arrival_list.append(job.arrival)
        self.deadline_list.append(job.deadline)
        self.plen_list.append(length)
        self.visible.append(clairvoyant and length is not None)
        self.start_list.append(None)
        self.size_list.append(job.size)
        self._jobs.append(job)
        self.n = idx + 1
        return idx

    def append_columns(self, batch: JobBatch, clairvoyant: bool) -> int:
        """Bulk-append a validated :class:`JobBatch`; returns the base row."""
        k = len(batch)
        self._grow(k)
        base = self.n
        sl = slice(base, base + k)
        self.ids[sl] = batch.ids
        if self.ids_contiguous and k and not bool(
            (batch.ids == np.arange(base, base + k)).all()
        ):
            self.ids_contiguous = False
        self.arrival[sl] = batch.arrival
        self.deadline[sl] = batch.deadline
        self.size[sl] = batch.size
        self._append_common(sl, k, batch.length, clairvoyant)
        self.ids_list.extend(batch.ids.tolist())
        self.arrival_list.extend(batch.arrival.tolist())
        self.deadline_list.extend(batch.deadline.tolist())
        self.plen_list.extend(
            None if math.isnan(v) else v for v in batch.length.tolist()
        )
        self.size_list.extend(batch.size.tolist())
        self._jobs.extend([None] * k)
        self.n = base + k
        return base

    def job(self, idx: int) -> Job:
        """The row as a ``Job`` (original length, NaN → ``None``).

        Rows appended from a :class:`JobBatch` were already validated
        column-wise, so construction skips ``__post_init__`` (the
        ``with_length`` idiom); rows appended as objects return the
        original instance.
        """
        job = self._jobs[idx]
        if job is None:
            ln0 = float(self.length0[idx])
            job = object.__new__(Job)
            object.__setattr__(job, "id", self.ids_list[idx])
            object.__setattr__(job, "arrival", self.arrival_list[idx])
            object.__setattr__(job, "deadline", self.deadline_list[idx])
            object.__setattr__(
                job, "length", None if math.isnan(ln0) else ln0
            )
            object.__setattr__(job, "size", self.size_list[idx])
            self._jobs[idx] = job
        return job

    def done(self, idx: int) -> bool:
        """Whether the row's job has completed."""
        return bool(self.state[idx] == _DONE)

    def drop_prefix(self, k: int) -> None:
        """Drop rows ``0..k-1``: row ``k + i`` becomes row ``i``.

        The columns keep their capacity (the vacated tail goes back to
        the admission state, as :meth:`_grow` leaves it), and ``idx_of``
        is the caller's to update.
        """
        n = self.n
        m = n - k
        for name in _COLUMNS:
            col = getattr(self, name)
            col[:m] = col[k:n]
        self.start[m:n] = math.nan
        self.state[m:n] = _ADMITTED
        for rows in (
            self.visible,
            self.ids_list,
            self.arrival_list,
            self.deadline_list,
            self.plen_list,
            self.start_list,
            self.size_list,
            self._jobs,
        ):
            del rows[:k]
        self.ids_contiguous = False
        self.n = m


class _FoldedPast:
    """What a folded stream keeps of the rows it dropped.

    ``covered`` holds each dropped row's covered length in start order
    (:func:`~repro.core.intervals.covered_lengths`, 8 bytes per job),
    ``ids`` the dropped ids as runs of consecutive ids, and ``jobs``
    their count.
    """

    __slots__ = ("jobs", "covered", "ids")

    def __init__(self) -> None:
        self.jobs = 0
        self.covered = array("d")
        self.ids = MutableIntervalSet()

    def add_ids(self, ids: list[int]) -> None:
        """Record dropped ids, one run per stretch of consecutive ids."""
        lo, hi = min(ids), max(ids)
        if hi - lo == len(ids) - 1:  # distinct ids: one stretch
            self.ids.add(lo, hi + 1)
            return
        ids = sorted(ids)
        lo = prev = ids[0]
        for jid in ids[1:]:
            if jid != prev + 1:
                self.ids.add(lo, prev + 1)
                lo = jid
            prev = jid
        self.ids.add(lo, prev + 1)


def _batch_capable(adversary: Any, name: str) -> bool:
    """Whether the adversary overrides a batch hook (vs the marked fallback)."""
    if adversary is None:
        return False
    meth = getattr(adversary, name, None)
    return callable(meth) and not getattr(meth, "_repro_fallback", False)


def _resolve_hook(scheduler: Any, name: str) -> Any:
    """A scheduler hook, or ``None`` when absent or an inherited no-op.

    Hooks resolve once per run instead of via getattr per event.
    Inherited no-op defaults (``OnlineScheduler`` marks them with
    ``_repro_noop_hook``) resolve to ``None`` so the loop pays no Python
    call per event for a hook that does nothing — and so it knows a
    cohort has no per-job callback to honour.
    """
    hook = getattr(scheduler, name, None)
    if hook is None or not callable(hook):
        return None
    if getattr(hook, "_repro_noop_hook", False):
        return None
    return hook


class ColumnarCore:
    """One simulation run over a :class:`JobTable`.

    Constructed by :class:`~repro.core.engine.Simulator` (whose
    parameters it takes); see the module docstring for the gathering
    rules.  A core runs once: either :meth:`run`, or one streaming
    session from :meth:`start_stream` to :meth:`finish_stream`.
    """

    __slots__ = (
        "_scheduler",
        "_scheduler_name",
        "_instance",
        "_adversary",
        "_clairvoyant",
        "_max_events",
        "_trace",
        "_obs",
        "_guard",
        "_queue",
        "_table",
        "_views",
        "_pending",
        "_running",
        "_now",
        "_events_processed",
        "_heap_peak",
        "_ctx",
        "_started",
        "_streaming",
        "_hook_arrival",
        "_hook_deadline",
        "_hook_completion",
        "_hook_timer",
        "_adv_start_batch",
        "_adv_completion_batch",
        "_adv_assign_batch",
        "_handlers",
        "_gatherable",
        "_foldable",
        "_past",
    )

    def __init__(
        self,
        scheduler: Any,
        *,
        instance: Instance | None = None,
        adversary: "Adversary | None" = None,
        clairvoyant: bool = False,
        max_events: int = MAX_EVENTS_DEFAULT,
        trace: bool = False,
        strict: bool | None = None,
        recorder: "Recorder | None" = None,
    ) -> None:
        if (instance is None) == (adversary is None):
            raise SimulationError(
                "provide exactly one of instance= or adversary="
            )
        self._scheduler = scheduler
        self._scheduler_name = type(scheduler).__name__
        self._instance = instance
        self._adversary: Any = adversary
        self._clairvoyant = clairvoyant
        self._max_events = max_events
        if strict is None:
            strict = strict_mode_enabled()

        # Observability: resolve the recorder (explicit > ambient), then
        # collapse "disabled" to None so the hot loop tests one local.
        if recorder is None:
            recorder = _get_ambient_recorder()
        self._obs: "Recorder | None" = recorder if recorder.enabled else None
        if self._obs is not None and hasattr(scheduler, "obs"):
            # Arm the scheduler's decision-provenance channel.
            scheduler.obs = self._obs

        self._guard: ClairvoyanceGuard | None = None
        if strict and not getattr(
            type(scheduler), "requires_clairvoyance", False
        ):
            self._guard = ClairvoyanceGuard(self, self._scheduler_name)

        self._trace: Trace | None = Trace() if trace else None
        self._queue = EventQueue()
        self._table = JobTable()
        self._views: list[JobView | None] = []
        #: Incremental indexes (row index -> None) behind ctx.pending()/
        #: ctx.running(); dicts for O(1) removal with stable order.
        self._pending: dict[int, None] = {}
        self._running: dict[int, None] = {}
        self._now = 0.0
        self._events_processed = 0
        self._heap_peak = 0
        self._ctx = SchedulerContext(self)
        self._started = False
        self._streaming = False
        #: Whether the scheduler lets a streaming run fold (see fold()).
        self._foldable = bool(getattr(type(scheduler), "foldable", False))
        self._past: _FoldedPast | None = None
        self._hook_arrival = _resolve_hook(scheduler, "on_arrival")
        self._hook_deadline = _resolve_hook(scheduler, "on_deadline")
        self._hook_completion = _resolve_hook(scheduler, "on_completion")
        self._hook_timer = _resolve_hook(scheduler, "on_timer")
        # Capability probes — resolved *before* any gathering, because a
        # gathered cohort cannot be pushed back onto the heap.
        self._adv_start_batch = _batch_capable(adversary, "on_start_batch")
        self._adv_completion_batch = _batch_capable(
            adversary, "on_completion_batch"
        )
        self._adv_assign_batch = _batch_capable(
            adversary, "assign_lengths_batch"
        )
        self._handlers: tuple[Callable[[Any], None], ...] = (
            self._handle_completion,  # 0 COMPLETION
            self._handle_assign,      # 1 ASSIGN
            self._handle_arrival,     # 2 ARRIVAL
            self._handle_deadline,    # 3 DEADLINE
            self._handle_timer,       # 4 TIMER
            self._handle_adversary,   # 5 ADVERSARY
        )
        # Which kinds may be taken as cohorts (see module docstring).
        self._gatherable = (
            True,                        # COMPLETION
            self._adv_assign_batch,      # ASSIGN
            self._hook_arrival is None,  # ARRIVAL
            False,                       # DEADLINE
            False,                       # TIMER
            False,                       # ADVERSARY
        )

    # ------------------------------------------------------------------ run
    def run(self) -> SimulationResult:
        """Admit the initial jobs, drain the event loop, build the result."""
        self._begin(streaming=False)
        obs = self._obs
        if obs is None:
            self._dispatch(None, True)
            return self._finish()
        try:
            with obs.span("engine.dispatch"):
                self._dispatch(None, True)
        finally:
            obs.counter_add("engine.events_processed", self._events_processed)
            obs.counter_add("engine.heap.pushes", self._queue._seq)
            obs.gauge_set("engine.heap.peak", float(self._heap_peak))
        return self._finish()

    def _begin(self, *, streaming: bool) -> None:
        """Admit the initial jobs and call the scheduler's ``setup``."""
        if self._started:
            raise SimulationError("a Simulator instance can only run once")
        self._started = True
        adversary = self._adversary
        if self._instance is not None:
            self._admit_jobs(list(self._instance.jobs))
        else:
            batch: JobBatch | None = None
            initial_batch = getattr(adversary, "initial_batch", None)
            if callable(initial_batch):
                batch = initial_batch()
            if batch is not None:
                self._admit_batch_cols(batch)
            else:
                self._admit_jobs(list(adversary.initial_jobs()))

        setup = getattr(self._scheduler, "setup", None)
        if callable(setup):
            setup(self._ctx)

        obs = self._obs
        if obs is not None:
            attrs: dict[str, Any] = {
                "scheduler": self._scheduler_name,
                "clairvoyant": self._clairvoyant,
                "adversarial": adversary is not None,
                "initial_jobs": self._table.n,
            }
            if streaming:
                attrs["streaming"] = True
            obs.instant("engine.run_begin", **attrs)

    # ------------------------------------------------------------ streaming
    def start_stream(self) -> None:
        """Begin a streaming session (see ``Simulator.start_stream``)."""
        if self._started:
            raise SimulationError("a Simulator instance can only run once")
        if self._adversary is not None:
            raise SimulationError(
                "streaming sessions do not support adversaries"
            )
        self._begin(streaming=True)
        self._streaming = True

    def feed(self, jobs: "Iterable[Job]") -> int:
        """Admit newly arrived jobs mid-stream; returns how many."""
        if not self._streaming:
            raise SimulationError(
                "feed() requires an active start_stream() session"
            )
        batch = list(jobs)
        if len(batch) == 1:
            self._admit_job(batch[0])
        elif batch:
            self._admit_jobs(batch)
        return len(batch)

    def advance(self, until: float | None = None, *, inclusive: bool = True) -> int:
        """Dispatch queued events up to ``until``; returns the count."""
        if not self._streaming:
            raise SimulationError(
                "advance() requires an active start_stream() session"
            )
        if until is not None and until < self._now:
            raise SimulationError(
                f"advance({until}) is in the past (now={self._now})"
            )
        dispatched = self._dispatch(until, inclusive)
        if until is not None and until > self._now:
            self._now = until
        return dispatched

    def finish_stream(self) -> SimulationResult:
        """Drain the queue and build the result, ending the session."""
        if not self._streaming:
            raise SimulationError(
                "finish_stream() requires an active start_stream() session"
            )
        self._dispatch(None, True)
        self._streaming = False
        obs = self._obs
        if obs is not None:
            obs.counter_add("engine.events_processed", self._events_processed)
            obs.counter_add("engine.heap.pushes", self._queue._seq)
        return self._finish()

    def fold(self) -> int:
        """Drop the completed rows of an idle stream; returns how many.

        Idle means nothing pending or running.  Then every row is done
        or admitted but not yet arrived, and every later start comes at
        or after ``now``, past every done row's end.  When the done rows
        are a prefix (a stream fed in arrival order) that prefix is
        dropped; otherwise nothing is.  See ``Simulator.fold``.
        """
        if (
            self._pending
            or self._running
            or not self._foldable
            or not self._streaming
        ):
            return 0
        # Idle, a row with a start has completed and a row without one
        # has not arrived yet.
        table = self._table
        n = table.n
        start_l = table.start_list
        k = n
        while k and start_l[k - 1] is None:
            k -= 1
        if k == 0 or None in start_l[:k]:
            return 0  # nothing done, or done rows behind an unarrived one
        past = self._past
        if past is None:
            past = self._past = _FoldedPast()
        # What _finish reads off every row: the covered lengths (the
        # dropped rows end before every kept row starts), the count and
        # the job-length histogram, observed in admission order.
        past.covered.frombytes(
            covered_lengths(table.start[:k], table.plen[:k]).tobytes()
        )
        past.jobs += k
        obs = self._obs
        if obs is not None:
            for length in table.plen_list[:k]:
                assert length is not None
                obs.histogram_observe("engine.job_length", length)
        # Renumber every held row index: idx_of, views, queued events.
        ids = table.ids_list
        idx_of = table.idx_of
        dropped = ids[:k]
        for jid in dropped:
            del idx_of[jid]
        for row in range(k, n):
            idx_of[ids[row]] = row - k
        past.add_ids(dropped)
        views = self._views
        for view in views[:k]:
            if view is not None:
                view._detach()
        for view in views[k:]:
            if view is not None:
                view._idx -= k
        del views[:k]
        table.drop_prefix(k)
        # Row-carrying kinds are COMPLETION..DEADLINE; at an idle instant
        # only ARRIVALs of kept rows and DEADLINEs of started jobs
        # remain.  Keys are unchanged, so the heap stays a heap.
        heap = self._queue._heap
        for pos, (time, kind, seq, payload) in enumerate(heap):
            if kind <= _DEADLINE and payload != _FOLDED:
                heap[pos] = (
                    time, kind, seq, payload - k if payload >= k else _FOLDED
                )
        fold_scheduler = getattr(self._scheduler, "fold", None)
        if callable(fold_scheduler):
            fold_scheduler()
        return k

    # ----------------------------------------------------------- event loop
    def _budget_error(self) -> SimulationError:
        return SimulationError(
            f"event budget exceeded ({self._max_events}); "
            "likely a scheduler/adversary live-lock"
        )

    def _dispatch(self, until: float | None, inclusive: bool) -> int:
        """Dispatch queued events up to a horizon; returns the count.

        ``until=None`` drains the queue.  Otherwise events at times
        ``<= until`` (``< until`` when not ``inclusive``) dispatch.
        Locals are hoisted and events popped as raw tuples: at >10^5
        events per adversarial run, attribute lookups dominate otherwise.
        Disarmed, the loop gathers cohorts; armed, it dispatches every
        event singly and keeps per-kind counters (plus, in a batch run,
        the heap high-water mark; ``python -m repro obs overhead``
        ratchets the cost of the ``obs`` tests).
        """
        heap = self._queue._heap
        obs = self._obs
        handlers = self._handlers
        gatherable = self._gatherable if obs is None else _NO_COHORTS
        max_events = self._max_events
        if until is None:
            horizon = math.inf
        elif inclusive:
            horizon = until
        else:
            # t < until  <=>  t <= the float just below until.
            horizon = math.nextafter(until, -math.inf)
        processed = first = self._events_processed
        # Only a batch run reports the heap high-water mark.
        track_peak = obs is not None and not self._streaming
        heap_peak = self._heap_peak
        try:
            while heap:
                if heap[0][0] > horizon:
                    break
                if track_peak and len(heap) > heap_peak:
                    heap_peak = len(heap)
                time, kind, _seq, payload = heappop(heap)
                processed += 1
                if processed > max_events:
                    raise self._budget_error()
                if time < self._now:
                    raise SimulationError(
                        f"time went backwards: {time} < {self._now}"
                    )
                self._now = time
                if (
                    gatherable[kind]
                    and heap
                    and heap[0][0] == time
                    and heap[0][1] == kind
                ):
                    cohort = [payload]
                    append = cohort.append
                    while heap and heap[0][0] == time and heap[0][1] == kind:
                        append(heappop(heap)[3])
                        if len(cohort) == _SCAN_MIN and heap:
                            head = heap[0]
                            if head[0] == time and head[1] == kind:
                                self._gather_scan(time, kind, cohort)
                            break
                    processed += len(cohort) - 1
                    if processed > max_events:
                        raise self._budget_error()
                    if kind == _ARRIVAL:
                        self._cohort_arrival(cohort)
                    elif kind == _COMPLETION:
                        self._cohort_completion(cohort)
                    else:  # _ASSIGN
                        # Inline same-time completions count as events.
                        processed += self._cohort_assign(cohort)
                        if processed > max_events:
                            raise self._budget_error()
                    continue
                if obs is not None:
                    obs.counter_add(_OBS_EVENT_COUNTERS[kind])
                handlers[kind](payload)
        finally:
            self._events_processed = processed
            self._heap_peak = heap_peak
        return processed - first

    # ------------------------------------------------------- event helpers
    def _gather_scan(
        self, time: float, kind: int, cohort: list[Any]
    ) -> None:
        """Drain every remaining ``(time, kind)`` event in one heap scan.

        Partition the backing list, sort the matches (their full tuples —
        i.e. by ``seq``, reproducing exact pop order) and re-heapify the
        rest.  Sound for the same reason ``_push_raw``'s heapify is: the
        heap's internal layout is unobservable under a strict total order.
        """
        heap = self._queue._heap
        keep: list[tuple[float, int, int, Any]] = []
        grab: list[tuple[float, int, int, Any]] = []
        keep_append = keep.append
        grab_append = grab.append
        for item in heap:
            if item[0] == time and item[1] == kind:
                grab_append(item)
            else:
                keep_append(item)
        grab.sort()
        heap[:] = keep
        heapify(heap)
        cohort.extend(item[3] for item in grab)

    def _push_raw(self, items: list[tuple[float, int, int, Any]]) -> None:
        """Bulk-push pre-sequenced raw events.

        For small cohorts onto a large heap, repeated ``heappush`` is
        cheaper; past ``_HEAPIFY_MIN`` a single O(heap + cohort)
        ``heapify`` wins.  Either way the pop order is unchanged —
        ``(time, kind, seq)`` is a strict total order, so heap-internal
        layout never shows.
        """
        heap = self._queue._heap
        if len(items) < _HEAPIFY_MIN and heap:
            for item in items:
                heappush(heap, item)
        else:
            heap.extend(items)
            heapify(heap)

    # ---------------------------------------------------------- admission
    def _admit_jobs(self, jobs: Sequence[Job]) -> None:
        """Admit validated ``Job`` objects in bulk."""
        obs = self._obs
        if obs is not None:
            with obs.span("engine.admit_batch", n=len(jobs)):
                self._admit_jobs_inner(jobs)
            obs.counter_add("engine.jobs_admitted", float(len(jobs)))
            return
        self._admit_jobs_inner(jobs)

    def _admit_jobs_inner(self, jobs: Sequence[Job]) -> None:
        table = self._table
        base = table.n
        # Each job registers before the next is checked (intra-batch
        # duplicates raise on the second copy).
        for off, job in enumerate(jobs):
            self._check_admission(job)
            self._record_release(job, base + off)
        table.append_jobs(jobs, self._clairvoyant)
        self._views.extend([None] * len(jobs))
        self._push_arrivals(base, len(jobs))

    def _admit_job(self, job: Job) -> None:
        """Admit one job: a scalar row append plus one heap push.

        The streaming path (one job per ``feed``) and single adversary
        releases come here; same checks, records and event order as a
        one-job :meth:`_admit_jobs`, without its slice assignments.
        """
        self._check_admission(job)
        idx = self._table.append_job(job, self._clairvoyant)
        self._record_release(job, idx)
        self._views.append(None)
        self._queue.push(job.arrival, _ARRIVAL, idx)
        if self._obs is not None:
            self._obs.counter_add("engine.jobs_admitted")

    def _check_admission(self, job: Job) -> None:
        """Admission checks in order: duplicate id (folded ones too),
        past arrival, length, then an id the int64 ``ids`` column can
        hold."""
        jid = job.id
        past = self._past
        if jid in self._table.idx_of or (past is not None and jid in past.ids):
            raise SimulationError(f"duplicate job id {jid} admitted")
        if job.arrival < self._now:
            raise SimulationError(
                f"job {jid} released with arrival {job.arrival} in the "
                f"past (now={self._now})"
            )
        if job.length is None:
            if self._adversary is None:
                raise SimulationError(
                    f"job {jid} has no length and no adversary to assign one"
                )
            if self._clairvoyant:
                raise SimulationError(
                    "adversary-controlled lengths are incompatible with "
                    "the clairvoyant information model"
                )
        if jid > _MAX_ID:
            raise SimulationError(
                f"job id {jid} does not fit the engine's int64 id column"
            )

    def _record_release(self, job: Job, idx: int) -> None:
        """Map the job's id to its row; emit its RELEASE trace and obs record."""
        jid = job.id
        self._table.idx_of[jid] = idx
        now = self._now
        if self._trace is not None:
            self._trace.append(
                now, TraceKind.RELEASE, jid, f"arrival={job.arrival:g}"
            )
        obs = self._obs
        if obs is not None:
            if job.length is not None:
                obs.instant(
                    "engine.release",
                    t=now,
                    job=jid,
                    arrival=job.arrival,
                    deadline=job.deadline,
                    length=job.length,
                )
            else:
                obs.instant(
                    "engine.release",
                    t=now,
                    job=jid,
                    arrival=job.arrival,
                    deadline=job.deadline,
                )

    def _admit_batch_cols(self, batch: JobBatch) -> None:
        """Admit a columnar :class:`JobBatch` (vectorised checks)."""
        obs = self._obs
        if obs is not None:
            with obs.span("engine.admit_batch", n=len(batch)):
                self._admit_batch_cols_inner(batch)
            obs.counter_add("engine.jobs_admitted", float(len(batch)))
            return
        self._admit_batch_cols_inner(batch)

    def _admit_batch_cols_inner(self, batch: JobBatch) -> None:
        k = len(batch)
        if k == 0:
            return
        table = self._table
        now = self._now
        ids = batch.ids
        arrival = batch.arrival
        deadline = batch.deadline
        length = batch.length
        size = batch.size
        unknown = np.isnan(length)
        # Job-validity checks — the vector mirror of Job.__post_init__.
        # On failure, constructing the first offending Job raises the
        # exact error a hand-built release would.
        invalid = (
            (ids < 0)
            | ~np.isfinite(arrival)
            | ~np.isfinite(deadline)
            | (arrival < 0)
            | (deadline < arrival)
            | (~unknown & (~np.isfinite(length) | (length <= 0)))
            | ~np.isfinite(size)
            | (size <= 0)
        )
        if bool(invalid.any()):
            bad = int(np.argmax(invalid))
            bad_len = float(length[bad])
            Job(
                id=int(ids[bad]),
                arrival=float(arrival[bad]),
                deadline=float(deadline[bad]),
                length=None if math.isnan(bad_len) else bad_len,
                size=float(size[bad]),
            )
            raise SimulationError(  # pragma: no cover - Job() raised above
                "JobBatch validation failed"
            )
        # Admission checks in _check_admission's per-job order: duplicate
        # id, then past arrival, then unknown-length rules — the raise
        # must name the *first* job that fails *any* check.
        early = arrival < now
        if self._adversary is None or self._clairvoyant:
            length_bad = unknown
        else:
            length_bad = np.zeros(k, dtype=np.bool_)
        first_bad = -1
        if bool(early.any()) or bool(length_bad.any()):
            first_bad = int(np.argmax(early | length_bad))
        idx_of = table.idx_of
        past = self._past
        base = table.n
        ids_l = ids.tolist()
        for pos, jid in enumerate(ids_l):
            if jid in idx_of or (past is not None and jid in past.ids):
                raise SimulationError(f"duplicate job id {jid} admitted")
            if pos == first_bad:
                if early[pos]:
                    raise SimulationError(
                        f"job {jid} released with arrival "
                        f"{float(arrival[pos])} in the past (now={now})"
                    )
                if self._adversary is None:
                    raise SimulationError(
                        f"job {jid} has no length and no adversary to "
                        "assign one"
                    )
                raise SimulationError(
                    "adversary-controlled lengths are incompatible with "
                    "the clairvoyant information model"
                )
            idx_of[jid] = base + pos
        table.append_columns(batch, self._clairvoyant)
        self._views.extend([None] * k)
        trace = self._trace
        obs = self._obs
        if trace is not None or obs is not None:
            arrival_l = table.arrival_list
            deadline_l = table.deadline_list
            plen_l = table.plen_list
            for pos, jid in enumerate(ids_l):
                row = base + pos
                if trace is not None:
                    trace.append(
                        now,
                        TraceKind.RELEASE,
                        jid,
                        f"arrival={arrival_l[row]:g}",
                    )
                if obs is not None:
                    known = plen_l[row]
                    if known is not None:
                        obs.instant(
                            "engine.release",
                            t=now,
                            job=jid,
                            arrival=arrival_l[row],
                            deadline=deadline_l[row],
                            length=known,
                        )
                    else:
                        obs.instant(
                            "engine.release",
                            t=now,
                            job=jid,
                            arrival=arrival_l[row],
                            deadline=deadline_l[row],
                        )
        self._push_arrivals(base, k)

    def _push_arrivals(self, base: int, k: int) -> None:
        if k == 0:
            return
        queue = self._queue
        seq = queue._seq
        arrival_l = self._table.arrival_list
        items: list[tuple[float, int, int, Any]] = [
            (arrival_l[base + off], _ARRIVAL, seq + off, base + off)
            for off in range(k)
        ]
        queue._seq = seq + k
        self._push_raw(items)

    # ------------------------------------------------------ scalar handlers
    # One event each, over table rows; the cohort handlers below must
    # match their effect on every row of a cohort.
    def _handle_arrival(self, idx: int) -> None:
        table = self._table
        table.state[idx] = _PENDING
        self._pending[idx] = None
        if self._trace is not None:
            self._trace.append(
                self._now, TraceKind.ARRIVAL, table.ids_list[idx], ""
            )
        self._queue.push(table.deadline_list[idx], _DEADLINE, idx)
        if self._hook_arrival is not None:
            self._hook_arrival(self._ctx, self._view(idx))

    def _handle_deadline(self, idx: int) -> None:
        table = self._table
        if idx == _FOLDED or table.start_list[idx] is not None:
            return  # job already started; the deadline event is moot
        if self._trace is not None:
            self._trace.append(
                self._now, TraceKind.DEADLINE, table.ids_list[idx], ""
            )
        if self._hook_deadline is not None:
            self._hook_deadline(self._ctx, self._view(idx))
        if table.start_list[idx] is None:
            raise DeadlineMissedError(
                f"scheduler {self._scheduler_name} failed to start "
                f"job {table.ids_list[idx]} by its starting deadline "
                f"{table.deadline_list[idx]}"
            )

    def _handle_completion(self, idx: int) -> None:
        table = self._table
        jid = table.ids_list[idx]
        if self._running.pop(idx, _MISSING) is _MISSING:  # pragma: no cover
            raise SimulationError(f"job {jid} completed twice")
        table.state[idx] = _DONE
        table.visible[idx] = True  # completion reveals the length
        if self._trace is not None:
            self._trace.append(self._now, TraceKind.COMPLETION, jid, "")
        if self._obs is not None:
            self._obs.instant(
                "engine.completion",
                t=self._now,
                job=jid,
                length=table.plen_list[idx],
            )
        if self._hook_completion is not None:
            self._hook_completion(self._ctx, self._view(idx))
        if self._adversary is not None:
            self._apply_adversary_response(
                self._adversary.on_completion(table.job(idx), self._now)
            )

    def _handle_assign(self, idx: int) -> None:
        adversary = self._adversary
        assert adversary is not None
        table = self._table
        jid = table.ids_list[idx]
        if table.plen_list[idx] is not None:  # pragma: no cover - defensive
            raise SimulationError(f"job {jid} length assigned twice")
        length = adversary.assign_length(table.job(idx), self._now)
        completion = self._commit_length(idx, jid, length)
        self._queue.push(completion, _COMPLETION, idx)

    def _commit_length(self, idx: int, jid: int, length: float) -> float:
        """Validate + record an assigned length; returns the completion time."""
        if length <= 0:
            raise SimulationError(
                f"adversary assigned non-positive length {length} to job {jid}"
            )
        table = self._table
        start = table.start_list[idx]
        assert start is not None
        completion = start + length
        if completion < self._now:
            raise SimulationError(
                f"adversary assigned length {length} to job {jid} putting "
                f"its completion {completion} in the past (now={self._now})"
            )
        table.plen[idx] = length
        table.plen_list[idx] = length
        if self._trace is not None:
            self._trace.append(
                self._now, TraceKind.ASSIGN, jid, f"length={length:g}"
            )
        return completion

    def _handle_timer(self, tag: Any) -> None:
        if self._trace is not None:
            self._trace.append(self._now, TraceKind.TIMER, None, repr(tag))
        if self._hook_timer is not None:
            self._hook_timer(self._ctx, tag)

    def _handle_adversary(self, _payload: Any) -> None:
        adversary = self._adversary
        assert adversary is not None
        if self._trace is not None:
            self._trace.append(self._now, TraceKind.ADVERSARY_WAKEUP, None, "")
        self._apply_adversary_response(adversary.on_wakeup(self._now))

    # ------------------------------------------------------ cohort handlers
    def _cohort_arrival(self, cohort: list[int]) -> None:
        """Vectorised same-time arrivals (only when on_arrival is a no-op)."""
        table = self._table
        rows = np.fromiter(cohort, np.int64, len(cohort))
        table.state[rows] = _PENDING
        self._pending.update(dict.fromkeys(cohort))
        if self._trace is not None:
            append = self._trace.append
            now = self._now
            ids_l = table.ids_list
            for idx in cohort:
                append(now, TraceKind.ARRIVAL, ids_l[idx], "")
        queue = self._queue
        seq = queue._seq
        deadline_l = table.deadline_list
        items: list[tuple[float, int, int, Any]] = [
            (deadline_l[idx], _DEADLINE, seq + off, idx)
            for off, idx in enumerate(cohort)
        ]
        queue._seq = seq + len(cohort)
        self._push_raw(items)

    def _cohort_completion(self, cohort: list[int]) -> None:
        """Vectorised same-time completions.

        Falls back to the scalar handler per row when a completion hook
        is live, the adversary lacks the batch hook, or the adversary
        declines this specific cohort (returns ``NotImplemented``).
        """
        adversary = self._adversary
        if self._hook_completion is None and (
            adversary is None or self._adv_completion_batch
        ):
            resp: Any = None
            if adversary is not None:
                ids_l = self._table.ids_list
                resp = adversary.on_completion_batch(
                    [ids_l[idx] for idx in cohort], self._now
                )
                if resp is NotImplemented:
                    for idx in cohort:
                        self._handle_completion(idx)
                    return
            self._complete_rows(cohort)
            if resp is not None:
                self._apply_adversary_response(resp)
            return
        for idx in cohort:
            self._handle_completion(idx)

    def _complete_rows(self, cohort: list[int]) -> None:
        """State flips + trace for a completion cohort (no hooks due)."""
        table = self._table
        rows = np.fromiter(cohort, np.int64, len(cohort))
        table.state[rows] = _DONE
        visible = table.visible
        running = self._running
        for idx in cohort:
            visible[idx] = True
            running.pop(idx, None)
        if self._trace is not None:
            append = self._trace.append
            now = self._now
            ids_l = table.ids_list
            for idx in cohort:
                append(now, TraceKind.COMPLETION, ids_l[idx], "")

    def _cohort_assign(self, cohort: list[int]) -> int:
        """Vectorised same-time length assignment.

        Returns the number of *same-time completions consumed inline*
        (``completion == now``; the §3.1 shape).  Those never touch the
        heap but count as processed events — the caller adds the return
        value to its counter, so ``events_processed`` matches single
        dispatch, which pops each of them individually.
        """
        adversary = self._adversary
        assert adversary is not None
        table = self._table
        n = len(cohort)
        ids_l = table.ids_list
        ids = [ids_l[idx] for idx in cohort]
        now = self._now
        lengths_any = adversary.assign_lengths_batch(ids, now)
        if lengths_any is NotImplemented:
            return self._assign_scalar_cohort(cohort)
        lengths = np.ascontiguousarray(lengths_any, dtype=np.float64)
        if lengths.shape != (n,):
            raise SimulationError(
                f"assign_lengths_batch returned shape {lengths.shape} "
                f"for a cohort of {n} jobs"
            )
        nonpositive = lengths <= 0
        if bool(nonpositive.any()):
            bad = int(np.argmax(nonpositive))
            raise SimulationError(
                f"adversary assigned non-positive length "
                f"{float(lengths[bad])} to job {ids[bad]}"
            )
        rows = np.fromiter(cohort, np.int64, n)
        completions = table.start[rows] + lengths
        past = completions < now
        if bool(past.any()):
            bad = int(np.argmax(past))
            raise SimulationError(
                f"adversary assigned length {float(lengths[bad])} to job "
                f"{ids[bad]} putting its completion "
                f"{float(completions[bad])} in the past (now={now})"
            )
        table.plen[rows] = lengths
        lengths_l = lengths.tolist()
        plen_l = table.plen_list
        for off, idx in enumerate(cohort):
            plen_l[idx] = lengths_l[off]
        completions_l = completions.tolist()
        same_time = completions == now
        trace = self._trace
        if not bool(same_time.any()):
            queue = self._queue
            seq = queue._seq
            items: list[tuple[float, int, int, Any]] = [
                (completions_l[off], _COMPLETION, seq + off, cohort[off])
                for off in range(n)
            ]
            queue._seq = seq + n
            self._push_raw(items)
            if trace is not None:
                append = trace.append
                for off in range(n):
                    append(
                        now,
                        TraceKind.ASSIGN,
                        ids[off],
                        f"length={lengths_l[off]:g}",
                    )
            return 0
        same_l = same_time.tolist()
        if (
            trace is None
            and self._hook_completion is None
            and self._adv_completion_batch
        ):
            # Fused path: the whole same-time completion wave handled as
            # one batch, the (rare) future completions pushed normally.
            same_rows = [cohort[off] for off in range(n) if same_l[off]]
            resp = adversary.on_completion_batch(
                [ids[off] for off in range(n) if same_l[off]], now
            )
            if resp is not NotImplemented:
                self._complete_rows(same_rows)
                queue = self._queue
                seq = queue._seq
                items = []
                for off in range(n):
                    if not same_l[off]:
                        items.append(
                            (completions_l[off], _COMPLETION, seq, cohort[off])
                        )
                        seq += 1
                queue._seq = seq
                if items:
                    self._push_raw(items)
                if resp is not None:
                    self._apply_adversary_response(resp)
                return len(same_rows)
        # Interleaved fallback — the single-dispatch order: each assign is
        # followed immediately by its same-time completion (a pushed
        # (t, COMPLETION) pops before the next (t, ASSIGN) would have).
        consumed = 0
        queue = self._queue
        for off, idx in enumerate(cohort):
            if trace is not None:
                trace.append(
                    now, TraceKind.ASSIGN, ids[off], f"length={lengths_l[off]:g}"
                )
            if same_l[off]:
                consumed += 1
                self._handle_completion(idx)
            else:
                queue.push(completions_l[off], _COMPLETION, idx)
        return consumed

    def _assign_scalar_cohort(self, cohort: list[int]) -> int:
        """Scalar fallback for a gathered assign cohort.

        Matches single dispatch exactly: assign job i, then (if its
        completion lands *now*) process that completion before the next
        assign — because in the heap a ``(t, COMPLETION)`` push outranks
        the remaining ``(t, ASSIGN)`` entries.
        """
        adversary = self._adversary
        assert adversary is not None
        table = self._table
        now = self._now
        consumed = 0
        for idx in cohort:
            jid = table.ids_list[idx]
            if table.plen_list[idx] is not None:  # pragma: no cover
                raise SimulationError(f"job {jid} length assigned twice")
            length = adversary.assign_length(table.job(idx), now)
            completion = self._commit_length(idx, jid, length)
            if completion == now:
                consumed += 1
                self._handle_completion(idx)
            else:
                self._queue.push(completion, _COMPLETION, idx)
        return consumed

    # ------------------------------------------------------ starts
    def _start_job(self, job_id: int) -> None:
        table = self._table
        idx = table.idx_of.get(job_id)
        if idx is None:
            raise self._no_row_error(job_id)
        pending = self._pending
        if idx not in pending:  # admitted (not yet arrived) or started
            if table.start_list[idx] is None:
                raise SchedulingViolationError(
                    f"job {job_id} has not arrived yet (now={self._now})"
                )
            raise SchedulingViolationError(
                f"job {job_id} was already started"
            )
        deadline = table.deadline_list[idx]
        now = self._now
        if now > deadline:
            raise SchedulingViolationError(
                f"job {job_id} started at {now}, after its starting "
                f"deadline {deadline}"
            )
        table.state[idx] = _RUNNING
        table.start[idx] = now
        table.start_list[idx] = now
        del pending[idx]
        self._running[idx] = None
        if self._trace is not None:
            self._trace.append(now, TraceKind.START, job_id, "")
        if self._obs is not None:
            self._obs.instant("engine.start", t=now, job=job_id)
        adversary = self._adversary
        length = table.plen_list[idx]
        if length is not None:
            self._queue.push(now + length, _COMPLETION, idx)
        else:
            assert adversary is not None
            when = adversary.length_decision_time(table.job(idx), now)
            if when < now:
                raise SimulationError(
                    f"length decision time {when} precedes start {now}"
                )
            self._queue.push(when, _ASSIGN, idx)
        if adversary is not None:
            self._apply_adversary_response(
                adversary.on_start(table.job(idx), now)
            )

    def _start_batch(self, job_ids: Sequence[int]) -> None:
        n = len(job_ids)
        if n == 0:
            return
        adversary = self._adversary
        table = self._table
        if (
            n == 1
            or table.n == 0
            or self._obs is not None
            or (adversary is not None and not self._adv_start_batch)
        ):
            # Scalar route: per-start obs instants, or an adversary whose
            # on_start must observe each start (and answer) in turn.
            for job_id in job_ids:
                self._start_job(job_id)
            return
        now = self._now
        contiguous = table.ids_contiguous
        if contiguous:
            # id == row for every admitted job: skip the dict lookups.
            rows_l = list(job_ids)
            try:
                rows = np.fromiter(rows_l, np.int64, n)
            except (OverflowError, ValueError):
                contiguous = False  # an id outside int64: take the dict route
        if contiguous:
            missing = (rows < 0) | (rows >= table.n)
        else:
            idx_of = table.idx_of
            rows_l = [idx_of.get(jid, -1) for jid in job_ids]
            rows = np.fromiter(rows_l, np.int64, n)
            missing = rows < 0
        safe = np.where(missing, 0, rows)
        bad = missing | (table.state[safe] != _PENDING) | (
            table.deadline[safe] < now
        )
        if bool(bad.any()):
            # Re-run _start_job's checks on the first offender so the
            # exception (type and message) is identical.
            pos = int(np.argmax(bad))
            jid = job_ids[pos]
            idx = rows_l[pos]
            if idx < 0 or idx >= table.n:
                raise self._no_row_error(jid)
            if table.state[idx] == _ADMITTED:
                raise SchedulingViolationError(
                    f"job {jid} has not arrived yet (now={now})"
                )
            if table.start_list[idx] is not None:
                raise SchedulingViolationError(
                    f"job {jid} was already started"
                )
            raise SchedulingViolationError(
                f"job {jid} started at {now}, after its starting "
                f"deadline {table.deadline_list[idx]}"
            )
        pending = self._pending
        for pos, idx in enumerate(rows_l):
            if pending.pop(idx, _MISSING) is _MISSING:
                # Only reachable via an intra-batch duplicate: the state
                # snapshot above saw it pending, someone earlier in this
                # very cohort started it.
                raise SchedulingViolationError(
                    f"job {job_ids[pos]} was already started"
                )
        table.state[rows] = _RUNNING
        table.start[rows] = now
        start_l = table.start_list
        running = self._running
        for idx in rows_l:
            start_l[idx] = now
            running[idx] = None
        if self._trace is not None:
            append = self._trace.append
            for jid in job_ids:
                append(now, TraceKind.START, jid, "")
        # Completion events for known lengths, ASSIGN events otherwise —
        # pushed in job order, exactly _start_job's seq order.
        plens = table.plen[rows]
        known = ~np.isnan(plens)
        queue = self._queue
        seq = queue._seq
        items: list[tuple[float, int, int, Any]]
        if bool(known.all()):
            completions = (now + plens).tolist()
            items = [
                (completions[off], _COMPLETION, seq + off, rows_l[off])
                for off in range(n)
            ]
            queue._seq = seq + n
        else:
            assert adversary is not None
            whens = self._decision_times(job_ids, rows_l, known, now)
            known_l = known.tolist()
            plens_l = plens.tolist()
            items = []
            for off in range(n):
                if known_l[off]:
                    items.append(
                        (now + plens_l[off], _COMPLETION, seq + off, rows_l[off])
                    )
                else:
                    items.append((whens[off], _ASSIGN, seq + off, rows_l[off]))
            queue._seq = seq + n
        self._push_raw(items)
        if adversary is not None:
            resp = adversary.on_start_batch(list(job_ids), now)
            if resp is NotImplemented:
                # Post-mutation scalar compensation: every started job is
                # announced in order.  (on_start observes adversary state
                # and the job, both identical to the interleaved order.)
                for idx in rows_l:
                    self._apply_adversary_response(
                        adversary.on_start(table.job(idx), now)
                    )
            elif resp is not None:
                self._apply_adversary_response(resp)

    def _no_row_error(self, job_id: int) -> SchedulingViolationError:
        """The error for starting an id with no row: a folded job was
        started long ago, any other id is unknown."""
        if self._past is not None and job_id in self._past.ids:
            return SchedulingViolationError(f"job {job_id} was already started")
        return SchedulingViolationError(f"unknown job id {job_id}")

    def _decision_times(
        self,
        job_ids: Sequence[int],
        rows_l: list[int],
        known: NDArray[np.bool_],
        now: float,
    ) -> list[float]:
        """Length-commit times for the unknown entries of a start cohort.

        Returns a dense list aligned with ``job_ids`` (entries at known
        positions are garbage ``now`` placeholders, never read).
        """
        adversary = self._adversary
        assert adversary is not None
        table = self._table
        if bool(known.any()):
            # Mixed cohort — rare; per-job scalar calls keep it simple.
            whens = [now] * len(rows_l)
            known_l = known.tolist()
            for off, idx in enumerate(rows_l):
                if known_l[off]:
                    continue
                when = adversary.length_decision_time(table.job(idx), now)
                if when < now:
                    raise SimulationError(
                        f"length decision time {when} precedes start {now}"
                    )
                whens[off] = when
            return whens
        batch_hook = getattr(adversary, "length_decision_times_batch", None)
        result: Any = NotImplemented
        if callable(batch_hook):
            result = batch_hook(list(job_ids), now)
        if result is NotImplemented:
            whens = []
            for idx in rows_l:
                when = adversary.length_decision_time(table.job(idx), now)
                if when < now:
                    raise SimulationError(
                        f"length decision time {when} precedes start {now}"
                    )
                whens.append(when)
            return whens
        whens = np.ascontiguousarray(result, dtype=np.float64).tolist()
        if len(whens) != len(rows_l):
            raise SimulationError(
                "length_decision_times_batch returned "
                f"{len(whens)} times for a cohort of {len(rows_l)} jobs"
            )
        for when in whens:
            if when < now:
                raise SimulationError(
                    f"length decision time {when} precedes start {now}"
                )
        return whens

    # ------------------------------------------------------ adversary I/O
    def _apply_adversary_response(self, resp: AdversaryResponse | None) -> None:
        if resp is None:
            return
        release = resp.release
        if len(release) > 1:
            self._admit_jobs(list(release))
        else:
            for job in release:
                self._admit_job(job)
        if resp.release_batch is not None:
            self._admit_batch_cols(resp.release_batch)
        if resp.wakeup is not None:
            if resp.wakeup < self._now:
                raise SimulationError(
                    f"adversary wakeup {resp.wakeup} is in the past "
                    f"(now={self._now})"
                )
            self._queue.push(resp.wakeup, _ADVERSARY, None)

    # ------------------------------------------------------ context backend
    def _view(self, idx: int) -> JobView:
        views = self._views
        view = views[idx]
        if view is None:
            view = JobView(self, idx)
            views[idx] = view
        return view

    def _pending_views(self) -> list[JobView]:
        views: list[JobView] = [self._view(idx) for idx in self._pending]
        views.sort(key=lambda v: (v.deadline, v.arrival, v.id))
        return views

    def _running_views(self) -> list[JobView]:
        views: list[JobView] = [self._view(idx) for idx in self._running]
        views.sort(key=lambda v: (v.start_time, v.id))
        return views

    def _pending_ids(self) -> list[int]:
        pending = self._pending
        m = len(pending)
        if m == 0:
            return []
        table = self._table
        rows = np.fromiter(pending.keys(), np.int64, m)
        ids = table.ids[rows]
        order = np.lexsort((ids, table.arrival[rows], table.deadline[rows]))
        out: list[int] = ids[order].tolist()
        return out

    def _is_started(self, job_id: int) -> bool:
        table = self._table
        idx = table.idx_of.get(job_id)
        if idx is None:
            return self._past is not None and job_id in self._past.ids
        return table.start_list[idx] is not None

    def _is_completed(self, job_id: int) -> bool:
        table = self._table
        idx = table.idx_of.get(job_id)
        if idx is None:
            return self._past is not None and job_id in self._past.ids
        return table.done(idx)

    # ------------------------------------------------------------ finish
    def _finish(self) -> SimulationResult:
        table = self._table
        n = table.n
        if n and not bool((table.state[:n] == _DONE).all()):
            for idx in range(n):  # pragma: no cover - deadline enforcement
                if table.start_list[idx] is None:
                    raise SimulationError(
                        f"job {table.ids_list[idx]} never started"
                    )
                if table.state[idx] != _DONE:
                    raise SimulationError(
                        f"job {table.ids_list[idx]} never completed"
                    )
        name = (
            self._instance.name
            if self._instance is not None
            else f"adversarial/{type(self._adversary).__name__}"
        )
        past = self._past
        jobs = n
        if past is None:
            # Span straight off the columns — same function, same
            # admission order as Schedule.span, hence bit-identical — so
            # result.span never forces materialisation.
            span = union_measure(table.start[:n], table.plen[:n])
        else:
            # The folded rows' covered lengths, then the rest's: the
            # array union_measure would have summed over every row.
            parts = [np.frombuffer(past.covered, dtype=np.float64)]
            if n:
                parts.append(covered_lengths(table.start[:n], table.plen[:n]))
            span = float(np.concatenate(parts).sum())
            jobs += past.jobs

        def materialize() -> tuple[Schedule, Instance]:
            if past is not None:
                raise SimulationError(
                    f"the stream folded {past.jobs} completed job(s) at "
                    "idle instants: its result keeps the span and the "
                    "event count, not the schedule or the instance"
                )
            jobs: list[Job] = []
            starts: dict[int, float] = {}
            plen_l = table.plen_list
            start_l = table.start_list
            for idx in range(n):
                job = table.job(idx)
                if job.length is None:
                    committed = plen_l[idx]
                    assert committed is not None
                    job = job.with_length(committed)
                jobs.append(job)
                started_at = start_l[idx]
                assert started_at is not None
                starts[job.id] = started_at
            resolved = Instance(jobs, name=name)
            return Schedule(resolved, starts), resolved

        obs = self._obs
        if obs is not None:
            # Off the columns too: plen_list holds each job's committed
            # length in admission order, the materialised Instance's order.
            # A fold observed its rows' lengths as it dropped them.
            obs.gauge_set("engine.span", span)
            obs.counter_add("engine.jobs", float(jobs))
            for length in table.plen_list[:n]:
                assert length is not None
                obs.histogram_observe("engine.job_length", length)
            obs.instant(
                "engine.run_end",
                t=self._now,
                span=span,
                jobs=jobs,
                events=self._events_processed,
            )
        return SimulationResult(
            events_processed=self._events_processed,
            scheduler=self._scheduler,
            trace=self._trace,
            recorder=obs,
            materialize=materialize,
            span=span,
        )
