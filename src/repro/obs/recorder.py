"""The recorder protocol: zero overhead when disabled, structured when on.

A recorder is the engine's one event channel: one method per engine
event kind, called once per same-time cohort with the cohort's job ids
in dispatch order, plus instants, decisions, spans and metrics.  The
base class maps releases, starts and completions onto the
``engine.release`` / ``engine.start`` / ``engine.completion`` instants;
a recorder built around an ``inner`` one passes every call on to it
(:class:`repro.core.trace.Trace` and the serve session's sink do).

Two concrete recorders:

* :class:`NullRecorder` — the default.  Every method is a no-op and
  ``enabled`` is ``False``.  Instrumentation sites are written as

  .. code-block:: python

      obs = self._obs          # None when disarmed
      if obs is not None:
          obs.started(now, (job_id,))

  so a disabled recorder costs exactly one ``is not None`` test on the
  hot path — the engine maps any disabled recorder (including an
  explicit ``NullRecorder``) to ``None`` before the event loop starts,
  and never consults it (``tests/test_obs_recorder.py`` runs the
  paper's paths with a disabled recorder whose every method raises).

* :class:`TraceRecorder` — an in-memory structured recorder: an
  append-only list of :class:`~repro.obs.records.ObsRecord` plus a
  :class:`~repro.obs.metrics.MetricsRegistry`.  Sinks are separate:
  :meth:`TraceRecorder.write_jsonl` and
  :func:`repro.obs.chrome.export_chrome_trace` consume a finished
  recorder.

Arming
------
``REPRO_TRACE=1`` arms tracing process-wide (the ambient recorder in
:mod:`repro.obs.runtime`); ``Simulator(recorder=...)`` arms one run
explicitly.  ``REPRO_TRACE_DIR`` names the directory the CLI writes
JSONL traces into (default: the working directory).
"""

from __future__ import annotations

import os
import time as _time
from typing import Any, Iterator, Sequence

from contextlib import contextmanager

from .metrics import DEFAULT_BUCKETS, MetricsRegistry
from .records import (
    KIND_DECISION,
    KIND_INSTANT,
    KIND_SPAN_BEGIN,
    KIND_SPAN_END,
    ObsRecord,
)

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "TRACE_DIR_ENV",
    "TRACE_ENV",
    "TraceRecorder",
    "trace_dir",
    "trace_enabled",
]

#: Environment variable arming process-wide tracing.
TRACE_ENV = "REPRO_TRACE"
#: Environment variable naming the CLI's trace output directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

_FALSEY = ("", "0", "false", "off")


def trace_enabled() -> bool:
    """Whether ``REPRO_TRACE`` requests structured tracing."""
    return os.environ.get(TRACE_ENV, "").strip().lower() not in _FALSEY


def trace_dir() -> str:
    """The directory CLI trace files go to (``REPRO_TRACE_DIR`` or cwd)."""
    return os.environ.get(TRACE_DIR_ENV, "").strip() or "."


class Recorder:
    """Base recorder: the full protocol.

    Subclasses override what they store.  ``enabled`` is the *contract*
    flag: instrumentation may (and the engine does) skip every call when
    it is ``False``, so a disabled recorder must never rely on being
    invoked.  A recorder with an :attr:`inner` one passes every call on
    to it; a disabled ``inner`` is dropped, so it is never consulted
    either.
    """

    enabled: bool = False
    #: The recorder every call is passed on to (``None``: none).
    inner: "Recorder | None" = None

    def __init__(self, inner: "Recorder | None" = None) -> None:
        if inner is not None and inner.enabled:
            self.inner = inner

    # -- engine events -------------------------------------------------------
    # One call per event kind per same-time cohort: the time, the
    # cohort's job ids in dispatch order, and the values per job.
    def released(
        self,
        t: float,
        jobs: Sequence[int],
        arrivals: Sequence[float],
        deadlines: Sequence[float],
        lengths: Sequence[float | None],
    ) -> None:
        """Jobs released at ``t`` (a ``None`` length is not yet known)."""
        inner = self.inner
        if inner is not None:
            inner.released(t, jobs, arrivals, deadlines, lengths)
            return
        for job, arrival, deadline, length in zip(
            jobs, arrivals, deadlines, lengths
        ):
            attrs = {"t": t, "job": job, "arrival": arrival, "deadline": deadline}
            if length is not None:
                attrs["length"] = length
            self.instant("engine.release", **attrs)

    def arrived(self, t: float, jobs: Sequence[int]) -> None:
        """Jobs that arrived (became startable) at ``t``."""
        if self.inner is not None:
            self.inner.arrived(t, jobs)

    def deadline_reached(self, t: float, jobs: Sequence[int]) -> None:
        """Unstarted jobs whose starting deadline is ``t``."""
        if self.inner is not None:
            self.inner.deadline_reached(t, jobs)

    def started(self, t: float, jobs: Sequence[int]) -> None:
        """Jobs started at ``t`` (final: a start is never revised)."""
        inner = self.inner
        if inner is not None:
            inner.started(t, jobs)
            return
        for job in jobs:
            self.instant("engine.start", t=t, job=job)

    def assigned(
        self, t: float, jobs: Sequence[int], lengths: Sequence[float]
    ) -> None:
        """Lengths an adversary committed at ``t``."""
        if self.inner is not None:
            self.inner.assigned(t, jobs, lengths)

    def completed(
        self, t: float, jobs: Sequence[int], lengths: Sequence[float | None]
    ) -> None:
        """Jobs completed at ``t``, with their lengths."""
        inner = self.inner
        if inner is not None:
            inner.completed(t, jobs, lengths)
            return
        for job, length in zip(jobs, lengths):
            self.instant("engine.completion", t=t, job=job, length=length)

    def timer_fired(self, t: float, tag: Any) -> None:
        """A scheduler timer fired at ``t``."""
        if self.inner is not None:
            self.inner.timer_fired(t, tag)

    def woke(self, t: float) -> None:
        """The adversary woke at ``t``."""
        if self.inner is not None:
            self.inner.woke(t)

    # -- structured records --------------------------------------------------
    def instant(self, name: str, **attrs: Any) -> None:
        """A point-in-time structured event."""
        if self.inner is not None:
            self.inner.instant(name, **attrs)

    def decision(
        self, rule: str, *, job: int, t: float, scheduler: str, **attrs: Any
    ) -> None:
        """A scheduler start-decision with its paper rule (provenance)."""
        if self.inner is not None:
            self.inner.decision(rule, job=job, t=t, scheduler=scheduler, **attrs)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """A wall-clock span (context manager)."""
        if self.inner is None:
            yield
        else:
            with self.inner.span(name, **attrs):
                yield

    # -- metrics -------------------------------------------------------------
    def counter_add(self, name: str, value: float = 1.0) -> None:
        """Increment a monotonic counter."""
        if self.inner is not None:
            self.inner.counter_add(name, value)

    def gauge_set(self, name: str, value: float) -> None:
        """Set a last-value-wins gauge."""
        if self.inner is not None:
            self.inner.gauge_set(name, value)

    def histogram_observe(
        self, name: str, value: float, edges: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        """Observe a value into a fixed-bucket histogram."""
        if self.inner is not None:
            self.inner.histogram_observe(name, value, edges)

    # -- cross-process plumbing ----------------------------------------------
    def metrics_snapshot(self, *, reset: bool = False) -> dict[str, Any] | None:
        """The metrics registry as a dict (``None`` when there is none).

        Worker processes call this (with ``reset=True``) at the end of a
        :func:`repro.perf.parallel._run_chunk` so per-task metrics stream
        back to the parent for merging.
        """
        if self.inner is None:
            return None
        return self.inner.metrics_snapshot(reset=reset)

    def merge_metrics(self, snapshot: "dict[str, Any] | None") -> None:
        """Fold a worker's metrics snapshot into this recorder."""
        if self.inner is not None:
            self.inner.merge_metrics(snapshot)


class NullRecorder(Recorder):
    """The do-nothing recorder (default everywhere).

    Identity guarantee, tested in ``tests/test_obs_recorder.py``: running
    any simulation with a :class:`NullRecorder` produces byte-identical
    results, traces, and schedules to running with no recorder at all —
    the engine treats both as "disarmed".
    """

    enabled = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullRecorder()"


#: Shared singleton — a ``NullRecorder`` is stateless, so one suffices.
NULL_RECORDER = NullRecorder()


class TraceRecorder(Recorder):
    """In-memory structured recorder: records + metrics registry.

    Parameters
    ----------
    max_records:
        Cap on stored records (sweeps route thousands of simulations
        through one ambient recorder; unbounded growth would turn the
        observability layer into the memory bottleneck it is meant to
        find).  Beyond the cap, records are dropped and counted in the
        ``obs.records_dropped`` counter — metrics keep aggregating.
    tag:
        Attributes stamped onto every stored record (the serve layer
        tags each session's records with its tenant, which is what lets
        merged multi-tenant traces summarize per tenant).
    """

    enabled = True

    def __init__(
        self,
        *,
        max_records: int = 1_000_000,
        tag: dict[str, Any] | None = None,
    ) -> None:
        self.records: list[ObsRecord] = []
        self.metrics = MetricsRegistry()
        self.max_records = max_records
        self.tag = dict(tag) if tag else None
        self.epoch = _time.perf_counter()

    # -- internals -----------------------------------------------------------
    def _now(self) -> float:
        return _time.perf_counter() - self.epoch

    def _append(self, kind: str, name: str, attrs: dict[str, Any]) -> None:
        if len(self.records) >= self.max_records:
            self.metrics.counter_add("obs.records_dropped")
            return
        tag = self.tag
        if tag is not None:
            attrs.update(tag)
        self.records.append(ObsRecord(self._now(), kind, name, attrs))

    # -- structured records --------------------------------------------------
    def instant(self, name: str, **attrs: Any) -> None:
        self._append(KIND_INSTANT, name, attrs)

    def decision(
        self, rule: str, *, job: int, t: float, scheduler: str, **attrs: Any
    ) -> None:
        attrs["job"] = job
        attrs["t"] = t
        attrs["scheduler"] = scheduler
        self._append(KIND_DECISION, rule, attrs)
        self.metrics.counter_add(f"decision.{rule}")

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        self._append(KIND_SPAN_BEGIN, name, attrs)
        t0 = _time.perf_counter()
        try:
            yield
        finally:
            wall = _time.perf_counter() - t0
            self._append(KIND_SPAN_END, name, {"wall_s": wall})
            self.metrics.histogram_observe(f"span.{name}.wall_s", wall)

    # -- metrics -------------------------------------------------------------
    def counter_add(self, name: str, value: float = 1.0) -> None:
        self.metrics.counter_add(name, value)

    def gauge_set(self, name: str, value: float) -> None:
        self.metrics.gauge_set(name, value)

    def histogram_observe(
        self, name: str, value: float, edges: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        self.metrics.histogram_observe(name, value, edges)

    # -- cross-process plumbing ----------------------------------------------
    def metrics_snapshot(self, *, reset: bool = False) -> dict[str, Any] | None:
        if not self.metrics:
            return None
        return self.metrics.snapshot(reset=reset)

    def merge_metrics(self, snapshot: "dict[str, Any] | None") -> None:
        if snapshot:
            self.metrics.merge(snapshot)

    # -- sinks ---------------------------------------------------------------
    def write_jsonl(self, path: "str | os.PathLike[str]", **meta: Any) -> str:
        """Write the trace as JSONL (see :mod:`repro.obs.jsonl`)."""
        from .jsonl import write_jsonl

        return write_jsonl(self, path, **meta)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceRecorder({len(self.records)} records)"
