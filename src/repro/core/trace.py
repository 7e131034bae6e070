"""Simulation traces: a structured record of everything that happened.

A :class:`Trace` is a recorder (:class:`repro.obs.recorder.Recorder`)
that keeps one :class:`TraceRecord` per engine event, in dispatch order:
pass ``simulate(..., recorder=Trace())`` and read it after the run.
``Trace(inner)`` passes every call on to ``inner`` as well, so a run
can keep its core trace and a :class:`~repro.obs.TraceRecorder` at
once.  Traces serve three purposes:

* **debugging** — inspect exactly why a scheduler started a job when it
  did (the CLI's ``run --trace`` prints them);
* **testing** — the invariant checks in ``tests/test_trace.py`` assert
  ordering properties over whole runs (time monotonicity, start-before-
  completion, one arrival per job …);
* **replay** — a trace contains enough to reconstruct the schedule, so
  recorded runs can be re-validated without re-simulating.

Records are plain frozen dataclasses; the trace is cheap enough to keep
on for debugging yet off by default for benchmark runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from ..obs.recorder import Recorder

__all__ = ["TraceKind", "TraceRecord", "Trace"]


class TraceKind(enum.Enum):
    """What a trace record describes."""

    ARRIVAL = "arrival"
    DEADLINE = "deadline"
    START = "start"
    ASSIGN = "assign"
    COMPLETION = "completion"
    TIMER = "timer"
    ADVERSARY_WAKEUP = "adversary_wakeup"
    RELEASE = "release"


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One timestamped event in a simulation trace.

    ``job_id`` is ``None`` for job-less events (timers, adversary
    wake-ups); ``detail`` carries event-specific extra data (the assigned
    length, a timer tag, …) as a short string.
    """

    time: float
    kind: TraceKind
    job_id: int | None = None
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        job = f" J{self.job_id}" if self.job_id is not None else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"t={self.time:<10g} {self.kind.value:<16}{job}{detail}"


class Trace(Recorder):
    """An append-only sequence of :class:`TraceRecord`, filled as a recorder.

    Iteration yields records in append order, which the simulator
    guarantees is non-decreasing in time.  Every call is also passed on
    to ``inner`` (when given and enabled).
    """

    __slots__ = ("_records",)

    enabled = True

    def __init__(self, inner: Recorder | None = None) -> None:
        super().__init__(inner)
        self._records: list[TraceRecord] = []

    def append(
        self,
        time: float,
        kind: TraceKind,
        job_id: int | None = None,
        detail: str = "",
    ) -> None:
        self._records.append(
            TraceRecord(time=time, kind=kind, job_id=job_id, detail=detail)
        )

    def _rows(self, t: float, kind: TraceKind, jobs: Sequence[int]) -> None:
        self._records.extend(TraceRecord(t, kind, job, "") for job in jobs)

    # -- engine events -------------------------------------------------------
    def released(
        self,
        t: float,
        jobs: Sequence[int],
        arrivals: Sequence[float],
        deadlines: Sequence[float],
        lengths: Sequence[float | None],
    ) -> None:
        self._records.extend(
            TraceRecord(t, TraceKind.RELEASE, job, f"arrival={arrival:g}")
            for job, arrival in zip(jobs, arrivals)
        )
        super().released(t, jobs, arrivals, deadlines, lengths)

    def arrived(self, t: float, jobs: Sequence[int]) -> None:
        self._rows(t, TraceKind.ARRIVAL, jobs)
        super().arrived(t, jobs)

    def deadline_reached(self, t: float, jobs: Sequence[int]) -> None:
        self._rows(t, TraceKind.DEADLINE, jobs)
        super().deadline_reached(t, jobs)

    def started(self, t: float, jobs: Sequence[int]) -> None:
        self._rows(t, TraceKind.START, jobs)
        super().started(t, jobs)

    def assigned(
        self, t: float, jobs: Sequence[int], lengths: Sequence[float]
    ) -> None:
        self._records.extend(
            TraceRecord(t, TraceKind.ASSIGN, job, f"length={length:g}")
            for job, length in zip(jobs, lengths)
        )
        super().assigned(t, jobs, lengths)

    def completed(
        self, t: float, jobs: Sequence[int], lengths: Sequence[float | None]
    ) -> None:
        self._rows(t, TraceKind.COMPLETION, jobs)
        super().completed(t, jobs, lengths)

    def timer_fired(self, t: float, tag: Any) -> None:
        self.append(t, TraceKind.TIMER, None, repr(tag))
        super().timer_fired(t, tag)

    def woke(self, t: float) -> None:
        self.append(t, TraceKind.ADVERSARY_WAKEUP)
        super().woke(t)

    # -- reading -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, idx: int) -> TraceRecord:
        return self._records[idx]

    def filter(self, kind: TraceKind) -> list[TraceRecord]:
        """All records of one kind, in order."""
        return [r for r in self._records if r.kind == kind]

    def for_job(self, job_id: int) -> list[TraceRecord]:
        """All records touching one job, in order."""
        return [r for r in self._records if r.job_id == job_id]

    def starts(self) -> dict[int, float]:
        """``job id -> start time`` recovered from the trace."""
        return {
            r.job_id: r.time
            for r in self._records
            if r.kind == TraceKind.START and r.job_id is not None
        }

    def render(self, limit: int = 200) -> str:
        """Human-readable dump (truncated beyond ``limit`` records)."""
        lines = [str(r) for r in self._records[:limit]]
        if len(self._records) > limit:
            lines.append(f"… {len(self._records) - limit} more records")
        return "\n".join(lines)
