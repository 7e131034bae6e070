"""The Doubler scheduler — reconstructed Koehler–Khuller baseline.

The paper's concluding remarks cite concurrent work by Koehler and
Khuller (WADS 2017) whose unbounded-capacity online case equals
Clairvoyant FJS, with a 5-competitive scheduler named *Doubler*.  The
paper does not specify Doubler; we reconstruct the standard
wait-proportional-to-length ("doubling" / rent-or-buy) rule that their
analysis is built on:

    Each job ``J`` is delayed until time ``min(d(J), a(J) + p(J))`` —
    i.e. it waits for (at most) its own processing length before
    starting — unless it can piggyback for free: if at any moment the
    interval ``[now, now + p(J))`` is entirely inside the currently
    scheduled busy period, the job starts immediately (its execution adds
    zero span).

The intuition matches Profit with ``k = 1``-style accounting: a job that
waited ``p(J)`` and still had to start alone can charge its span to the
waiting period, giving O(1) competitiveness.  **This is a reconstruction,
not a verified reimplementation of [12]** (flagged in DESIGN.md §5); it
serves as the independent clairvoyant baseline of experiment E9.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.engine import JobView, SchedulerContext
from ..core.intervalset import MutableIntervalSet
from .base import OnlineScheduler

__all__ = ["Doubler"]


class Doubler(OnlineScheduler):
    """Doubler: wait for min(own length, laxity), piggyback when free."""

    name: ClassVar[str] = "doubler"
    requires_clairvoyance: ClassVar[bool] = True

    def __init__(self) -> None:
        super().__init__()
        # Busy time already committed by started jobs: union of their
        # active intervals (clairvoyant => end times known at start).
        self._committed = MutableIntervalSet()

    def reset(self) -> None:
        super().reset()
        self._committed = MutableIntervalSet()

    def _covered(self, start: float, length: float) -> bool:
        """Whether ``[start, start+length)`` adds no new span."""
        covered = self._committed.intersection_length(start, start + length)
        return covered >= length - 1e-12

    def _start(self, ctx: SchedulerContext, job: JobView) -> None:
        self._committed.add(ctx.now, ctx.now + job.length)
        ctx.start(job.id)

    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        if self._covered(ctx.now, job.length):
            self._start(ctx, job)
            return
        wake = min(job.deadline, job.arrival + job.length)
        ctx.set_timer(wake, job.id)

    def on_timer(self, ctx: SchedulerContext, tag: int) -> None:
        job_id = tag
        if ctx.is_started(job_id):
            return
        # Find the job among pending views (it must pend: unstarted and
        # arrived, since its timer is within [arrival, deadline]).
        for job in ctx.pending():
            if job.id == job_id:
                self._start(ctx, job)
                return

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        # Backstop for timers scheduled exactly at the deadline: deadline
        # events run before timer events at equal times.
        self._start(ctx, job)

    def describe(self) -> str:
        return "Doubler (wait own length, piggyback when covered; reconstruction)"
