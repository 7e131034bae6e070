"""GreedyCover: a coverage-threshold online heuristic.

Not from the paper — a practitioner's strawman for the comparison suite
(E10/E13): it approximates the *offline* greedy-overlap heuristic with
online information.  A pending job starts as soon as at least a fraction
``θ`` of its prospective run ``[now, now + p)`` is covered by the
committed busy time of already-started jobs (clairvoyant ⇒ their end
times are known); otherwise it waits, re-evaluated at every arrival and
completion, with the starting deadline as the backstop.

``θ = 0`` degenerates to Eager; ``θ = 1`` starts early only on full
coverage (Doubler-style piggybacking with a Lazy fallback).  Unlike
Profit, GreedyCover has no competitive guarantee — E13 measures how far
intuition gets without one.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.engine import JobView, SchedulerContext
from ..core.intervalset import MutableIntervalSet
from .base import OnlineScheduler

__all__ = ["GreedyCover"]


class GreedyCover(OnlineScheduler):
    """Start pending jobs once a θ-fraction of their run is covered.

    Parameters
    ----------
    theta:
        Coverage threshold in ``[0, 1]``.
    """

    name: ClassVar[str] = "greedy-cover"
    requires_clairvoyance: ClassVar[bool] = True

    def __init__(self, theta: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {theta}")
        self.theta = theta
        self._committed = MutableIntervalSet()
        self._pending: dict[int, JobView] = {}

    def clone(self) -> "GreedyCover":
        return GreedyCover(theta=self.theta)

    def reset(self) -> None:
        super().reset()
        self._committed = MutableIntervalSet()
        self._pending = {}

    # -- mechanics -----------------------------------------------------------
    def _coverage(self, now: float, length: float) -> float:
        if length <= 0:
            return 1.0
        return self._committed.intersection_length(now, now + length) / length

    def _start(self, ctx: SchedulerContext, job: JobView) -> None:
        self._pending.pop(job.id, None)
        self._committed.add(ctx.now, ctx.now + job.length)
        ctx.start(job.id)

    def _sweep_pending(self, ctx: SchedulerContext) -> None:
        """Start every pending job whose coverage reached θ.

        Starting one job grows the committed union, which can unlock
        others — iterate to a fixpoint (each pass starts ≥ 1 job, so this
        terminates in ≤ |pending| passes).
        """
        progress = True
        while progress:
            progress = False
            for job in sorted(
                self._pending.values(), key=lambda v: (v.deadline, v.id)
            ):
                if self._coverage(ctx.now, job.length) >= self.theta - 1e-12:
                    self._start(ctx, job)
                    progress = True
                    break

    # -- hooks -------------------------------------------------------------------
    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        if self._coverage(ctx.now, job.length) >= self.theta - 1e-12:
            self._start(ctx, job)
        else:
            self._pending[job.id] = job

    def on_completion(self, ctx: SchedulerContext, job: JobView) -> None:
        # A completion never *increases* coverage, but new starts since
        # the last sweep might have; keep the sweep cheap and re-check.
        self._sweep_pending(ctx)

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        self._start(ctx, job)
        self._sweep_pending(ctx)

    def describe(self) -> str:
        return f"GreedyCover (θ={self.theta:g})"
