"""WaitScale: the generalized wait-proportional-to-length family.

An ablation axis for the Doubler reconstruction (experiment E13): each
job waits ``β · p(J)`` before starting (clipped to its window),

    start(J) = min(d(J), a(J) + β·p(J)),

optionally piggybacking for free whenever its whole run would fall
inside already-committed busy time.  ``β = 1`` with piggybacking is
exactly :class:`~repro.schedulers.doubler.Doubler`; ``β = 0`` is Eager;
``β → ∞`` approaches Lazy.  Sweeping β exposes the trade-off the
rent-or-buy argument balances: waiting longer creates more overlap
opportunities but pays more serialised delay.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.engine import JobView, SchedulerContext
from ..core.intervalset import MutableIntervalSet
from .base import OnlineScheduler

__all__ = ["WaitScale"]


class WaitScale(OnlineScheduler):
    """Start each job after waiting ``β`` times its own length.

    Parameters
    ----------
    beta:
        Waiting factor (``>= 0``).
    piggyback:
        When true (default), a job whose full run is already covered by
        committed busy time starts immediately (zero added span).
    """

    name: ClassVar[str] = "wait-scale"
    requires_clairvoyance: ClassVar[bool] = True

    def __init__(self, beta: float = 1.0, piggyback: bool = True) -> None:
        super().__init__()
        if beta < 0:
            raise ValueError(f"beta must be non-negative, got {beta}")
        self.beta = beta
        self.piggyback = piggyback
        self._committed = MutableIntervalSet()

    def clone(self) -> "WaitScale":
        return WaitScale(beta=self.beta, piggyback=self.piggyback)

    def reset(self) -> None:
        super().reset()
        self._committed = MutableIntervalSet()

    def _covered(self, start: float, length: float) -> bool:
        covered = self._committed.intersection_length(start, start + length)
        return covered >= length - 1e-12

    def _start(self, ctx: SchedulerContext, job: JobView) -> None:
        self._committed.add(ctx.now, ctx.now + job.length)
        ctx.start(job.id)

    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        if self.piggyback and self._covered(ctx.now, job.length):
            self._start(ctx, job)
            return
        wake = min(job.deadline, job.arrival + self.beta * job.length)
        if wake <= ctx.now:
            self._start(ctx, job)
        else:
            ctx.set_timer(wake, job.id)

    def on_timer(self, ctx: SchedulerContext, tag: int) -> None:
        if ctx.is_started(tag):
            return
        for job in ctx.pending():
            if job.id == tag:
                self._start(ctx, job)
                return

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        # Deadline events outrank equal-time timers; start now.
        self._start(ctx, job)

    def describe(self) -> str:
        return (
            f"WaitScale (β={self.beta:g}, "
            f"piggyback={'on' if self.piggyback else 'off'})"
        )
