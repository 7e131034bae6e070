"""EpochBatch: cron-style fixed-period batching.

The batching rule operators actually deploy: collect arrivals and start
everything pending every ``T`` time units (with the starting deadline as
a per-job backstop).  Unlike the paper's Batch — whose batch points are
*deadline-driven* and hence adapt to the instance — EpochBatch's points
are blind, so it carries no competitive guarantee: a short epoch
degenerates towards Eager, a long epoch towards deadline-forced starts.
Included as the practitioner's baseline in the comparison suite.
"""

from __future__ import annotations

from typing import Any, ClassVar

from ..core.engine import JobView, SchedulerContext
from .base import OnlineScheduler

__all__ = ["EpochBatch"]

_EPOCH_TAG = "__epoch__"


class EpochBatch(OnlineScheduler):
    """Start all pending jobs at fixed epochs ``T, 2T, 3T, …``.

    Parameters
    ----------
    period:
        The epoch length ``T > 0``.
    """

    name: ClassVar[str] = "epoch-batch"
    requires_clairvoyance: ClassVar[bool] = False
    foldable: ClassVar[bool] = True

    def __init__(self, period: float = 1.0) -> None:
        super().__init__()
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self._epoch_armed = False

    def clone(self) -> "EpochBatch":
        return EpochBatch(period=self.period)

    def reset(self) -> None:
        super().reset()
        self._epoch_armed = False

    def _next_epoch(self, now: float) -> float:
        k = int(now / self.period) + 1
        return k * self.period

    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        if not self._epoch_armed:
            self._epoch_armed = True
            ctx.set_timer(self._next_epoch(ctx.now), _EPOCH_TAG)

    def on_timer(self, ctx: SchedulerContext, tag: Any) -> None:
        if tag != _EPOCH_TAG:
            return
        obs = self.obs
        if obs.enabled:
            pending = ctx.pending()
            for job in pending:
                # a pending job whose deadline precedes the *next* epoch
                # must not wait for it (its own deadline backstop would
                # fire, but batching it now keeps starts aligned to
                # epochs).
                obs.decision(
                    "epoch",
                    job=job.id,
                    t=ctx.now,
                    scheduler=self._obs_scheduler,
                    period=self.period,
                )
                ctx.start(job.id)
            started = bool(pending)
        else:
            # Vectorised cohort start (same order as the view loop).
            ids = ctx.pending_ids()
            ctx.start_batch(ids)
            started = bool(ids)
        if started:
            # keep ticking while there was work; otherwise re-arm lazily
            ctx.set_timer(self._next_epoch(ctx.now), _EPOCH_TAG)
        else:
            self._epoch_armed = False

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        # Backstop: a deadline strictly between epochs forces the start.
        if self.obs.enabled:
            self.obs.decision(
                "deadline-backstop",
                job=job.id,
                t=ctx.now,
                scheduler=self._obs_scheduler,
                deadline=job.deadline,
                period=self.period,
            )
        ctx.start(job.id)

    def describe(self) -> str:
        return f"EpochBatch (T={self.period:g})"
