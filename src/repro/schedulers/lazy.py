"""The Lazy baseline: delay every job to its starting deadline.

Section 3.2 of the paper observes that Lazy "cannot achieve any bounded
competitive ratio for any given μ either, since it does not take any
advantage of the flexibility offered by the laxity" — deadlines may be
spread out even when arrivals cluster, so Lazy serialises work an optimal
scheduler would overlap.  Experiment E7 demonstrates the unbounded ratio.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.engine import JobView, SchedulerContext
from .base import OnlineScheduler

__all__ = ["Lazy"]


class Lazy(OnlineScheduler):
    """Start each job exactly at its starting deadline."""

    name: ClassVar[str] = "lazy"
    requires_clairvoyance: ClassVar[bool] = False
    foldable: ClassVar[bool] = True

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        ctx.start(job.id)

    def describe(self) -> str:
        return "Lazy (start at deadline)"
