"""RandomStart baseline: start at a uniformly random time in the window.

Not from the paper — a sanity baseline for the comparison experiment
(E10) sitting between Eager (always the window's left end) and Lazy
(always the right end).  Deterministic given its seed.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from ..core.engine import JobView, SchedulerContext
from .base import OnlineScheduler

__all__ = ["RandomStart"]


class RandomStart(OnlineScheduler):
    """Start each job at an independent uniform time in ``[a(J), d(J)]``."""

    name: ClassVar[str] = "random"
    requires_clairvoyance: ClassVar[bool] = False
    #: Its timers carry job ids, never views; a timer for a folded job
    #: finds it started (``ctx.is_started``).
    foldable: ClassVar[bool] = True

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def clone(self) -> "RandomStart":
        return RandomStart(seed=self.seed)

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self.seed)

    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        if job.laxity == 0:
            ctx.start(job.id)
            return
        target = job.arrival + float(self._rng.uniform(0.0, job.laxity))
        ctx.set_timer(target, job.id)

    def on_timer(self, ctx: SchedulerContext, tag: int) -> None:
        if not ctx.is_started(tag):
            ctx.start(tag)

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        # Deadline events outrank timer events at equal times; start now.
        ctx.start(job.id)

    def describe(self) -> str:
        return f"RandomStart (seed={self.seed})"
