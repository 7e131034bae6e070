"""The launderer: non-clairvoyant by declaration, clairvoyant by dataflow.

The scheduler's own file shows only ``helpers.effective_weight(job)`` —
no ``.length`` read in sight.  RL007 resolves the call edge into
:mod:`laundered_pkg.helpers`, finds the transitive read, and reports it
*here*, at the launder site.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.engine import JobView, SchedulerContext
from repro.schedulers.base import OnlineScheduler

from . import helpers


class LaunderingScheduler(OnlineScheduler):
    """Mis-declared: peeks at lengths through another module."""

    name: ClassVar[str] = "fixture-laundering"
    requires_clairvoyance: ClassVar[bool] = False  # <-- the laundered lie

    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        # The leak no one-file view sees: job.length is read two call hops
        # away, in a different module.
        if helpers.effective_weight(job) > 2.0:
            ctx.start(job.id)
        else:
            ctx.start(job.id)
