"""RL007 fixture (negative case): an honest non-clairvoyant scheduler.

Only reads ``job.length`` inside ``on_completion``, where it is visible in
every information model.  The linter must report nothing for this file and
the strict-mode runtime guard must record no accesses — see
``tests/test_lint.py``.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.engine import JobView, SchedulerContext
from repro.schedulers.base import OnlineScheduler


class CleanScheduler(OnlineScheduler):
    """Starts everything at deadlines; observes lengths only at completion."""

    name: ClassVar[str] = "fixture-clean"
    requires_clairvoyance: ClassVar[bool] = False

    def __init__(self) -> None:
        super().__init__()
        self.observed_lengths: list[float] = []

    def reset(self) -> None:
        super().reset()
        self.observed_lengths = []

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        for pending in ctx.pending():
            ctx.start(pending.id)

    def on_completion(self, ctx: SchedulerContext, job: JobView) -> None:
        # Post-completion access is legitimate in the non-clairvoyant model.
        self.observed_lengths.append(job.length)
