"""RL007 fixture: a scheduler that *claims* to be non-clairvoyant yet
reads ``job.length`` before completion.

``tests/test_lint.py`` uses this file two ways:

* statically — ``python -m repro lint`` on this path must exit non-zero
  with an RL007 finding;
* dynamically — running it through the simulator in strict mode must trip
  the :class:`~repro.core.engine.ClairvoyanceGuard` on the same access.

The two verdicts agreeing (here, and *not* firing on
``clean_scheduler.py``) is the cross-validation contract of the rule.
"""

from __future__ import annotations

from typing import ClassVar

from repro.core.engine import JobView, SchedulerContext
from repro.schedulers.base import OnlineScheduler


class LeakyScheduler(OnlineScheduler):
    """Mis-declared: peeks at processing lengths on arrival."""

    name: ClassVar[str] = "fixture-leaky"
    requires_clairvoyance: ClassVar[bool] = False  # <-- the lie RL007 catches

    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        # Clairvoyance leak: `length` is hidden pre-completion in the
        # non-clairvoyant model this class declares.
        if job.length > 1.0:
            ctx.start(job.id)
        else:
            ctx.start(job.id)
