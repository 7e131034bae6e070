"""The Batch scheduler (Section 3.2, Theorem 3.4).

Batch determines start times in iterations.  In each iteration it waits
until some pending job hits its starting deadline; that job is the
iteration's **flag job**.  At the flag job's deadline, Batch starts *all*
pending jobs simultaneously and then returns to waiting for the next
pending job to hit its deadline.

The paper proves Batch's competitive ratio lies between ``2μ`` and
``2μ + 1`` in the non-clairvoyant setting (Theorem 3.4).  The lower bound
is forced by the three-group instance of Figure 2, reproduced by
``repro.adversaries.tightness.batch_tightness_instance``.

Implementation notes
--------------------
The engine's deadline events drive the iterations: the *first* deadline
event among pending jobs belongs to the earliest-deadline pending job —
exactly the paper's flag-job choice.  When several pending jobs share the
flag's deadline, the first-fired event designates the flag and the batch
start covers the rest, whose own deadline events are then skipped by the
engine (any tie-break is admissible per the paper).
"""

from __future__ import annotations

from typing import ClassVar

from ..core.engine import JobView, SchedulerContext
from .base import OnlineScheduler
from .stats import IterationRecord

__all__ = ["Batch"]


class Batch(OnlineScheduler):
    """Batch: start all pending jobs whenever one hits its deadline."""

    name: ClassVar[str] = "batch"
    requires_clairvoyance: ClassVar[bool] = False
    foldable: ClassVar[bool] = True

    def __init__(self) -> None:
        super().__init__()
        #: Per-iteration records, in iteration order.
        self.iterations: list[IterationRecord] = []

    def reset(self) -> None:
        super().reset()
        self.iterations = []

    def fold(self) -> None:
        super().fold()
        self.iterations = []

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        # ``job`` is the flag job of this iteration: the engine fires
        # deadline events in deadline order, and a pending job reaching its
        # deadline is by construction the earliest-deadline pending job.
        self.flag_job_ids.append(job.id)
        record = IterationRecord(flag_id=job.id, start_time=ctx.now)
        obs = self.obs
        if obs.enabled:
            now = ctx.now
            label = self._obs_scheduler
            for pending in ctx.pending():
                if pending.id == job.id:
                    obs.decision(
                        "deadline-flag",
                        job=pending.id,
                        t=now,
                        scheduler=label,
                        deadline=pending.deadline,
                    )
                else:
                    obs.decision(
                        "batch-start",
                        job=pending.id,
                        t=now,
                        scheduler=label,
                        flag=job.id,
                    )
                record.batch_job_ids.append(pending.id)
                ctx.start(pending.id)
        else:
            # Vectorised cohort start: same (deadline, arrival, id) order
            # as ctx.pending(), no per-job views, and the columnar core
            # executes the whole batch as array operations.
            ids = ctx.pending_ids()
            record.batch_job_ids.extend(ids)
            ctx.start_batch(ids)
        self.iterations.append(record)

    def describe(self) -> str:
        return "Batch (start all pending at each flag deadline)"
