"""The Batch+ scheduler (Section 3.2, Theorem 3.5).

Batch+ refines Batch with an *open phase*: in each iteration it waits for
a pending job to hit its starting deadline (the **flag job**), starts all
pending jobs together with the flag, and then — while the flag job is
running — starts every newly arriving job immediately.  Only when the
flag job completes does Batch+ return to buffering arrivals and waiting
for a new flag.

The paper proves Batch+ achieves a *tight* competitive ratio of
``μ + 1`` in the non-clairvoyant setting (Theorem 3.5): every job of an
iteration starts no later than the flag's completion ``d(Jf) + p(Jf)``,
so the iteration's span is at most ``(μ+1)·p(Jf)``, while the flag jobs of
consecutive iterations can never overlap under any scheduler.  The
two-group instance of Figure 3 (``batchplus_tightness_instance``) forces
the ratio arbitrarily close to ``μ + 1``.

Implementation notes
--------------------
* Batch+ is non-clairvoyant: it does not know the flag's completion time
  in advance, so the open phase is closed by the flag's *completion
  event*.  During the open phase no job pends (arrivals start instantly),
  hence the pending set is empty when the phase closes and the next
  deadline event designates the next flag.
* Batch+ tracks its own pending set instead of querying the engine's
  global one, because Classify-by-Duration Batch+ runs one Batch+
  instance per duration category over a *shared* engine: each instance
  must only ever batch-start the jobs routed to it.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.engine import JobView, SchedulerContext
from .base import OnlineScheduler
from .stats import IterationRecord

__all__ = ["BatchPlus"]


class BatchPlus(OnlineScheduler):
    """Batch+: batch at flag deadlines, start arrivals during the flag run."""

    name: ClassVar[str] = "batch+"
    requires_clairvoyance: ClassVar[bool] = False
    #: At an idle instant the flag has completed (no open phase) and the
    #: buffer is empty, so it holds no view.
    foldable: ClassVar[bool] = True

    def __init__(self) -> None:
        super().__init__()
        self._active_flag: int | None = None
        self._pending: dict[int, JobView] = {}
        #: Per-iteration records, in iteration order.
        self.iterations: list[IterationRecord] = []

    def reset(self) -> None:
        super().reset()
        self._active_flag = None
        self._pending = {}
        self.iterations = []

    def fold(self) -> None:
        # The next open-phase arrival follows a new flag's record.
        super().fold()
        self.iterations = []

    @property
    def open_phase(self) -> bool:
        """Whether a flag job is currently running (arrivals start at once)."""
        return self._active_flag is not None

    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        if self._active_flag is not None:
            self.iterations[-1].open_started_job_ids.append(job.id)
            if self.obs.enabled:
                self.obs.decision(
                    "open-phase",
                    job=job.id,
                    t=ctx.now,
                    scheduler=self._obs_scheduler,
                    flag=self._active_flag,
                )
            ctx.start(job.id)
        else:
            # Buffer: the job pends until some pending job's deadline fires.
            self._pending[job.id] = job

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        # A pending job hit its starting deadline: it becomes the new flag.
        # (During an open phase nothing pends, so this only fires while
        # buffering — i.e. at iteration boundaries.)
        self._active_flag = job.id
        self.flag_job_ids.append(job.id)
        record = IterationRecord(flag_id=job.id, start_time=ctx.now)
        self.iterations.append(record)
        batch = self._pending
        self._pending = {}
        obs = self.obs
        if obs.enabled:
            now = ctx.now
            label = self._obs_scheduler
            for pending in batch.values():
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
            # Vectorised cohort start: the buffer's keys are the job ids
            # in arrival (insertion) order — identical to the view loop.
            ids = list(batch)
            record.batch_job_ids.extend(ids)
            ctx.start_batch(ids)

    def on_completion(self, ctx: SchedulerContext, job: JobView) -> None:
        if job.id == self._active_flag:
            self._active_flag = None

    def describe(self) -> str:
        return "Batch+ (batch at flag deadline, open during flag run)"
