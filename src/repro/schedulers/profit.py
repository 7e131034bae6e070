"""The Profit scheduler (Section 4.3, Theorem 4.11).

Profit is the paper's strongest clairvoyant scheduler.  It runs in
iterations anchored by **flag jobs**:

* When a pending job hits its starting deadline it becomes a flag job and
  starts immediately (ties broken towards the *longest* processing
  length; per the paper's footnote 3 the shorter tied jobs are then
  profitable to the flag and start in the same iteration).
* At the flag's start time ``d(Jf)``, every pending job ``J`` with
  ``p(J) <= k·p(Jf)`` starts alongside it — at least ``1/k`` of its active
  interval is guaranteed to overlap the flag's.
* While a flag ``Jf`` runs, an arriving job ``J`` with
  ``p(J) <= k·(d(Jf) + p(Jf) - a(J))`` starts immediately — again at
  least a ``1/k`` fraction of its interval overlaps the flag's.

Jobs satisfying either condition are *profitable* to the flag.  Several
flags may run concurrently (a non-profitable pending job can hit its own
deadline during another flag's run, opening a new iteration); an arrival
profitable to *any* active flag starts at once.

Theorem 4.11 proves Profit is ``(2k + 2 + 1/(k-1))``-competitive,
minimised to ``4 + 2√2 ≈ 6.83`` at ``k = 1 + √2/2``.

The scheduler records flag jobs (and each job's attributed flag) so the
analysis module can rebuild the flag forest of Lemma 4.7 and verify
Lemmas 4.6–4.9 empirically.
"""

from __future__ import annotations

import math
from typing import ClassVar

from ..core.engine import JobView, SchedulerContext
from .base import OnlineScheduler

__all__ = ["Profit", "OPTIMAL_PROFIT_K"]

#: The k minimising the Theorem 4.11 bound ``2k + 2 + 1/(k-1)``.
OPTIMAL_PROFIT_K = 1.0 + math.sqrt(2.0) / 2.0


class _ActiveFlag:
    """A flag job currently running: ``[start, end)`` with its length."""

    __slots__ = ("job_id", "start", "end", "length")

    def __init__(self, job_id: int, start: float, length: float) -> None:
        self.job_id = job_id
        self.start = start
        self.end = start + length
        self.length = length


class Profit(OnlineScheduler):
    """Profit: start jobs only when at least ``1/k`` of their run overlaps
    a flag job's run (or when they become flags themselves).

    Parameters
    ----------
    k:
        The profitability parameter (``> 1``).  Defaults to the
        bound-minimising ``1 + √2/2``.
    """

    name: ClassVar[str] = "profit"
    requires_clairvoyance: ClassVar[bool] = True
    #: At an idle instant every flag has completed and nothing pends.
    foldable: ClassVar[bool] = True

    def __init__(self, k: float = OPTIMAL_PROFIT_K) -> None:
        super().__init__()
        if k <= 1:
            raise ValueError(f"k must exceed 1, got {k}")
        self.k = k
        self._active_flags: dict[int, _ActiveFlag] = {}
        self._pending: dict[int, JobView] = {}
        #: job id -> flag job id it was attributed to (flags map to themselves)
        self.attribution: dict[int, int] = {}

    def clone(self) -> "Profit":
        return Profit(k=self.k)

    def reset(self) -> None:
        super().reset()
        self._active_flags = {}
        self._pending = {}
        self.attribution = {}

    def fold(self) -> None:
        super().fold()
        self.attribution = {}

    # -- profitability tests ---------------------------------------------------
    def _profitable_flag_for_arrival(self, job: JobView, now: float) -> int | None:
        """An active flag ``f`` with ``p(J) <= k·(end_f - a(J))``, if any.

        The arrival time equals ``now`` when this is called from
        ``on_arrival``.  Deterministically prefers the flag with the
        latest end (most slack), breaking ties by id.
        """
        best: _ActiveFlag | None = None
        for flag in self._active_flags.values():
            if job.length <= self.k * (flag.end - now):
                if best is None or (flag.end, -flag.job_id) > (best.end, -best.job_id):
                    best = flag
        return best.job_id if best is not None else None

    # -- hooks -------------------------------------------------------------------
    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        flag_id = self._profitable_flag_for_arrival(job, ctx.now)
        if flag_id is not None:
            self.attribution[job.id] = flag_id
            if self.obs.enabled:
                flag = self._active_flags[flag_id]
                self.obs.decision(
                    "profit-gain",
                    job=job.id,
                    t=ctx.now,
                    scheduler=self._obs_scheduler,
                    flag=flag_id,
                    test="arrival",
                    length=job.length,
                    slack=flag.end - ctx.now,
                    k=self.k,
                )
            ctx.start(job.id)
        else:
            self._pending[job.id] = job

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        # ``job`` pends and has hit its starting deadline.  Among pending
        # jobs sharing this deadline the paper designates the longest as
        # the flag; the others are then profitable to it (p <= p_f < k·p_f)
        # and start in the same iteration either way, so selecting the
        # longest tied job preserves the paper's flag-job set exactly.
        now = ctx.now
        tied = [
            j
            for j in self._pending.values()
            if j.deadline == job.deadline
        ]
        flag_job = max(tied, key=lambda j: (j.length, j.id))
        self._pending.pop(flag_job.id, None)
        self.flag_job_ids.append(flag_job.id)
        self.attribution[flag_job.id] = flag_job.id
        flag = _ActiveFlag(flag_job.id, now, flag_job.length)
        self._active_flags[flag_job.id] = flag
        obs = self.obs
        if obs.enabled:
            obs.decision(
                "deadline-flag",
                job=flag_job.id,
                t=now,
                scheduler=self._obs_scheduler,
                deadline=flag_job.deadline,
                length=flag.length,
            )
        ctx.start(flag_job.id)

        # Start every pending job profitable to the new flag.
        threshold = self.k * flag.length
        for other in list(self._pending.values()):
            if other.length <= threshold:
                del self._pending[other.id]
                self.attribution[other.id] = flag.job_id
                if obs.enabled:
                    obs.decision(
                        "profit-gain",
                        job=other.id,
                        t=now,
                        scheduler=self._obs_scheduler,
                        flag=flag.job_id,
                        test="flag-start",
                        length=other.length,
                        threshold=threshold,
                        k=self.k,
                    )
                ctx.start(other.id)

    def on_completion(self, ctx: SchedulerContext, job: JobView) -> None:
        self._active_flags.pop(job.id, None)

    # -- inspection ---------------------------------------------------------------
    @property
    def num_pending(self) -> int:
        return len(self._pending)

    def describe(self) -> str:
        return f"Profit (k={self.k:.4f})"
