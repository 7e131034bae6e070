"""Classify-by-Duration Batch+ (Section 4.2, Theorem 4.4).

In the clairvoyant setting the processing length is known at arrival, so
jobs can be partitioned into duration categories with bounded internal
max/min length ratio ``α``, breaking the non-clairvoyant ``μ`` barrier.
CDB places each arriving job with length ``p`` into the category

    ``i = ceil(log_α(p / b))``        (category covers ``(b·α^(i-1), b·α^i]``)

for a base length ``b``, and runs an *independent* Batch+ instance per
category over the shared timeline.  Theorem 4.4 proves CDB is
``(3α + 4 + 2/(α-1))``-competitive, minimised to ``7 + 2√6 ≈ 11.90`` at
``α = 1 + √(2/3)``.

Implementation notes
--------------------
* Categories are created lazily on first use; the index computation uses
  a small relative tolerance so that a length lying exactly on a category
  boundary ``b·α^i`` lands in category ``i`` (not ``i+1``) despite
  floating-point log rounding.
* Each category's Batch+ tracks its own pending set, so the shared engine
  events can be routed by job id without cross-talk.
"""

from __future__ import annotations

import math
from typing import ClassVar

from ..core.engine import JobView, SchedulerContext
from .base import OnlineScheduler
from .batch_plus import BatchPlus

__all__ = ["ClassifyByDurationBatchPlus", "OPTIMAL_CDB_ALPHA", "duration_category"]

#: The α minimising the Theorem 4.4 bound ``3α + 4 + 2/(α-1)``.
OPTIMAL_CDB_ALPHA = 1.0 + math.sqrt(2.0 / 3.0)

#: Relative tolerance for boundary-exact lengths in the category index.
_BOUNDARY_RTOL = 1e-12


def duration_category(length: float, alpha: float, base: float = 1.0) -> int:
    """The category index ``i`` such that ``b·α^(i-1) < length <= b·α^i``.

    The paper classifies "all the jobs with processing length between
    ``b·α^(i-1)`` and ``b·α^i``" into category ``i``; we take the
    half-open-from-below convention so each length belongs to exactly one
    category.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if base <= 0:
        raise ValueError("base must be positive")
    raw = math.log(length / base) / math.log(alpha)
    i = math.ceil(raw - _BOUNDARY_RTOL)
    # Guard against floating error pushing the length outside (α^(i-1), α^i].
    while length > base * alpha**i * (1 + _BOUNDARY_RTOL):
        i += 1
    while i > 0 and length <= base * alpha ** (i - 1) * (1 + _BOUNDARY_RTOL):
        i -= 1
    return i


class ClassifyByDurationBatchPlus(OnlineScheduler):
    """CDB: one Batch+ per duration category of internal ratio ``α``.

    Parameters
    ----------
    alpha:
        Max/min processing-length ratio per category (``> 1``).  Defaults
        to the bound-minimising ``1 + √(2/3)``.
    base:
        The base length ``b`` anchoring category boundaries.
    """

    name: ClassVar[str] = "cdb"
    requires_clairvoyance: ClassVar[bool] = True
    #: Each category's Batch+ may fold, and the category map only serves
    #: jobs that have hooks still to come.
    foldable: ClassVar[bool] = True

    def __init__(self, alpha: float = OPTIMAL_CDB_ALPHA, base: float = 1.0) -> None:
        super().__init__()
        if alpha <= 1:
            raise ValueError(f"alpha must exceed 1, got {alpha}")
        if base <= 0:
            raise ValueError(f"base must be positive, got {base}")
        self.alpha = alpha
        self.base = base
        self._categories: dict[int, BatchPlus] = {}
        self._job_category: dict[int, int] = {}

    def clone(self) -> "ClassifyByDurationBatchPlus":
        return ClassifyByDurationBatchPlus(alpha=self.alpha, base=self.base)

    def reset(self) -> None:
        super().reset()
        self._categories = {}
        self._job_category = {}

    def fold(self) -> None:
        super().fold()
        self._job_category = {}
        for sub in self._categories.values():
            sub.fold()

    # -- routing -------------------------------------------------------------
    def _category_of(self, job: JobView) -> BatchPlus:
        cat = self._job_category.get(job.id)
        if cat is None:
            cat = duration_category(job.length, self.alpha, self.base)
            self._job_category[job.id] = cat
        sub = self._categories.get(cat)
        if sub is None:
            sub = BatchPlus()
            # Propagate the decision-provenance channel: the category's
            # Batch+ emits the actual start rules, labelled with its
            # category so the narrative reads "cdb/cat3 batched J17".
            sub.obs = self.obs
            sub._obs_scheduler = f"{self._obs_scheduler}/cat{cat}"
            self._categories[cat] = sub
        return sub

    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        if self.obs.enabled and job.id not in self._job_category:
            cat = duration_category(job.length, self.alpha, self.base)
            self._job_category[job.id] = cat
            self.obs.decision(
                "class-boundary",
                job=job.id,
                t=ctx.now,
                scheduler=self._obs_scheduler,
                category=cat,
                length=job.length,
                alpha=self.alpha,
                base=self.base,
            )
        self._category_of(job).on_arrival(ctx, job)

    def on_deadline(self, ctx: SchedulerContext, job: JobView) -> None:
        sub = self._category_of(job)
        before = len(sub.flag_job_ids)
        sub.on_deadline(ctx, job)
        # Mirror newly designated flags into the top-level record, so that
        # analysis sees the union F = ∪ F_i the paper works with.
        self.flag_job_ids.extend(sub.flag_job_ids[before:])

    def on_completion(self, ctx: SchedulerContext, job: JobView) -> None:
        self._category_of(job).on_completion(ctx, job)

    # -- inspection ------------------------------------------------------------
    @property
    def category_flag_jobs(self) -> dict[int, list[int]]:
        """Flag-job ids per category index (the paper's ``F_i`` sets)."""
        return {
            cat: list(sub.flag_job_ids) for cat, sub in sorted(self._categories.items())
        }

    @property
    def num_categories(self) -> int:
        """Number of non-empty categories materialised so far."""
        return len(self._categories)

    def describe(self) -> str:
        return f"Classify-by-Duration Batch+ (α={self.alpha:.4f}, b={self.base:g})"
