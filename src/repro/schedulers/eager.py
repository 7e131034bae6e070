"""The Eager baseline: start every job immediately at its arrival.

Section 3.2 of the paper observes that Eager "cannot achieve any bounded
competitive ratio even for any given μ, because it does not make use of
any laxity to boost the concurrency of job execution."  Experiment E7
demonstrates this empirically: on a staircase family of instances Eager's
span ratio grows linearly with the number of jobs at fixed μ.

Eager is also the unique *rigid-job* scheduler: with zero laxity every
scheduler degenerates to it, which is the regime prior busy-time work
([22] in the paper) assumed.
"""

from __future__ import annotations

from typing import ClassVar

from ..core.engine import JobView, SchedulerContext
from .base import OnlineScheduler

__all__ = ["Eager"]


class Eager(OnlineScheduler):
    """Start each job the moment it arrives."""

    name: ClassVar[str] = "eager"
    requires_clairvoyance: ClassVar[bool] = False
    foldable: ClassVar[bool] = True

    def on_arrival(self, ctx: SchedulerContext, job: JobView) -> None:
        ctx.start(job.id)

    def describe(self) -> str:
        return "Eager (start at arrival)"
