"""Schedule metrics: span, concurrency profiles, overlap statistics.

The paper's single objective is the *span*; this module additionally
provides the auxiliary quantities used by its proofs and by our empirical
harness:

* concurrency profile — how many jobs run at each instant (the §3.1
  adversary watches per-iteration concurrency),
* parallelism/utilisation — total work divided by span (the "speed-up"
  the scheduler extracted from laxity),
* span ratio helpers for competitive-ratio measurements.

All heavy computations are NumPy-vectorised sweep-line passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .intervals import IntervalUnion
from .schedule import Schedule

__all__ = [
    "ConcurrencyProfile",
    "concurrency_profile",
    "max_concurrency",
    "parallelism",
    "span_ratio",
    "reference_ratio",
    "overlap_fraction",
]


@dataclass(frozen=True)
class ConcurrencyProfile:
    """A step function: number of running jobs over time.

    ``times`` are the breakpoints (event times) and ``counts[i]`` is the
    number of running jobs on ``[times[i], times[i+1])``; the function is
    zero before ``times[0]`` and after ``times[-1]``.
    """

    times: np.ndarray
    counts: np.ndarray

    def at(self, t: float) -> int:
        """Concurrency at time ``t``."""
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if idx < 0 or idx >= len(self.counts):
            return 0
        return int(self.counts[idx])

    @property
    def peak(self) -> int:
        """Maximum simultaneous jobs."""
        return int(self.counts.max()) if self.counts.size else 0

    def time_at_least(self, level: int) -> float:
        """Total time during which concurrency is >= ``level``."""
        if self.times.size < 2:
            return 0.0
        widths = np.diff(self.times)
        return float(widths[self.counts[:-1] >= level].sum())


def concurrency_profile(
    starts: Sequence[float], lengths: Sequence[float]
) -> ConcurrencyProfile:
    """Build the concurrency step function for intervals ``[s_i, s_i+p_i)``.

    Vectorised sweep: +1 events at starts, -1 at ends, sorted and
    prefix-summed.  Zero-length intervals contribute nothing (half-open).
    """
    s = np.asarray(starts, dtype=np.float64)
    p = np.asarray(lengths, dtype=np.float64)
    keep = p > 0
    s, p = s[keep], p[keep]
    if s.size == 0:
        return ConcurrencyProfile(np.empty(0), np.empty(0, dtype=np.int64))
    e = s + p
    times = np.concatenate([s, e])
    deltas = np.concatenate([np.ones_like(s), -np.ones_like(e)])
    order = np.argsort(times, kind="stable")
    times, deltas = times[order], deltas[order]
    # collapse simultaneous events
    uniq, first_idx = np.unique(times, return_index=True)
    summed = np.add.reduceat(deltas, first_idx)
    counts = np.cumsum(summed).astype(np.int64)
    # counts[i] is concurrency on [uniq[i], uniq[i+1]); last count is 0
    return ConcurrencyProfile(uniq, counts)


def schedule_concurrency(schedule: Schedule) -> ConcurrencyProfile:
    """Concurrency profile of a schedule."""
    rows = list(schedule.rows())
    return concurrency_profile(
        [r.start for r in rows], [r.job.known_length for r in rows]
    )


def max_concurrency(schedule: Schedule) -> int:
    """Peak number of simultaneously running jobs."""
    return schedule_concurrency(schedule).peak


def parallelism(schedule: Schedule) -> float:
    """Total work divided by span: mean concurrency over busy time.

    A scheduler that extracts more parallelism from laxity achieves a
    smaller span for the same work, so this is the "goodness" the paper's
    intro frames the problem around.  Defined as 0 for empty schedules.
    """
    span = schedule.span
    if span == 0:
        return 0.0
    return schedule.instance.total_work / span


def span_ratio(schedule: Schedule, optimum: float) -> float:
    """``span / optimum`` — the empirical competitive ratio against a
    known optimum (or a lower bound on it, yielding an upper estimate)."""
    if optimum <= 0:
        raise ValueError("optimum span must be positive")
    return schedule.span / optimum


def reference_ratio(span: float, reference: float) -> float:
    """``span / reference`` with 0/0 -> 1.0 and x/0 -> inf.

    The one ratio convention of the sweeps, the certified brackets and
    ``repro run``: an empty run matched an empty reference exactly, so
    its ratio is 1; a positive span against a zero reference is
    unboundedly worse.  A NaN reference (an uncertified bracket) gives
    NaN.
    """
    if reference > 0 or math.isnan(reference):
        return span / reference
    return 1.0 if span <= 0 else float("inf")


def overlap_fraction(schedule: Schedule) -> float:
    """Fraction of total work that overlaps at least one other job.

    ``1 - span_exclusive / total_work`` where ``span_exclusive`` is the
    time exactly one job runs.  0 means fully serial, approaching 1 means
    highly parallel execution.
    """
    prof = schedule_concurrency(schedule)
    if prof.times.size == 0:
        return 0.0
    widths = np.diff(prof.times)
    counts = prof.counts[: len(widths)]
    solo_time = float(widths[counts == 1].sum())
    work = schedule.instance.total_work
    if work == 0:
        return 0.0
    return 1.0 - solo_time / work


def busy_union(schedule: Schedule) -> IntervalUnion:
    """The busy-time union (alias of ``schedule.active_union`` for
    discoverability alongside the other metrics)."""
    return schedule.active_union()
