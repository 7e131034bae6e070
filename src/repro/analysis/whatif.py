"""Counterfactual placement analysis: which decisions cost span?

For a finished schedule, each job's **regret** is the span reduction
achievable by re-placing *that job alone* optimally against the other
jobs' fixed intervals (the coordinate-wise best response, evaluated over
the breakpoint candidate set).  Ranked regrets answer the operator
question "which scheduling decisions hurt?" and quantify how far a
schedule is from coordinate-wise optimality (total regret 0 ⇔ local
search fixpoint).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.intervalset import MutableIntervalSet
from ..core.schedule import Schedule
from ..offline.heuristics import candidate_starts

__all__ = ["JobRegret", "placement_regrets", "total_regret"]


@dataclass(frozen=True)
class JobRegret:
    """One job's counterfactual: its best single-job re-placement."""

    job_id: int
    current_start: float
    best_start: float
    #: Span reduction if this job alone moved to ``best_start`` (>= 0).
    regret: float


def placement_regrets(schedule: Schedule) -> list[JobRegret]:
    """Per-job regrets, sorted by descending regret (ties by id).

    O(n²) in all: each job's others-set is an O(n) merging pass, and
    its candidates come only from the components near its window.
    """
    instance = schedule.instance
    jobs = list(instance.jobs)
    starts = schedule.starts()
    # Run intervals sorted by start, tagged with the job's position, so
    # each job's others-set is one merging pass that skips its own entry.
    placed = sorted(
        (starts[j.id], starts[j.id] + j.known_length, k) for k, j in enumerate(jobs)
    )
    out: list[JobRegret] = []
    for k, job in enumerate(jobs):
        others = MutableIntervalSet.from_sorted_pairs(
            (lo, hi) for lo, hi, idx in placed if idx != k
        )
        p = job.known_length
        current_cost = others.added_measure(starts[job.id], starts[job.id] + p)
        best_s = starts[job.id]
        best_cost = current_cost
        for s in candidate_starts(job, others):
            cost = others.added_measure(s, s + p)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_s = s
        out.append(
            JobRegret(
                job_id=job.id,
                current_start=starts[job.id],
                best_start=best_s,
                regret=max(0.0, current_cost - best_cost),
            )
        )
    out.sort(key=lambda r: (-r.regret, r.job_id))
    return out


def total_regret(schedule: Schedule) -> float:
    """Sum of per-job regrets.

    Zero iff the schedule is a coordinate-wise (local-search) optimum.
    Note regrets are counterfactuals that don't compose — the sum is a
    diagnostic magnitude, not an achievable joint improvement.
    """
    return sum(r.regret for r in placement_regrets(schedule))
