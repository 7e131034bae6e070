"""Offline heuristics: good feasible schedules (upper bounds on OPT).

With full hindsight, placing a job to maximise overlap with already
placed work is a natural greedy.  For a single interval of length ``p``
against a fixed union, the *added measure* as a function of the start
``s`` is piecewise linear with breakpoints where ``s`` or ``s + p``
crosses a union component endpoint — so only the window ends and
``{e, e - p}`` for each endpoint ``e`` need to be evaluated
(:func:`candidate_starts`).

Provided heuristics:

* :func:`greedy_overlap` — place jobs one at a time (deadline or arrival
  order), each at its added-measure-minimising candidate (ties resolved
  towards the latest start, preserving future flexibility … for the
  already-placed union the tie is span-neutral).
* :func:`local_search` — coordinate descent: re-place one job at a time
  against the union of the others until a fixpoint or sweep budget.
* :func:`best_offline` — best of several greedy orders, each refined by
  local search.  Always feasible, hence a certified *upper* bound on the
  optimal span (and the exact solver's incumbent seed).
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Literal

from ..core.intervalset import MutableIntervalSet
from ..core.job import Instance, Job
from ..core.schedule import Schedule

__all__ = [
    "candidate_starts",
    "greedy_overlap",
    "local_search",
    "best_offline",
    "best_offline_span",
]


def candidate_starts(job: Job, union: MutableIntervalSet) -> list[float]:
    """Start times sufficient to minimise added measure for ``job``.

    The added measure ``s ↦ len([s, s+p) \\ union)`` is piecewise linear
    in ``s`` with breakpoints at component endpoints ``e`` (where ``s``
    crosses ``e``) and at ``e - p`` (where ``s + p`` crosses ``e``); its
    minimum over the window ``[a, d]`` is attained at a breakpoint or a
    window end.  Only endpoints ``e ∈ [a, d + p]`` give a breakpoint
    inside the window, so only the components meeting ``[a - p, d + p]``
    are read.
    """
    a, d, p = job.arrival, job.deadline, job.known_length
    cands = {a, d}
    for left, right in union.components_overlapping(a - p, d + p):
        for e in (left, right):
            for s in (e, e - p):
                if a <= s <= d:
                    cands.add(s)
    return sorted(cands)


def greedy_overlap(
    instance: Instance,
    order: Literal["deadline", "arrival", "length"] = "deadline",
) -> Schedule:
    """Greedy placement minimising incremental span, in the given order.

    ``order`` picks the processing sequence: ``"deadline"`` (default,
    mirrors the online flag structure), ``"arrival"``, or ``"length"``
    (longest first — long jobs anchor the busy periods short ones tuck
    into).
    """
    if order == "deadline":
        jobs: Iterable[Job] = instance.sorted_by_deadline()
    elif order == "arrival":
        jobs = instance.sorted_by_arrival()
    elif order == "length":
        jobs = sorted(
            instance.jobs, key=lambda j: (-j.known_length, j.deadline, j.id)
        )
    else:
        raise ValueError(f"unknown order {order!r}")

    # The accumulating union is a MutableIntervalSet: added-measure
    # queries and inserts are O(log n + k), and candidate endpoints come
    # only from components near the job's window — this is what keeps
    # the heuristic fast on 10^4-job instances (E11).
    mset = MutableIntervalSet()
    starts: dict[int, float] = {}
    for job in jobs:
        s = _best_start_fast(job, mset)
        starts[job.id] = s
        mset.add(s, s + job.known_length)
    return Schedule(instance, starts)


def _best_start_fast(job: Job, mset: MutableIntervalSet) -> float:
    """The added-measure-minimising start against ``mset`` (ties -> latest)."""
    d, p = job.deadline, job.known_length
    best_s = d
    best_cost = mset.added_measure(d, d + p)
    for s in candidate_starts(job, mset):
        cost = mset.added_measure(s, s + p)
        if cost < best_cost - 1e-12 or (cost <= best_cost + 1e-12 and s > best_s):
            best_cost = cost
            best_s = s
    return best_s


def local_search(schedule: Schedule, max_sweeps: int = 20) -> Schedule:
    """Coordinate-descent refinement of a feasible schedule.

    Each sweep re-places every job optimally against the union of the
    others; stops at a fixpoint (no job moved) or after ``max_sweeps``.
    The span never increases.
    """
    instance = schedule.instance
    starts = schedule.starts()
    jobs = list(instance.jobs)
    # Every job's run interval with its position in `jobs`, kept sorted
    # by start, so the other jobs' union is one merging pass that skips
    # the job's own entry.
    placed = sorted(
        (starts[j.id], starts[j.id] + j.known_length, k) for k, j in enumerate(jobs)
    )
    for _ in range(max_sweeps):
        moved = False
        for k, job in enumerate(jobs):
            others = MutableIntervalSet.from_sorted_pairs(
                (lo, hi) for lo, hi, idx in placed if idx != k
            )
            s = _best_start_fast(job, others)
            old = starts[job.id]
            p = job.known_length
            # Tolerance, not exact float !=: `s` comes from endpoint
            # arithmetic over the other jobs' intervals, so a no-op move
            # can differ from the stored start by ULPs; treating that as
            # "moved" would defeat fixpoint detection (RL003).
            if abs(s - old) > 1e-12:
                old_cost = others.added_measure(old, old + p)
                new_cost = others.added_measure(s, s + p)
                if new_cost < old_cost - 1e-12:
                    starts[job.id] = s
                    placed.remove((old, old + p, k))
                    insort(placed, (s, s + p, k))
                    moved = True
        if not moved:
            break
    return Schedule(instance, starts)


def best_offline(instance: Instance, max_sweeps: int = 20) -> Schedule:
    """Best feasible schedule across greedy orders + local search.

    A certified **upper** bound on the optimal span.
    """
    if len(instance) == 0:
        return Schedule(instance, {})
    best: Schedule | None = None
    for order in ("deadline", "arrival", "length"):
        candidate = local_search(greedy_overlap(instance, order), max_sweeps)
        if best is None or candidate.span < best.span:
            best = candidate
    assert best is not None
    return best


def best_offline_span(instance: Instance, max_sweeps: int = 20) -> float:
    """Span of :func:`best_offline` (upper bound on ``span_min``)."""
    return best_offline(instance, max_sweeps).span
