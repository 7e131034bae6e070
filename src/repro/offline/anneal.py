"""Simulated-annealing span improver.

Local search (:func:`repro.offline.heuristics.local_search`) stops at
coordinate-wise optima; annealing escapes them by occasionally accepting
uphill moves.  The move set matches the structure of the problem:

* **re-place** — move one job to a random breakpoint candidate of the
  union of the others (the same candidate set local search uses);
* **jump** — move one job to a uniform random feasible start (rarely,
  for diversification).

Cooling is geometric; the incumbent (best-ever) schedule is returned, so
the result is never worse than the initial schedule.  Deterministic
given the seed.
"""

from __future__ import annotations

import math
from bisect import insort

import numpy as np

from ..core.intervalset import MutableIntervalSet
from ..core.schedule import Schedule
from .heuristics import candidate_starts

__all__ = ["anneal"]


def anneal(
    schedule: Schedule,
    *,
    iterations: int = 2000,
    initial_temperature: float | None = None,
    cooling: float = 0.995,
    jump_probability: float = 0.1,
    seed: int = 0,
) -> Schedule:
    """Anneal a feasible schedule; returns the best schedule found.

    Parameters
    ----------
    schedule:
        A feasible starting point (e.g. from ``greedy_overlap``).
    iterations:
        Proposal count.
    initial_temperature:
        Defaults to 5% of the initial span.
    cooling:
        Geometric decay factor per iteration (``0 < cooling < 1``).
    jump_probability:
        Fraction of proposals drawn uniformly from the window instead of
        the breakpoint candidates.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if not 0.0 < cooling < 1.0:
        raise ValueError("cooling must lie in (0, 1)")
    instance = schedule.instance
    jobs = list(instance.jobs)
    if len(jobs) < 2 or iterations == 0:
        return schedule

    rng = np.random.default_rng(seed)
    starts = schedule.starts()
    # Every job's run interval with its position in `jobs`, kept sorted
    # by start, so a union is one merging pass (as in local_search).
    placed = sorted(
        (starts[j.id], starts[j.id] + j.known_length, k) for k, j in enumerate(jobs)
    )

    def span_of() -> float:
        return MutableIntervalSet.from_sorted_pairs(
            (lo, hi) for lo, hi, _ in placed
        ).measure

    current_span = span_of()
    best_span = current_span
    best_starts = dict(starts)
    temperature = (
        initial_temperature
        if initial_temperature is not None
        else max(1e-9, 0.05 * current_span)
    )

    for _ in range(iterations):
        k = int(rng.integers(len(jobs)))
        job = jobs[k]
        # Degenerate window: the job cannot move.  Tolerance rather than
        # an exact float ==: laxity is a float subtraction, and perturbed
        # workloads produce windows of width ~1e-16 that are zero in
        # every sense that matters here (RL003).
        if job.laxity <= 1e-12:
            temperature *= cooling
            continue
        old = starts[job.id]
        p = job.known_length
        if rng.random() < jump_probability:
            proposal = float(rng.uniform(job.arrival, job.deadline))
        else:
            others = MutableIntervalSet.from_sorted_pairs(
                (lo, hi) for lo, hi, idx in placed if idx != k
            )
            cands = candidate_starts(job, others)
            proposal = float(cands[int(rng.integers(len(cands)))])
        starts[job.id] = proposal
        placed.remove((old, old + p, k))
        insort(placed, (proposal, proposal + p, k))
        new_span = span_of()
        delta = new_span - current_span
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-12)):
            current_span = new_span
            if new_span < best_span - 1e-12:
                best_span = new_span
                best_starts = dict(starts)
        else:
            starts[job.id] = old
            placed.remove((proposal, proposal + p, k))
            insort(placed, (old, old + p, k))
        temperature *= cooling

    return Schedule(instance, best_starts)
