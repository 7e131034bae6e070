"""Beam-search offline scheduling: between greedy and exact.

The greedy heuristic commits each job to its locally best start; the
exact solver explores everything.  Beam search keeps the ``width`` most
promising partial schedules per step, where a partial schedule's
priority is its flushed-plus-frontier measure plus the chain lower bound
of the remaining suffix (the same admissible bound the exact solver
prunes with).  With ``width=1`` it degenerates to greedy placement in
arrival order; widening the beam monotonically improves the expected
result at linear cost in ``width``.

Used by :func:`repro.offline.heuristics.best_offline` callers needing a
stronger upper bound than greedy + local search, and compared against
exact optima in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.intervalset import MutableIntervalSet
from ..core.job import Instance
from ..core.schedule import Schedule
from .exact import _extend, _frontier_key
from .heuristics import candidate_starts
from .lower_bounds import chain_lower_bound

__all__ = ["beam_search_schedule", "beam_search_span"]


@dataclass(frozen=True)
class _Partial:
    """A partial placement: flushed cost, frontier, and starts so far."""

    cost: float
    frontier: MutableIntervalSet
    starts: tuple[tuple[int, float], ...]

    def priority(self, suffix_lb: float) -> float:
        frontier_measure = self.frontier.measure
        return (
            self.cost
            + frontier_measure
            + max(0.0, suffix_lb - frontier_measure)
        )


def beam_search_schedule(
    instance: Instance, width: int = 8, branch: int = 6
) -> Schedule:
    """Beam search over per-job candidate starts.

    Parameters
    ----------
    width:
        Beam width (partial schedules retained per step).
    branch:
        Maximum candidate starts expanded per job per partial (the
        cheapest-added-measure candidates are tried first).
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    if branch < 1:
        raise ValueError("branch must be at least 1")
    if len(instance) == 0:
        return Schedule(instance, {})

    jobs = instance.sorted_by_arrival()
    n = len(jobs)
    suffix_lb = [
        chain_lower_bound(Instance(jobs[i:], name="suffix")) for i in range(n)
    ] + [0.0]

    beam: list[_Partial] = [
        _Partial(cost=0.0, frontier=MutableIntervalSet(), starts=())
    ]
    for i, job in enumerate(jobs):
        p = job.known_length
        expanded: dict[tuple[tuple[float, float], ...], _Partial] = {}
        for partial in beam:
            key, flushed = _frontier_key(partial.frontier, job.arrival)
            frontier = MutableIntervalSet.from_sorted_pairs(key)
            cost = partial.cost + flushed
            cands = sorted(
                candidate_starts(job, frontier),
                key=lambda s: (frontier.added_measure(s, s + p), -s),
            )[:branch]
            for s in cands:
                new_frontier = _extend(key, s, s + p)
                child = _Partial(
                    cost=cost,
                    frontier=new_frontier,
                    starts=partial.starts + ((job.id, s),),
                )
                # Deduplicate by frontier shape: among equal frontiers
                # only the cheapest flushed cost can lead anywhere better.
                dkey = tuple(new_frontier.pairs())
                seen = expanded.get(dkey)
                if seen is None or child.cost < seen.cost:
                    expanded[dkey] = child
        pool = sorted(
            expanded.values(), key=lambda c: c.priority(suffix_lb[i + 1])
        )
        beam = pool[:width]

    best = min(beam, key=lambda c: c.cost + c.frontier.measure)
    return Schedule(instance, dict(best.starts))


def beam_search_span(instance: Instance, width: int = 8, branch: int = 6) -> float:
    """Span of the beam-search schedule (an upper bound on OPT)."""
    return beam_search_schedule(instance, width, branch).span
