"""Exact offline optimum for FJS on integral instances.

Why integral?  For any instance whose arrivals, deadlines and lengths are
integers there exists an *integral* optimal schedule: fixing the
combinatorial overlap pattern of an optimal solution, the span is a
piecewise-linear function of the start vector over a polyhedron defined
by difference constraints (``s_j >= a_j``, ``s_j <= d_j``, and pairwise
ordering/abutment constraints with integer offsets ``p``), whose vertices
are integral; a linear objective over such a region attains its optimum
at a vertex.  Hence searching integer start times is exhaustive.

The solver is a depth-first branch-and-bound over jobs in arrival order
with memoisation:

* **State** — ``(next job index, frontier)`` where the *frontier* is the
  current busy-interval union clipped to ``[a_next, ∞)``.  Components
  ending at or before the next arrival can never overlap any future
  placement (future starts are >= their arrivals), so they are flushed
  into an accumulated cost and dropped from the state — this is what
  makes the memo table effective.
* **Branching** — every integer start in ``[a_j, d_j]``.
* **Bounding** — a branch is cut when its accumulated cost plus the
  remaining jobs' chain lower bound (computed once per suffix) cannot
  beat the incumbent; the incumbent is seeded with the best offline
  heuristic schedule.

For non-integral instances, :func:`exact_optimal_span` attempts an exact
rational rescaling (common denominator up to ``max_denominator``) before
giving up with :class:`SolverError`.

Complexity is exponential in the worst case — this solver targets the
small instances used for tight competitive-ratio measurement (roughly
``n <= 12`` with moderate windows); it enforces an explicit node budget.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ..core.errors import SolverError
from ..core.intervalset import MutableIntervalSet
from ..core.job import Instance, Job
from ..core.schedule import Schedule
from .heuristics import best_offline
from .lower_bounds import chain_lower_bound

__all__ = ["exact_optimal_span", "exact_optimal_schedule", "ExactResult"]

#: Default cap on explored search nodes before the solver refuses.
DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exact solver: the optimum and a witness schedule."""

    span: float
    schedule: Schedule
    nodes_explored: int
    memo_hits: int


def _integralize(instance: Instance, max_denominator: int) -> tuple[Instance, float]:
    """Rescale an instance so all times are integers.

    Returns ``(scaled instance, factor)`` with ``original = scaled / factor``.
    Raises :class:`SolverError` when no common denominator up to
    ``max_denominator`` exists.
    """
    if instance.is_integral:
        return instance, 1.0
    fracs: dict[int, tuple[Fraction, Fraction, Fraction]] = {}
    denoms: list[int] = []
    for job in instance:
        triple = []
        for value in (job.arrival, job.deadline, job.known_length):
            frac = Fraction(value).limit_denominator(max_denominator)
            if abs(float(frac) - value) > 1e-12 * max(1.0, abs(value)):
                raise SolverError(
                    f"instance {instance.name!r} is not integral and cannot "
                    f"be rescaled exactly (value {value} is not rational "
                    f"with denominator <= {max_denominator})"
                )
            denoms.append(frac.denominator)
            triple.append(frac)
        fracs[job.id] = (triple[0], triple[1], triple[2])
    q = lcm(*denoms) if denoms else 1
    if q > max_denominator:
        raise SolverError(
            f"instance {instance.name!r} needs denominator {q} > "
            f"{max_denominator} to become integral"
        )
    scaled_jobs = [
        Job(
            id=job.id,
            arrival=float(int(fracs[job.id][0] * q)),
            deadline=float(int(fracs[job.id][1] * q)),
            length=float(int(fracs[job.id][2] * q)),
            size=job.size,
        )
        for job in instance
    ]
    return Instance(scaled_jobs, name=f"{instance.name}/x{q}"), float(q)


def _frontier_key(
    union: MutableIntervalSet, cutoff: float
) -> tuple[tuple[tuple[float, float], ...], float]:
    """Clip a union at ``cutoff``: flush fully-past components into a cost.

    Returns ``(clipped component key, flushed measure)``.
    """
    kept: list[tuple[float, float]] = []
    flushed = 0.0
    for left, right in union.pairs():
        if right <= cutoff:
            flushed += right - left
        elif left < cutoff:
            flushed += cutoff - left
            kept.append((cutoff, right))
        else:
            kept.append((left, right))
    return tuple(kept), flushed


def _extend(
    key: tuple[tuple[float, float], ...], lo: float, hi: float
) -> MutableIntervalSet:
    """The clipped frontier ``key`` plus ``[lo, hi)``, merged in one pass.

    Not ``add``: a set built from sorted pairs sums its measure left to
    right over the components, while ``add`` updates it incrementally,
    which rounds differently on real-valued data and can flip a tie
    between two branches.
    """
    pairs = list(key)
    insort(pairs, (lo, hi))
    return MutableIntervalSet.from_sorted_pairs(pairs)


def exact_optimal_schedule(
    instance: Instance,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_denominator: int = 64,
) -> ExactResult:
    """Exact minimum-span schedule via branch-and-bound with memoisation.

    Raises
    ------
    SolverError
        If the instance cannot be made integral or the node budget is
        exhausted before the search completes.
    """
    if len(instance) == 0:
        empty = Schedule(instance, {})
        return ExactResult(span=0.0, schedule=empty, nodes_explored=0, memo_hits=0)

    scaled, factor = _integralize(instance, max_denominator)
    jobs = scaled.sorted_by_arrival()
    n = len(jobs)

    # Suffix chain lower bounds: bound[i] = chain LB over jobs[i:].  A
    # suffix's placements cost at least this much *in total measure*, but
    # may overlap the current frontier; subtracting the frontier's
    # remaining extent keeps the bound admissible.
    suffix_lb = [0.0] * (n + 1)
    for i in range(n):
        suffix_lb[i] = chain_lower_bound(
            Instance(jobs[i:], name="suffix")
        )

    # Incumbent: best offline heuristic (always feasible => upper bound).
    heuristic = best_offline(scaled)
    best_span = heuristic.span
    best_starts: dict[int, float] = heuristic.starts()

    memo: dict[tuple[int, tuple[tuple[float, float], ...]], float] = {}
    nodes = 0
    memo_hits = 0

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n * 10 + 1000))

    def solve(
        i: int, union: MutableIntervalSet, cost: float, starts: dict[int, float]
    ) -> None:
        """Explore placements for jobs[i:] given the frontier ``union``.

        ``cost`` is the measure already flushed (strictly to the left of
        every remaining window); ``union`` holds only components that can
        still interact with future jobs.
        """
        nonlocal nodes, memo_hits, best_span, best_starts
        if i == n:
            total = cost + union.measure
            if total < best_span - 1e-12:
                best_span = total
                best_starts = dict(starts)
            return

        job = jobs[i]
        key, flushed = _frontier_key(union, job.arrival)
        cost += flushed
        union = MutableIntervalSet.from_sorted_pairs(key)

        # Admissible bound: every frontier point already counts toward the
        # final measure, and the remaining jobs add at least
        # max(0, suffix chain LB - frontier measure) beyond it.
        frontier_measure = union.measure
        bound = cost + frontier_measure + max(0.0, suffix_lb[i] - frontier_measure)
        if bound >= best_span - 1e-12:
            return

        seen = memo.get((i, key))
        if seen is not None and seen <= cost + 1e-12:
            memo_hits += 1
            return
        memo[(i, key)] = cost

        nodes += 1
        if nodes > node_budget:
            raise SolverError(
                f"exact solver exceeded its node budget ({node_budget}); "
                "use span_lower_bound/best_offline for this instance size"
            )

        lo = int(job.arrival)
        hi = int(job.deadline)
        p = job.known_length
        # Order candidate starts by added measure (cheapest-first) so the
        # incumbent tightens early and the bound prunes more branches.
        candidates = sorted(
            range(lo, hi + 1),
            key=lambda s: (union.added_measure(s, s + p), -s),
        )
        for s in candidates:
            starts[job.id] = float(s)
            solve(i + 1, _extend(key, float(s), float(s) + p), cost, starts)
            del starts[job.id]

    try:
        solve(0, MutableIntervalSet(), 0.0, {})
    finally:
        sys.setrecursionlimit(old_limit)

    # Map starts back to the original time scale.
    starts_orig = {jid: s / factor for jid, s in best_starts.items()}
    schedule = Schedule(instance, starts_orig)
    return ExactResult(
        span=schedule.span,
        schedule=schedule,
        nodes_explored=nodes,
        memo_hits=memo_hits,
    )


def exact_optimal_span(
    instance: Instance,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_denominator: int = 64,
) -> float:
    """The exact minimum possible span (``span_min`` in the paper)."""
    return exact_optimal_schedule(
        instance, node_budget=node_budget, max_denominator=max_denominator
    ).span
