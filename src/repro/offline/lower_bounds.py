"""Certified lower bounds on the minimum possible span.

The paper's optimality arguments all rest on one observation (used in the
proofs of Theorems 3.4, 3.5, 4.4 and 4.11): if job ``j`` arrives no
earlier than job ``i``'s *latest possible completion* ``d(i) + p(i)``,
then no scheduler can overlap their active intervals, so any chain of
such pairwise-incompatible jobs contributes the **sum** of its processing
lengths to every schedule's span.

:class:`OnlineOptLowerBound` is the one implementation of that argument.
It folds jobs in one at a time and keeps the running max of three
quantities, each monotone nondecreasing as jobs are added:

* **chain bound** — the max-weight chain in the must-be-disjoint DAG
  (edge ``i → j`` iff ``a(j) >= d(i) + p(i)``, node weights ``p``).  A
  Pareto front of ``(latest_completion, best_chain_weight)`` pairs,
  strictly increasing in both coordinates, answers "best chain ending at
  latest-completion ``<= a``" with one bisect, then takes the extended
  chain and drops the entries it dominates: amortised ``O(log n)`` per
  job.  Fed in nondecreasing arrival order the front finds the maximum
  chain exactly (equal arrivals never chain onto each other, since
  ``a < d + p``); fed in any other order it stays sound, possibly
  weaker, because every predecessor it uses passed the disjointness
  test.
* **mandatory bound** — a job with ``laxity < p`` runs over ``[d, a+p)``
  in every feasible schedule, so the measure of the union of these
  windows (a :class:`~repro.core.intervalset.MutableIntervalSet`)
  lower-bounds every schedule's span.
* **max length** — a single running max (subsumed by the chain bound).

The offline bounds are folds of it over the instance in arrival order:
:func:`chain_lower_bound`, :func:`mandatory_lower_bound` and
:func:`span_lower_bound`, the certified lower bound used to report sound
competitive-ratio *upper estimates* on instances too large for the exact
solver.  The serving daemon's live telemetry
(:mod:`repro.obs.live`) keeps one per tenant and feeds it each release.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..core.intervalset import MutableIntervalSet
from ..core.job import Instance

__all__ = [
    "OnlineOptLowerBound",
    "chain_lower_bound",
    "mandatory_lower_bound",
    "span_lower_bound",
]


class OnlineOptLowerBound:
    """Monotone incremental lower bound on OPT's span (see module doc).

    ``add(arrival, deadline, length)`` folds one released job in;
    ``value`` only ever grows.  On a full instance fed in nondecreasing
    arrival order the bound is :func:`span_lower_bound`.
    """

    __slots__ = ("_lcs", "_vals", "chain", "max_length", "_mandatory")

    def __init__(self) -> None:
        # Pareto front: _lcs strictly increasing, _vals strictly increasing.
        self._lcs: list[float] = []
        self._vals: list[float] = []
        self.chain = 0.0
        self.max_length = 0.0
        self._mandatory = MutableIntervalSet()

    @property
    def mandatory(self) -> float:
        """The incremental mandatory-interval bound component."""
        return self._mandatory.measure

    @property
    def value(self) -> float:
        """The combined bound: max(chain, mandatory, max length)."""
        chain = self.chain
        mandatory = self._mandatory.measure
        best = chain if chain >= mandatory else mandatory
        return best if best >= self.max_length else self.max_length

    def add(self, arrival: float, deadline: float, length: float) -> None:
        """Fold one released job ``(a, d, p)`` into the bound."""
        if length > self.max_length:
            self.max_length = length
        if arrival + length > deadline:  # laxity < p: mandatory interval
            self._mandatory.add(deadline, arrival + length)
        lcs, vals = self._lcs, self._vals
        # Best chain whose last job completes by this arrival, extended.
        i = bisect_right(lcs, arrival) - 1
        cand = (vals[i] if i >= 0 else 0.0) + length
        if cand > self.chain:
            self.chain = cand
        lc = deadline + length
        # An entry completing no later than lc with a chain at least as
        # heavy dominates the new one (this covers an entry at lc itself).
        k = bisect_right(lcs, lc)
        if k > 0 and vals[k - 1] >= cand:
            return
        # Otherwise the new entry replaces the entries from lc on that
        # its chain dominates (an entry at lc itself among them).
        j = bisect_left(lcs, lc, 0, k)
        m = j
        n = len(lcs)
        while m < n and vals[m] <= cand:
            m += 1
        lcs[j:m] = [lc]
        vals[j:m] = [cand]

    def fold(self, now: float) -> None:
        """Drop what no job arriving at or after ``now`` can change.

        Valid only if every later :meth:`add` has ``arrival >= now`` (a
        served tenant at an idle instant).  Such an arrival chains onto
        every front entry with latest completion ``<= now``, and the
        heaviest of them wins, so the rest go; mandatory components
        ending before ``now`` cannot merge with a later window.  The
        bound and its components are unchanged, now and after.
        """
        self._mandatory.drop_before(now)
        k = bisect_right(self._lcs, now) - 1
        if k > 0:
            del self._lcs[:k]
            del self._vals[:k]


def _fold(instance: Instance) -> OnlineOptLowerBound:
    """The online bound after every job of ``instance``, in arrival order."""
    bound = OnlineOptLowerBound()
    for job in instance.sorted_by_arrival():
        bound.add(job.arrival, job.deadline, job.known_length)
    return bound


def chain_lower_bound(instance: Instance) -> float:
    """Maximum total length over chains of pairwise-unoverlappable jobs.

    A chain ``j_1, j_2, …, j_m`` with ``a(j_{l+1}) >= d(j_l) + p(j_l)``
    for every ``l`` satisfies ``span >= Σ p(j_l)`` under *any* scheduler,
    because each ``j_l`` must complete before ``j_{l+1}`` can even arrive.
    ``O(n log n)``.
    """
    return _fold(instance).chain


def mandatory_lower_bound(instance: Instance) -> float:
    """Measure of the union of the jobs' *mandatory intervals*.

    A job with ``laxity < p`` runs over ``[d, a+p)`` in **every** feasible
    schedule: its start ``s`` satisfies ``s <= d`` and ``s + p >= a + p``,
    so ``[d, a+p) ⊆ [s, s+p)`` regardless of the scheduler.  The union of
    these per-job mandatory intervals is therefore contained in every
    schedule's busy time, and its measure lower-bounds ``span_min``.

    Complementary to the chain bound: strong for laxity-poor (rigid-ish)
    workloads where chains are short, vacuous when laxity >= p everywhere.
    """
    return _fold(instance).mandatory


def span_lower_bound(instance: Instance) -> float:
    """The strongest certified lower bound on ``span_min``:
    ``max(chain bound, mandatory bound, max_j p(j))``.

    The chain bound subsumes ``max p`` (single-job chains); the mandatory
    bound is independent of both and dominates on low-laxity workloads.
    """
    return _fold(instance).value
