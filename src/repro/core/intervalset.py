"""A mutable interval set with logarithmic overlap queries.

:class:`MutableIntervalSet` keeps a union of half-open intervals in
canonical form (sorted, disjoint, non-abutting components) and grows it
in place.  It is the library's one structure for building or querying a
union; :class:`~repro.core.intervals.IntervalUnion` is only the
immutable snapshot :meth:`MutableIntervalSet.to_union` returns.  Its
users:

* the coverage schedulers (``Doubler``, ``GreedyCover``, ``WaitScale``)
  grow their committed busy time job by job and ask how much of a
  prospective run it already covers;
* the offline heuristics (``greedy_overlap`` grows the placed union;
  ``local_search``, ``anneal`` and ``placement_regrets`` re-place a job
  against the other jobs' set) and the frontier solvers (``exact``,
  ``exact_float``, ``beam``), which clip a frontier and extend it by one
  placement per branch;
* :class:`~repro.offline.lower_bounds.OnlineOptLowerBound` (the
  mandatory-interval union) and the live telemetry's observed span,
  which drop their past components when a served tenant folds;
* a folded stream's dropped job ids, as runs ``[first, last + 1)`` of
  consecutive ids (point membership with ``in``).

Costs:

* ``add(lo, hi)``     — amortised O(log n + k) for k merged components;
* ``from_sorted_pairs`` — O(n) for n pairs already sorted by start;
* ``intersection_length``, ``added_measure`` — O(log n + k) for k
  components met;
* ``measure``         — O(1) (maintained incrementally);
* ``x in set``        — O(log n).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator

from .intervals import Interval, IntervalUnion

__all__ = ["MutableIntervalSet"]


class MutableIntervalSet:
    """Sorted disjoint half-open intervals with in-place insertion."""

    __slots__ = ("_lefts", "_rights", "_measure")

    def __init__(self) -> None:
        self._lefts: list[float] = []
        self._rights: list[float] = []
        self._measure = 0.0

    @classmethod
    def from_sorted_pairs(
        cls, pairs: Iterable[tuple[float, float]]
    ) -> "MutableIntervalSet":
        """The set of ``(lo, hi)`` pairs given in nondecreasing ``lo``.

        One merging pass, no sort: each pair extends the last component
        when it overlaps or abuts it, else opens a new one.  Empty pairs
        (``hi <= lo``) are dropped, as :meth:`add` drops them.
        """
        out = cls()
        lefts, rights = out._lefts, out._rights
        for lo, hi in pairs:
            if hi <= lo:
                continue
            if rights and lo <= rights[-1]:
                if hi > rights[-1]:
                    rights[-1] = hi
            else:
                lefts.append(lo)
                rights.append(hi)
        out._measure = sum((r - l for l, r in zip(lefts, rights)), 0.0)
        return out

    # -- mutation -----------------------------------------------------------
    def add(self, lo: float, hi: float) -> float:
        """Insert ``[lo, hi)``; returns the measure actually added.

        Overlapping/abutting components are merged.
        """
        if hi <= lo:
            return 0.0
        lefts, rights = self._lefts, self._rights
        # components with right >= lo can merge on the left side …
        i = bisect_left(rights, lo)
        # … components with left <= hi can merge on the right side.
        j = bisect_right(lefts, hi)
        if i >= j:
            # no overlap/abutment: pure insertion between i-1 and i
            lefts.insert(i, lo)
            rights.insert(i, hi)
            self._measure += hi - lo
            return hi - lo
        new_lo = min(lo, lefts[i])
        new_hi = max(hi, rights[j - 1])
        removed = sum(rights[k] - lefts[k] for k in range(i, j))
        del lefts[i:j]
        del rights[i:j]
        lefts.insert(i, new_lo)
        rights.insert(i, new_hi)
        added = (new_hi - new_lo) - removed
        self._measure += added
        return added

    def drop_before(self, t: float) -> list[tuple[float, float]]:
        """Remove the components ending strictly before ``t``; returns them.

        ``measure`` keeps counting them.  A later :meth:`add` whose
        ``lo`` is at least ``t`` grows the measure exactly as it would
        have with them kept: it can neither overlap nor abut them (a
        component ending at ``t`` itself stays, because it could).
        """
        k = bisect_left(self._rights, t)
        dropped = list(zip(self._lefts[:k], self._rights[:k]))
        del self._lefts[:k]
        del self._rights[:k]
        return dropped

    # -- queries --------------------------------------------------------------
    @property
    def measure(self) -> float:
        return self._measure

    def __len__(self) -> int:
        return len(self._lefts)

    def __iter__(self) -> Iterator[Interval]:
        for lo, hi in zip(self._lefts, self._rights):
            yield Interval(lo, hi)

    def __contains__(self, x: float) -> bool:
        """Whether the point ``x`` lies in a component."""
        rights = self._rights
        if not rights or x >= rights[-1]:
            return False  # past the last component: no bisect
        i = bisect_right(self._lefts, x) - 1
        return i >= 0 and x < rights[i]

    def pairs(self) -> Iterator[tuple[float, float]]:
        """The components as ``(left, right)`` pairs, left to right."""
        return zip(self._lefts, self._rights)

    def intersection_length(
        self, lo: float, hi: float, total: float = 0.0
    ) -> float:
        """Measure of the overlap with ``[lo, hi)``, added onto ``total``.

        The components add left to right, so a caller that dropped
        components (:meth:`drop_before`) and kept their running sum as
        ``total`` gets the sum it would have had with them kept.
        """
        if hi <= lo or not self._lefts:
            return total
        lefts, rights = self._lefts, self._rights
        i = bisect_right(rights, lo)
        while i < len(lefts) and lefts[i] < hi:
            total += min(hi, rights[i]) - max(lo, lefts[i])
            i += 1
        return total

    def added_measure(self, lo: float, hi: float) -> float:
        """How much :meth:`add` of ``[lo, hi)`` would grow the measure."""
        if hi <= lo:
            return 0.0
        return (hi - lo) - self.intersection_length(lo, hi)

    def components_overlapping(
        self, lo: float, hi: float
    ) -> Iterator[tuple[float, float]]:
        """``(left, right)`` of the components meeting the *closed* range
        ``[lo, hi]``.

        Uses the closed range (not half-open) because callers enumerate
        candidate endpoints, where touching counts.
        """
        lefts, rights = self._lefts, self._rights
        i = bisect_left(rights, lo)
        while i < len(lefts) and lefts[i] <= hi:
            yield lefts[i], rights[i]
            i += 1

    def to_union(self) -> IntervalUnion:
        """An immutable snapshot."""
        return IntervalUnion.from_pairs(zip(self._lefts, self._rights))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MutableIntervalSet({len(self)} components, measure={self._measure:g})"
