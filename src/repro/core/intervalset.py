"""A mutable interval set with logarithmic point/overlap queries.

:class:`IntervalUnion` is immutable — every insert copies the component
list, which is the right trade-off for schedule snapshots but quadratic
when a caller grows a union one interval at a time, or rebuilds one per
query.  :class:`MutableIntervalSet` maintains the same canonical form
(sorted, disjoint, non-abutting, half-open components) in place.  Its
users are the offline heuristics (``greedy_overlap`` grows the placed
union job by job; ``local_search`` re-places each job against the other
jobs' set) and the live telemetry plane (a tenant's observed span and
the mandatory part of its online OPT lower bound):

* ``add(lo, hi)``     — amortised O(log n + k) for k merged components;
* ``from_sorted_pairs`` — O(n) for n pairs already sorted by start;
* ``covers``, ``intersection_length``, ``added_measure`` — O(log n + k);
* ``measure``         — O(1) (maintained incrementally).

The set is behaviourally equivalent to rebuilding an ``IntervalUnion``
from the same inserts (the property suite asserts this), so callers can
pick by mutability need alone.
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

    def add_interval(self, iv: Interval) -> float:
        """Insert an :class:`Interval`; returns the measure added."""
        return self.add(iv.left, iv.right)

    # -- queries --------------------------------------------------------------
    @property
    def measure(self) -> float:
        return self._measure

    def __len__(self) -> int:
        return len(self._lefts)

    def __iter__(self) -> Iterator[Interval]:
        for lo, hi in zip(self._lefts, self._rights):
            yield Interval(lo, hi)

    def covers(self, t: float) -> bool:
        """Whether ``t`` lies in some component (half-open)."""
        i = bisect_right(self._lefts, t) - 1
        return i >= 0 and t < self._rights[i]

    def intersection_length(self, lo: float, hi: float) -> float:
        """Measure of the overlap with ``[lo, hi)``."""
        if hi <= lo or not self._lefts:
            return 0.0
        lefts, rights = self._lefts, self._rights
        i = bisect_right(rights, lo)
        total = 0.0
        while i < len(lefts) and lefts[i] < hi:
            total += min(hi, rights[i]) - max(lo, lefts[i])
            i += 1
        return total

    def added_measure(self, lo: float, hi: float) -> float:
        """How much :meth:`add` of ``[lo, hi)`` would grow the measure."""
        if hi <= lo:
            return 0.0
        return (hi - lo) - self.intersection_length(lo, hi)

    def covers_interval(self, lo: float, hi: float, tol: float = 1e-12) -> bool:
        """Whether ``[lo, hi)`` is fully covered (up to ``tol``)."""
        return self.intersection_length(lo, hi) >= (hi - lo) - tol

    def components_overlapping(self, lo: float, hi: float) -> Iterator[Interval]:
        """Components intersecting the *closed* range ``[lo, hi]``.

        Uses the closed range (not half-open) because callers enumerate
        candidate endpoints, where touching counts.
        """
        if not self._lefts:
            return
        lefts, rights = self._lefts, self._rights
        i = bisect_left(rights, lo)
        while i < len(lefts) and lefts[i] <= hi:
            yield Interval(lefts[i], rights[i])
            i += 1

    def to_union(self) -> IntervalUnion:
        """An immutable snapshot."""
        return IntervalUnion.from_pairs(zip(self._lefts, self._rights))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MutableIntervalSet({len(self)} components, measure={self._measure:g})"
