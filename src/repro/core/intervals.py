"""Half-open interval algebra.

The paper (Section 2) works exclusively with half-open intervals
``I = [I^-, I^+)``; the span of a job set is the Lebesgue measure of the
union of the jobs' active intervals.  This module provides:

* :class:`Interval` — an immutable half-open interval with the paper's
  ``left``/``right`` endpoint accessors and ``len(I) = I^+ - I^-``.
* :class:`IntervalUnion` — a canonical (sorted, disjoint, merged) union of
  intervals supporting measure, membership, intersection, gaps and
  incremental insertion.  This is the workhorse behind every span
  computation in the library.
* :func:`union_measure` — a NumPy-vectorised union measure for large batch
  computations (the hot path identified in DESIGN.md), avoiding Python
  object overhead when measuring tens of thousands of intervals.

Intervals of zero length are *empty* (half-open), and are normalised away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Interval",
    "IntervalUnion",
    "union_measure",
    "merge_intervals",
]


@dataclass(frozen=True, slots=True, order=True)
class Interval:
    """A half-open interval ``[left, right)``.

    Instances are ordered lexicographically by ``(left, right)`` which is
    the order used throughout the library for deterministic processing.
    """

    left: float
    right: float

    def __post_init__(self) -> None:
        if math.isnan(self.left) or math.isnan(self.right):
            raise ValueError("interval endpoints must not be NaN")
        if self.right < self.left:
            raise ValueError(
                f"interval right endpoint {self.right} precedes left {self.left}"
            )

    @property
    def length(self) -> float:
        """``len(I) = I^+ - I^-`` in the paper's notation."""
        return self.right - self.left

    @property
    def empty(self) -> bool:
        """True when the interval contains no points (``left == right``)."""
        return self.right <= self.left

    def contains(self, t: float) -> bool:
        """Whether time ``t`` lies in ``[left, right)``."""
        return self.left <= t < self.right

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two half-open intervals share at least one point."""
        return self.left < other.right and other.left < self.right

    def touches_or_overlaps(self, other: "Interval") -> bool:
        """Whether the intervals overlap or abut (``[0,1)`` and ``[1,2)``)."""
        return self.left <= other.right and other.left <= self.right

    def intersection(self, other: "Interval") -> "Interval | None":
        """The common part of two intervals, or ``None`` when disjoint."""
        lo = max(self.left, other.left)
        hi = min(self.right, other.right)
        if hi <= lo:
            return None
        return Interval(lo, hi)

    def intersection_length(self, other: "Interval") -> float:
        """Measure of the overlap between two intervals (0 when disjoint)."""
        return max(0.0, min(self.right, other.right) - max(self.left, other.left))

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both intervals."""
        return Interval(min(self.left, other.left), max(self.right, other.right))

    def shift(self, delta: float) -> "Interval":
        """The interval translated by ``delta``."""
        return Interval(self.left + delta, self.right + delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.left:g}, {self.right:g})"


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Merge intervals into a sorted list of disjoint, non-abutting pieces.

    Abutting intervals (``[0,1)`` + ``[1,2)``) are coalesced since their
    union is connected.  Empty intervals are dropped.
    """
    pieces = sorted(iv for iv in intervals if not iv.empty)
    if not pieces:
        return []
    merged: list[Interval] = [pieces[0]]
    for iv in pieces[1:]:
        last = merged[-1]
        if iv.left <= last.right:
            if iv.right > last.right:
                merged[-1] = Interval(last.left, iv.right)
        else:
            merged.append(iv)
    return merged


class IntervalUnion:
    """A canonical union of half-open intervals.

    The union is stored as a sorted list of disjoint non-abutting
    :class:`Interval` components, so ``measure`` is a simple sum and
    membership queries are binary searches.  The structure is immutable
    from the caller's perspective: :meth:`union` and :meth:`insert`
    return new unions.  A caller that grows a union in place uses
    :class:`repro.core.intervalset.MutableIntervalSet` instead.
    """

    __slots__ = ("_components",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._components: list[Interval] = merge_intervals(intervals)

    # -- factory helpers -------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "IntervalUnion":
        """Build a union from ``(left, right)`` tuples."""
        return cls(Interval(lo, hi) for lo, hi in pairs)

    @classmethod
    def from_starts_lengths(
        cls, starts: Sequence[float], lengths: Sequence[float]
    ) -> "IntervalUnion":
        """Build a union of ``[s_i, s_i + p_i)`` intervals."""
        return cls(Interval(s, s + p) for s, p in zip(starts, lengths, strict=True))

    # -- inspection ------------------------------------------------------
    @property
    def components(self) -> tuple[Interval, ...]:
        """The maximal contiguous pieces, sorted left to right."""
        return tuple(self._components)

    @property
    def measure(self) -> float:
        """Total length of the union (the *span* when intervals are jobs)."""
        return sum(iv.length for iv in self._components)

    @property
    def empty(self) -> bool:
        return not self._components

    @property
    def left(self) -> float:
        """Leftmost covered point; raises on an empty union."""
        if not self._components:
            raise ValueError("empty union has no left endpoint")
        return self._components[0].left

    @property
    def right(self) -> float:
        """Supremum of covered points; raises on an empty union."""
        if not self._components:
            raise ValueError("empty union has no right endpoint")
        return self._components[-1].right

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(tuple(self._components))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = " ∪ ".join(repr(iv) for iv in self._components) or "∅"
        return f"IntervalUnion({inner})"

    def contains(self, t: float) -> bool:
        """Whether time ``t`` is covered by the union."""
        comp = self.component_at(t)
        return comp is not None

    def component_at(self, t: float) -> Interval | None:
        """The contiguous component covering ``t``, or ``None``.

        This implements the paper's ``I_S(J)`` lookup: the contiguous
        interval of a span that a given active interval falls in.
        """
        lo, hi = 0, len(self._components) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            comp = self._components[mid]
            if t < comp.left:
                hi = mid - 1
            elif t >= comp.right:
                lo = mid + 1
            else:
                return comp
        return None

    def intersection_length(self, interval: Interval) -> float:
        """Measure of ``union ∩ interval``."""
        return sum(c.intersection_length(interval) for c in self._components)

    def added_measure(self, interval: Interval) -> float:
        """How much the union's measure would grow by inserting ``interval``.

        Equal to ``len(interval) - len(union ∩ interval)``.  This is the
        quantity offline heuristics greedily minimise.
        """
        return interval.length - self.intersection_length(interval)

    def gaps(self) -> list[Interval]:
        """The maximal uncovered intervals strictly between components."""
        out: list[Interval] = []
        for a, b in zip(self._components, self._components[1:]):
            out.append(Interval(a.right, b.left))
        return out

    # -- algebra ---------------------------------------------------------
    def union(self, other: "IntervalUnion | Interval") -> "IntervalUnion":
        """Union with another union or a single interval."""
        if isinstance(other, Interval):
            extra: Iterable[Interval] = (other,)
        else:
            extra = other._components
        return IntervalUnion([*self._components, *extra])

    def insert(self, interval: Interval) -> "IntervalUnion":
        """Alias of :meth:`union` for a single interval (returns new union)."""
        return self.union(interval)

    def intersection(self, other: "IntervalUnion") -> "IntervalUnion":
        """Pointwise intersection of two unions (two-pointer sweep)."""
        out: list[Interval] = []
        i = j = 0
        a, b = self._components, other._components
        while i < len(a) and j < len(b):
            iv = a[i].intersection(b[j])
            if iv is not None:
                out.append(iv)
            if a[i].right <= b[j].right:
                i += 1
            else:
                j += 1
        return IntervalUnion(out)

    def key(self) -> tuple[tuple[float, float], ...]:
        """A hashable canonical key (used for solver memoisation)."""
        return tuple((c.left, c.right) for c in self._components)


def union_measure(starts: np.ndarray | Sequence[float], lengths: np.ndarray | Sequence[float]) -> float:
    """Measure of ``⋃ [s_i, s_i + p_i)`` computed with vectorised NumPy.

    This is the library's hot path for span computation over large
    schedules: sort by start, then a vectorised running-maximum sweep
    accumulates covered length without building Python objects.

    Parameters
    ----------
    starts, lengths:
        Equal-length arrays of interval starts and (non-negative) lengths.

    Returns
    -------
    float
        The Lebesgue measure of the union.
    """
    s = np.asarray(starts, dtype=np.float64)
    p = np.asarray(lengths, dtype=np.float64)
    if s.shape != p.shape:
        raise ValueError("starts and lengths must have identical shapes")
    if s.size == 0:
        return 0.0
    if np.any(p < 0):
        raise ValueError("interval lengths must be non-negative")
    order = np.argsort(s, kind="stable")
    s = s[order]
    e = s + p[order]
    # Running maximum of interval right-endpoints seen so far, *before*
    # each interval: the classic sweep  covered += max(0, e_i - max(s_i, reach)).
    reach = np.maximum.accumulate(e)
    prev_reach = np.empty_like(reach)
    prev_reach[0] = -np.inf
    prev_reach[1:] = reach[:-1]
    covered = np.maximum(0.0, e - np.maximum(s, prev_reach))
    return float(covered.sum())
