"""Half-open interval algebra.

The paper (Section 2) works exclusively with half-open intervals
``I = [I^-, I^+)``; the span of a job set is the Lebesgue measure of the
union of the jobs' active intervals.  This module provides:

* :class:`Interval` — an immutable half-open interval with the paper's
  ``left``/``right`` endpoint accessors and ``len(I) = I^+ - I^-``.
* :class:`IntervalUnion` — an immutable, hashable snapshot of a union in
  canonical form (sorted, disjoint, merged components) with its measure.
  It is what a finished schedule reports (``Schedule.active_union``,
  ``metrics.busy_union``), what ``audit`` and the DBP bins measure, and
  what :meth:`repro.core.intervalset.MutableIntervalSet.to_union`
  returns.  Code that grows a union or queries overlaps uses
  :class:`~repro.core.intervalset.MutableIntervalSet`.
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
from numpy.typing import NDArray

__all__ = [
    "Interval",
    "IntervalUnion",
    "union_measure",
    "covered_lengths",
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
    """An immutable canonical union of half-open intervals.

    The union is stored as a sorted list of disjoint non-abutting
    :class:`Interval` components, so ``measure`` is a simple sum and two
    unions are equal exactly when their components are.  It is a
    snapshot: a caller that grows a union or asks how an interval
    overlaps it uses :class:`repro.core.intervalset.MutableIntervalSet`.
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
    return float(covered_lengths(s, p).sum())


def covered_lengths(
    s: NDArray[np.float64], p: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Each interval's newly covered length, in (stable) start order.

    The sweep behind :func:`union_measure`, whose result is the
    (pairwise) ``sum`` of this array.  ``s`` and ``p`` are non-empty
    float64 arrays of one shape.  When every interval of one group ends
    no later than every interval of a second group starts, the array of
    both
    is the first group's array followed by the second's, so a streaming
    engine that folds its past keeps these values and sums the
    concatenation at the end, bit-identical to one call over all rows.
    """
    order = np.argsort(s, kind="stable")
    s = s[order]
    e = s + p[order]
    # Running maximum of interval right-endpoints seen so far, *before*
    # each interval: the classic sweep  covered += max(0, e_i - max(s_i, reach)).
    reach = np.maximum.accumulate(e)
    prev_reach = np.empty_like(reach)
    prev_reach[0] = -np.inf
    prev_reach[1:] = reach[:-1]
    covered: NDArray[np.float64] = np.maximum(0.0, e - np.maximum(s, prev_reach))
    return covered
