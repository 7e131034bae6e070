"""Unit tests for the half-open interval algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.intervals import (
    Interval,
    IntervalUnion,
    merge_intervals,
    union_measure,
)
from repro.core.intervalset import MutableIntervalSet


class TestInterval:
    def test_length(self):
        assert Interval(1.0, 3.5).length == 2.5

    def test_empty_interval(self):
        assert Interval(2.0, 2.0).empty
        assert not Interval(2.0, 2.1).empty

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            Interval(3.0, 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_contains_half_open(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0)
        assert iv.contains(1.999)
        assert not iv.contains(2.0)  # right end excluded
        assert not iv.contains(0.999)

    def test_overlaps(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))
        assert not Interval(0, 2).overlaps(Interval(2, 3))  # abutting
        assert not Interval(0, 1).overlaps(Interval(2, 3))

    def test_touches_or_overlaps(self):
        assert Interval(0, 2).touches_or_overlaps(Interval(2, 3))
        assert not Interval(0, 1).touches_or_overlaps(Interval(2, 3))

    def test_intersection(self):
        assert Interval(0, 3).intersection(Interval(2, 5)) == Interval(2, 3)
        assert Interval(0, 2).intersection(Interval(2, 5)) is None

    def test_intersection_length(self):
        assert Interval(0, 3).intersection_length(Interval(2, 5)) == 1.0
        assert Interval(0, 1).intersection_length(Interval(3, 5)) == 0.0

    def test_hull(self):
        assert Interval(0, 1).hull(Interval(4, 5)) == Interval(0, 5)

    def test_shift(self):
        assert Interval(1, 2).shift(2.5) == Interval(3.5, 4.5)

    def test_ordering(self):
        assert Interval(0, 5) < Interval(1, 2)
        assert Interval(0, 1) < Interval(0, 2)


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_drops_empty_intervals(self):
        assert merge_intervals([Interval(1, 1), Interval(2, 3)]) == [Interval(2, 3)]

    def test_merges_overlapping(self):
        merged = merge_intervals([Interval(0, 2), Interval(1, 4)])
        assert merged == [Interval(0, 4)]

    def test_merges_abutting(self):
        merged = merge_intervals([Interval(0, 2), Interval(2, 3)])
        assert merged == [Interval(0, 3)]

    def test_keeps_disjoint(self):
        merged = merge_intervals([Interval(5, 6), Interval(0, 1)])
        assert merged == [Interval(0, 1), Interval(5, 6)]

    def test_nested(self):
        merged = merge_intervals([Interval(0, 10), Interval(2, 3), Interval(4, 5)])
        assert merged == [Interval(0, 10)]


class TestIntervalUnion:
    def test_measure_empty(self):
        assert IntervalUnion().measure == 0.0
        assert IntervalUnion().empty

    def test_measure_merged(self):
        u = IntervalUnion([Interval(0, 2), Interval(1, 3), Interval(5, 6)])
        assert u.measure == 4.0
        assert len(u) == 2

    def test_left_right(self):
        u = IntervalUnion([Interval(1, 2), Interval(5, 7)])
        assert u.left == 1.0
        assert u.right == 7.0

    def test_left_of_empty_raises(self):
        with pytest.raises(ValueError):
            IntervalUnion().left

    def test_added_measure(self):
        u = IntervalUnion([Interval(0, 2)])
        s = MutableIntervalSet.from_sorted_pairs((c.left, c.right) for c in u)
        assert s.added_measure(1, 4) == 2.0
        assert s.added_measure(0, 2) == 0.0

    def test_equality_and_hash(self):
        a = IntervalUnion([Interval(0, 1), Interval(1, 2)])
        b = IntervalUnion([Interval(0, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_from_starts_lengths(self):
        u = IntervalUnion.from_starts_lengths([0, 3], [2, 1])
        assert u.measure == 3.0


class TestUnionMeasure:
    def test_empty(self):
        assert union_measure([], []) == 0.0

    def test_single(self):
        assert union_measure([1.0], [2.0]) == 2.0

    def test_overlapping(self):
        assert union_measure([0, 1], [2, 2]) == 3.0

    def test_nested(self):
        assert union_measure([0, 1], [10, 1]) == 10.0

    def test_disjoint(self):
        assert union_measure([0, 5], [1, 1]) == 2.0

    def test_zero_lengths(self):
        assert union_measure([0, 0], [0, 0]) == 0.0

    def test_unsorted_input(self):
        assert union_measure([5, 0], [1, 1]) == 2.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            union_measure([0, 1], [1])

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            union_measure([0], [-1])

    def test_matches_interval_union(self):
        rng = np.random.default_rng(7)
        starts = rng.uniform(0, 100, 200)
        lengths = rng.uniform(0, 10, 200)
        expected = IntervalUnion.from_starts_lengths(starts, lengths).measure
        assert union_measure(starts, lengths) == pytest.approx(expected)
