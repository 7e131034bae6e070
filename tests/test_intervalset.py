"""Unit + property tests for the mutable interval set."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval, IntervalUnion
from repro.core.intervalset import MutableIntervalSet

finite = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
lengths = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestBasics:
    def test_empty(self):
        s = MutableIntervalSet()
        assert s.measure == 0.0
        assert len(s) == 0
        assert list(s.pairs()) == []

    def test_single_add(self):
        s = MutableIntervalSet()
        assert s.add(1.0, 3.0) == 2.0
        assert s.measure == 2.0
        assert list(s.pairs()) == [(1.0, 3.0)]

    def test_zero_width_ignored(self):
        s = MutableIntervalSet()
        assert s.add(1.0, 1.0) == 0.0
        assert len(s) == 0

    def test_disjoint_inserts_sorted(self):
        s = MutableIntervalSet()
        s.add(5.0, 6.0)
        s.add(1.0, 2.0)
        s.add(3.0, 4.0)
        assert [(iv.left, iv.right) for iv in s] == [(1, 2), (3, 4), (5, 6)]
        assert s.measure == 3.0

    def test_overlap_merge(self):
        s = MutableIntervalSet()
        s.add(0.0, 2.0)
        added = s.add(1.0, 4.0)
        assert added == 2.0
        assert len(s) == 1
        assert s.measure == 4.0

    def test_abutting_merge(self):
        s = MutableIntervalSet()
        s.add(0.0, 1.0)
        s.add(1.0, 2.0)
        assert len(s) == 1
        assert s.measure == 2.0

    def test_bridging_merge(self):
        s = MutableIntervalSet()
        s.add(0.0, 1.0)
        s.add(2.0, 3.0)
        s.add(4.0, 5.0)
        added = s.add(0.5, 4.5)
        assert len(s) == 1
        assert s.measure == 5.0
        assert added == pytest.approx(2.0)

    def test_contained_add_is_free(self):
        s = MutableIntervalSet()
        s.add(0.0, 10.0)
        assert s.add(2.0, 5.0) == 0.0
        assert len(s) == 1

    def test_intersection_length(self):
        s = MutableIntervalSet()
        s.add(0.0, 2.0)
        s.add(4.0, 6.0)
        assert s.intersection_length(1.0, 5.0) == pytest.approx(2.0)
        assert s.intersection_length(2.0, 4.0) == 0.0

    def test_added_measure_matches_add(self):
        s = MutableIntervalSet()
        s.add(0.0, 2.0)
        predicted = s.added_measure(1.0, 5.0)
        actual = s.add(1.0, 5.0)
        assert predicted == pytest.approx(actual)

    def test_components_overlapping_counts_touching(self):
        """The query range is closed: components that only touch it count."""
        s = MutableIntervalSet.from_sorted_pairs(
            [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0, 7.0)]
        )
        assert list(s.components_overlapping(3.0, 4.0)) == [(2.0, 3.0), (4.0, 5.0)]
        assert list(s.components_overlapping(1.5, 1.9)) == []
        assert list(s.components_overlapping(-1.0, 10.0)) == list(s.pairs())

    def test_from_sorted_pairs(self):
        """Abutting and overlapping pairs merge; empty pairs drop out."""
        s = MutableIntervalSet.from_sorted_pairs(
            [(0.0, 1.0), (1.0, 2.0), (1.5, 1.5), (1.5, 1.8), (3.0, 4.0), (3.5, 5.0)]
        )
        assert [(c.left, c.right) for c in s] == [(0.0, 2.0), (3.0, 5.0)]
        assert s.measure == 4.0

    def test_to_union_snapshot(self):
        s = MutableIntervalSet()
        s.add(0.0, 1.0)
        s.add(3.0, 4.0)
        u = s.to_union()
        assert u == IntervalUnion([Interval(0, 1), Interval(3, 4)])


def snapshot(pairs: list[tuple[float, float]]) -> IntervalUnion:
    """The reference: the sort-and-merge constructor over every pair."""
    return IntervalUnion(Interval(lo, lo + w) for lo, w in pairs)


def snapshot_overlap(union: IntervalUnion, lo: float, hi: float) -> float:
    """Reference overlap: every snapshot component against ``[lo, hi)``."""
    return sum(c.intersection_length(Interval(lo, hi)) for c in union)


class TestEquivalenceProperty:
    @given(
        st.lists(st.tuples(finite, lengths), max_size=40),
    )
    @settings(max_examples=60)
    def test_matches_interval_union(self, pairs):
        """The mutable set agrees with the snapshot rebuilt from every
        insert so far: same components, same measure, same added
        measures."""
        s = MutableIntervalSet()
        for k, (lo, w) in enumerate(pairs):
            before = snapshot(pairs[:k])
            after = snapshot(pairs[: k + 1])
            predicted = s.added_measure(lo, lo + w)
            assert predicted == pytest.approx(
                after.measure - before.measure, abs=1e-6
            )
            s.add(lo, lo + w)
            assert s.to_union() == after
        assert s.measure == pytest.approx(snapshot(pairs).measure, abs=1e-6)

    @given(
        st.lists(st.tuples(finite, lengths), max_size=30),
        finite,
        lengths,
    )
    @settings(max_examples=60)
    def test_intersection_length_matches(self, pairs, lo, w):
        """Only the components near ``[lo, lo + w)`` are read; the sum
        over every snapshot component gives the same value exactly."""
        s = MutableIntervalSet()
        for a, b in pairs:
            s.add(a, a + b)
        assert s.intersection_length(lo, lo + w) == snapshot_overlap(
            snapshot(pairs), lo, lo + w
        )

    @given(st.lists(st.tuples(finite, lengths), max_size=30))
    @settings(max_examples=60)
    def test_canonical_invariants(self, pairs):
        s = MutableIntervalSet()
        for lo, w in pairs:
            s.add(lo, lo + w)
        comps = list(s)
        for c in comps:
            assert c.length > 0
        for a, b in zip(comps, comps[1:]):
            assert a.right < b.left  # disjoint AND non-abutting

    @given(st.lists(st.tuples(finite, lengths), max_size=40))
    @settings(max_examples=60)
    def test_from_sorted_pairs_matches_union(self, pairs):
        """One merging pass over start-sorted pairs gives the union's
        components and measure exactly."""
        spans = sorted((lo, lo + w) for lo, w in pairs)
        s = MutableIntervalSet.from_sorted_pairs(spans)
        u = IntervalUnion.from_pairs(spans)
        assert list(s) == list(u)
        assert s.measure == u.measure
        s.add(0.0, 1.0)
        assert s.to_union() == IntervalUnion.from_pairs([*spans, (0.0, 1.0)])


class TestFoldSupport:
    def test_drop_before_keeps_measure_and_later_adds(self):
        plain, folded = MutableIntervalSet(), MutableIntervalSet()
        for lo, hi in [(0.0, 1.0), (2.0, 3.5), (4.0, 5.0)]:
            plain.add(lo, hi)
            folded.add(lo, hi)
        assert folded.drop_before(5.0) == [(0.0, 1.0), (2.0, 3.5)]
        assert list(folded.pairs()) == [(4.0, 5.0)]  # ends at 5: kept
        assert folded.measure == plain.measure
        for lo, hi in [(5.0, 6.0), (5.5, 7.25), (9.0, 9.5)]:
            assert folded.add(lo, hi) == plain.add(lo, hi)
        assert folded.measure == plain.measure

    def test_intersection_length_adds_onto_a_carried_sum(self):
        s = MutableIntervalSet()
        s.add(1.0, 2.0)
        s.add(3.0, 4.0)
        assert s.intersection_length(-1e9, 3.5, 0.25) == 0.25 + 1.0 + 0.5
        assert MutableIntervalSet().intersection_length(0.0, 1.0, 0.5) == 0.5

    def test_point_membership(self):
        s = MutableIntervalSet()
        s.add(5, 8)
        s.add(10, 11)
        assert [x for x in range(13) if x in s] == [5, 6, 7, 10]
        assert 2**63 + 1 not in s
