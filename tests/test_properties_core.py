"""Property-based tests (hypothesis) for the interval algebra and core
data structures."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalUnion, union_measure
from repro.core.intervalset import MutableIntervalSet
from repro.core.metrics import concurrency_profile

finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
lengths = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def interval_lists(draw, max_size=30):
    n = draw(st.integers(min_value=0, max_value=max_size))
    starts = [draw(finite) for _ in range(n)]
    lens = [draw(lengths) for _ in range(n)]
    return starts, lens


class TestUnionMeasureProperties:
    @given(interval_lists())
    def test_matches_object_union(self, data):
        starts, lens = data
        expected = IntervalUnion.from_starts_lengths(starts, lens).measure
        assert abs(union_measure(starts, lens) - expected) <= 1e-6 * max(
            1.0, expected
        )

    @given(interval_lists())
    def test_bounded_by_sum_and_max(self, data):
        starts, lens = data
        m = union_measure(starts, lens)
        assert m <= sum(lens) + 1e-9
        assert m >= (max(lens) if lens else 0.0) - 1e-9

    @given(interval_lists())
    def test_permutation_invariant(self, data):
        starts, lens = data
        m1 = union_measure(starts, lens)
        order = np.argsort(lens, kind="stable")
        m2 = union_measure(np.asarray(starts)[order], np.asarray(lens)[order])
        assert abs(m1 - m2) <= 1e-9 * max(1.0, m1)

    @given(interval_lists(), finite)
    def test_translation_invariant(self, data, shift):
        starts, lens = data
        m1 = union_measure(starts, lens)
        m2 = union_measure([s + shift for s in starts], lens)
        assert abs(m1 - m2) <= 1e-6 * max(1.0, m1)

    @given(interval_lists(max_size=15), interval_lists(max_size=15))
    def test_subadditive(self, a, b):
        sa, la = a
        sb, lb = b
        combined = union_measure(list(sa) + list(sb), list(la) + list(lb))
        assert combined <= union_measure(sa, la) + union_measure(sb, lb) + 1e-6

    @given(interval_lists(max_size=15), interval_lists(max_size=15))
    def test_monotone(self, a, b):
        sa, la = a
        sb, lb = b
        combined = union_measure(list(sa) + list(sb), list(la) + list(lb))
        assert combined >= union_measure(sa, la) - 1e-9


class TestIntervalUnionProperties:
    @given(interval_lists(max_size=20))
    def test_components_disjoint_sorted_nonabutting(self, data):
        starts, lens = data
        union = IntervalUnion.from_starts_lengths(starts, lens)
        comps = union.components
        for c in comps:
            assert c.length > 0
        for a, b in zip(comps, comps[1:]):
            assert a.right < b.left  # strictly separated

    @given(interval_lists(max_size=20))
    def test_idempotent(self, data):
        """Merging a union with its own components changes nothing."""
        starts, lens = data
        u = IntervalUnion.from_starts_lengths(starts, lens)
        assert IntervalUnion([*u, *u]) == u

    @given(interval_lists(max_size=20), finite, lengths)
    def test_added_measure_consistent(self, data, s, p):
        """The set's added measure is the growth of the rebuilt snapshot."""
        starts, lens = data
        mset = MutableIntervalSet.from_sorted_pairs(
            sorted((a, a + b) for a, b in zip(starts, lens))
        )
        before = mset.measure
        added = mset.added_measure(s, s + p)
        grown = IntervalUnion.from_starts_lengths([*starts, s], [*lens, p])
        assert abs((before + added) - grown.measure) <= 1e-6 * max(
            1.0, grown.measure
        )

    @given(interval_lists(max_size=20))
    def test_gaps_complement(self, data):
        """Hull = measure + the gaps between consecutive components."""
        starts, lens = data
        union = IntervalUnion.from_starts_lengths(starts, lens)
        if union.empty:
            return
        comps = union.components
        gap_total = sum(b.left - a.right for a, b in zip(comps, comps[1:]))
        hull = union.right - union.left
        assert abs(hull - union.measure - gap_total) <= 1e-6 * max(1.0, hull)


class TestConcurrencyProperties:
    @given(interval_lists(max_size=25))
    @settings(max_examples=50)
    def test_integral_of_concurrency_equals_work(self, data):
        """∫ concurrency dt = Σ lengths (work conservation)."""
        starts, lens = data
        prof = concurrency_profile(starts, lens)
        if prof.times.size < 2:
            # Only possible when every interval's width underflows to a
            # point (length 0 or start + length == start in floats).
            assert sum(lens) <= 1e-6
            return
        widths = np.diff(prof.times)
        integral = float((widths * prof.counts[:-1]).sum())
        assert abs(integral - sum(lens)) <= 1e-6 * max(1.0, sum(lens))

    @given(interval_lists(max_size=25))
    @settings(max_examples=50)
    def test_span_is_time_at_least_one(self, data):
        starts, lens = data
        prof = concurrency_profile(starts, lens)
        assert abs(prof.time_at_least(1) - union_measure(starts, lens)) <= 1e-6 * max(
            1.0, sum(lens) + 1.0
        )
