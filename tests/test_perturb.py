"""Unit + property tests for instance perturbations.

The headline property: **adding laxity never hurts the offline optimum**
(window widening keeps every feasible schedule feasible) — checked with
the exact solver.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InvalidInstanceError
from repro.offline import exact_optimal_span
from repro.workloads import (
    drop_jobs,
    jitter_arrivals,
    poisson_instance,
    scale_laxity,
    shift_times,
    small_integral_instance,
    tighten_to_rigid,
)


class TestTransforms:
    def test_scale_laxity_values(self, simple_instance):
        doubled = scale_laxity(simple_instance, 2.0)
        for old, new in zip(simple_instance, doubled):
            assert new.arrival == old.arrival
            assert new.laxity == pytest.approx(2 * old.laxity)
            assert new.length == old.length

    def test_tighten_to_rigid(self, simple_instance):
        rigid = tighten_to_rigid(simple_instance)
        assert all(j.laxity == 0 for j in rigid)

    def test_negative_factor_rejected(self, simple_instance):
        with pytest.raises(InvalidInstanceError):
            scale_laxity(simple_instance, -1.0)

    def test_jitter_preserves_laxity(self):
        inst = poisson_instance(30, seed=0)
        jittered = jitter_arrivals(inst, 0.5, seed=1)
        for old, new in zip(inst, jittered):
            assert new.laxity == pytest.approx(old.laxity)
            assert new.arrival >= 0

    def test_jitter_reproducible(self):
        inst = poisson_instance(20, seed=0)
        a = jitter_arrivals(inst, 1.0, seed=5)
        b = jitter_arrivals(inst, 1.0, seed=5)
        assert [j.arrival for j in a] == [j.arrival for j in b]

    def test_drop_jobs_fraction(self):
        inst = poisson_instance(200, seed=0)
        kept = drop_jobs(inst, 0.5, seed=2)
        assert 50 < len(kept) < 150  # ~100 expected

    def test_drop_fraction_bounds(self, simple_instance):
        with pytest.raises(InvalidInstanceError):
            drop_jobs(simple_instance, 1.5)
        assert len(drop_jobs(simple_instance, 0.0)) == len(simple_instance)

    def test_shift_times(self, simple_instance):
        shifted = shift_times(simple_instance, 10.0)
        for old, new in zip(simple_instance, shifted):
            assert new.arrival == old.arrival + 10.0
            assert new.deadline == old.deadline + 10.0


class TestOptimalityMonotonicity:
    @pytest.mark.parametrize("seed", range(8))
    def test_more_laxity_never_hurts_opt(self, seed):
        """OPT(laxity×2) <= OPT(original): the defining monotonicity."""
        inst = small_integral_instance(6, seed=seed)
        relaxed = scale_laxity(inst, 2.0)
        assert exact_optimal_span(relaxed) <= exact_optimal_span(inst) + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_less_laxity_never_helps_opt(self, seed):
        inst = small_integral_instance(6, seed=seed)
        rigid = tighten_to_rigid(inst)
        assert exact_optimal_span(rigid) >= exact_optimal_span(inst) - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_dropping_jobs_never_hurts_opt(self, seed):
        inst = small_integral_instance(7, seed=seed)
        fewer = drop_jobs(inst, 0.4, seed=seed)
        assert exact_optimal_span(fewer) <= exact_optimal_span(inst) + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_shift_invariance_of_opt(self, seed):
        inst = small_integral_instance(6, seed=seed)
        shifted = shift_times(inst, 7.0)
        assert exact_optimal_span(shifted) == pytest.approx(
            exact_optimal_span(inst)
        )

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_laxity_scaling_chain(self, seed, factor):
        """OPT is non-increasing along the laxity-scaling chain 0 <= 1 <= f."""
        inst = small_integral_instance(5, seed=seed)
        rigid = exact_optimal_span(tighten_to_rigid(inst))
        base = exact_optimal_span(inst)
        relaxed = exact_optimal_span(scale_laxity(inst, float(factor)))
        assert rigid >= base - 1e-9
        if factor >= 1:
            assert relaxed <= base + 1e-9
