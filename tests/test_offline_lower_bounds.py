"""Unit tests for the chain, mandatory and combined span lower bounds."""

from __future__ import annotations

import pytest

from repro.core import Instance
from repro.offline import chain_lower_bound, span_lower_bound


class TestChainLowerBound:
    def test_empty(self):
        assert chain_lower_bound(Instance([])) == 0.0

    def test_single_job(self):
        inst = Instance.from_triples([(0, 2, 3)])
        assert chain_lower_bound(inst) == 3.0

    def test_serial_chain_sums(self, serial_instance):
        # jobs at 0/4/8 with d+p = 3/7/11: each next arrives after the
        # previous latest completion → full chain.
        assert chain_lower_bound(serial_instance) == pytest.approx(6.0)

    def test_parallel_jobs_take_max(self, batchable_instance):
        # all windows overlap heavily: no 2-chain exists; bound is max p.
        assert chain_lower_bound(batchable_instance) == pytest.approx(3.0)

    def test_picks_heaviest_chain(self):
        # Two chains: {J0 (p=1) → J2 (p=1)} and {J1 (p=5)}, where J2
        # arrives after J0's latest completion but overlaps J1's window.
        inst = Instance.from_triples(
            [(0, 0, 1), (0, 20, 5), (2, 0, 1)], name="choice"
        )
        assert chain_lower_bound(inst) == pytest.approx(5.0)

    def test_matches_naive_dp(self):
        """Cross-check the chain bound against an O(n²) reference, exactly:
        both add the same lengths onto the same best predecessor."""
        from repro.workloads import WorkloadSpec, generate, small_integral_instance

        instances = [
            small_integral_instance(12, seed=seed, max_arrival=20)
            for seed in range(20)
        ] + [
            generate(
                WorkloadSpec(n=40, laxity="uniform", laxity_scale=1.0), seed=seed
            )
            for seed in range(20)
        ]
        for inst in instances:
            jobs = inst.sorted_by_arrival()
            best = {}
            answer = 0.0
            for j in jobs:
                b = j.known_length + max(
                    (
                        best[i.id]
                        for i in jobs
                        if i.deadline + i.known_length <= j.arrival
                    ),
                    default=0.0,
                )
                best[j.id] = b
                answer = max(answer, b)
            assert chain_lower_bound(inst) == answer


class TestSpanLowerBound:
    def test_empty(self):
        assert span_lower_bound(Instance([])) == 0.0

    def test_at_least_max_length(self):
        inst = Instance.from_triples([(0, 0, 7), (0, 0, 2)])
        assert span_lower_bound(inst) >= 7.0

    def test_sound_against_every_scheduler(self, simple_instance):
        from repro.core import simulate
        from repro.schedulers import SCHEDULERS, make_scheduler

        lb = span_lower_bound(simple_instance)
        for name in SCHEDULERS:
            sched = make_scheduler(name)
            result = simulate(
                sched, simple_instance, clairvoyant=type(sched).requires_clairvoyance
            )
            assert result.span >= lb - 1e-9


class TestMandatoryLowerBound:
    def test_rigid_jobs_full_mandatory(self):
        """Laxity 0: the mandatory interval is the whole run, so the
        bound equals every schedule's span exactly."""
        from repro.offline import mandatory_lower_bound
        from repro.workloads import rigid_instance
        from repro.core import simulate
        from repro.schedulers import Eager

        inst = rigid_instance(30, seed=0)
        result = simulate(Eager(), inst)
        assert mandatory_lower_bound(inst) == pytest.approx(result.span)

    def test_high_laxity_vacuous(self):
        from repro.offline import mandatory_lower_bound

        inst = Instance.from_triples([(0, 10, 2), (1, 8, 3)])
        assert mandatory_lower_bound(inst) == 0.0

    def test_partial_laxity(self):
        from repro.offline import mandatory_lower_bound

        # laxity 1 < p=3 → mandatory [1, 3): measure 2.
        inst = Instance.from_triples([(0, 1, 3)])
        assert mandatory_lower_bound(inst) == pytest.approx(2.0)

    def test_overlapping_mandatory_intervals_merged(self):
        from repro.offline import mandatory_lower_bound

        inst = Instance.from_triples([(0, 1, 3), (1, 1, 3)])
        # mandatory parts [1,3) and [2,4) → union [1,4) measure 3
        assert mandatory_lower_bound(inst) == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_never_exceeds_exact_opt(self, seed):
        from repro.offline import exact_optimal_span, mandatory_lower_bound
        from repro.workloads import small_integral_instance

        inst = small_integral_instance(7, seed=seed, max_laxity=2)
        assert mandatory_lower_bound(inst) <= exact_optimal_span(inst) + 1e-9

    def test_can_dominate_chain_bound(self):
        """On a laxity-poor burst the mandatory bound beats the chain
        bound (which can't chain overlapping windows)."""
        from repro.offline import chain_lower_bound, mandatory_lower_bound

        # three rigid unit jobs 0.4 apart: every window pair overlaps so
        # no 2-chain exists (chain LB = 1), while the mandatory union is
        # [0, 1.8) with measure 1.8.
        inst = Instance.from_triples(
            [(0, 0, 1), (0.4, 0, 1), (0.8, 0, 1)], name="burst"
        )
        assert chain_lower_bound(inst) == pytest.approx(1.0)
        assert mandatory_lower_bound(inst) == pytest.approx(1.8)

    @pytest.mark.parametrize("seed", range(8))
    def test_span_lower_bound_combines(self, seed):
        from repro.offline import (
            chain_lower_bound,
            mandatory_lower_bound,
            span_lower_bound,
        )
        from repro.workloads import small_integral_instance

        inst = small_integral_instance(8, seed=seed, max_laxity=2)
        assert span_lower_bound(inst) == pytest.approx(
            max(
                chain_lower_bound(inst),
                mandatory_lower_bound(inst),
                inst.max_length,
            )
        )
