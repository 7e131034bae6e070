"""Unit tests for offline heuristics (greedy overlap + local search)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Instance, Job
from repro.core.intervals import Interval, IntervalUnion
from repro.core.intervalset import MutableIntervalSet
from repro.core.schedule import Schedule
from repro.offline import (
    best_offline,
    best_offline_span,
    candidate_starts,
    exact_optimal_span,
    greedy_overlap,
    local_search,
    span_lower_bound,
)
from repro.offline.heuristics import _best_start_fast
from repro.workloads import poisson_instance, small_integral_instance


# -- reference: the IntervalUnion implementation local_search replaced ------
def reference_candidate_starts(job: Job, union: IntervalUnion) -> list[float]:
    """Window ends plus ``e`` and ``e - p`` for every component endpoint."""
    a, d, p = job.arrival, job.deadline, job.known_length
    cands = {a, d}
    for comp in union.components:
        for e in (comp.left, comp.right):
            for s in (e, e - p):
                if a <= s <= d:
                    cands.add(s)
    return sorted(cands)


def reference_added_measure(union: IntervalUnion, interval: Interval) -> float:
    """``len(interval)`` minus its overlap with every component."""
    return interval.length - sum(
        c.intersection_length(interval) for c in union.components
    )


def reference_best_start(job: Job, union: IntervalUnion) -> float:
    """The added-measure-minimising start (ties -> latest start)."""
    best_s = job.deadline
    best_cost = reference_added_measure(
        union, Interval(job.deadline, job.deadline + job.known_length)
    )
    for s in reference_candidate_starts(job, union):
        cost = reference_added_measure(union, Interval(s, s + job.known_length))
        if cost < best_cost - 1e-12 or (
            cost <= best_cost + 1e-12 and s > best_s
        ):
            best_cost = cost
            best_s = s
    return best_s


def reference_local_search(schedule: Schedule, max_sweeps: int = 20) -> Schedule:
    """Coordinate descent that rebuilds the others' union for every job."""
    instance = schedule.instance
    starts = schedule.starts()
    jobs = list(instance.jobs)
    for _ in range(max_sweeps):
        moved = False
        for job in jobs:
            others = IntervalUnion(
                Interval(starts[j.id], starts[j.id] + j.known_length)
                for j in jobs
                if j.id != job.id
            )
            s = reference_best_start(job, others)
            if abs(s - starts[job.id]) > 1e-12:
                old_cost = reference_added_measure(
                    others,
                    Interval(starts[job.id], starts[job.id] + job.known_length),
                )
                new_cost = reference_added_measure(
                    others, Interval(s, s + job.known_length)
                )
                if new_cost < old_cost - 1e-12:
                    starts[job.id] = s
                    moved = True
        if not moved:
            break
    return Schedule(instance, starts)


#: Job counts of the reference-pin instances, cycled over the seeds.
PIN_SIZES = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 120)


def _pin_instance(seed: int) -> Instance:
    """A seeded instance for the reference pin.

    Even seeds are integral, odd seeds real-valued.  About a quarter of
    the jobs have a zero-laxity window, and arrivals are drawn from a
    small anchor set often enough that starts coincide.
    """
    rng = np.random.default_rng(seed)
    n = PIN_SIZES[seed % len(PIN_SIZES)]
    horizon = max(2, n // 2)
    anchors = rng.uniform(0, horizon, size=4)
    jobs = []
    for i in range(n):
        if seed % 2 == 0:
            a = float(rng.integers(0, horizon + 1))
            lax = float(rng.integers(0, 5)) if rng.random() < 0.75 else 0.0
            p = float(rng.integers(1, 5))
        else:
            shared = rng.random() < 0.3
            a = float(rng.choice(anchors)) if shared else float(rng.uniform(0, horizon))
            lax = float(rng.uniform(0, 6)) if rng.random() < 0.75 else 0.0
            p = float(rng.uniform(0.1, 5))
        jobs.append(Job(id=i, arrival=a, deadline=a + lax, length=p))
    return Instance(jobs, name=f"pin-{seed}")


class TestCandidateStarts:
    def test_empty_union_gives_window_ends(self):
        job = Instance.from_triples([(1, 4, 2)])[0]
        assert candidate_starts(job, MutableIntervalSet()) == [1.0, 5.0]

    def test_component_endpoints_included(self):
        job = Instance.from_triples([(0, 10, 2)])[0]
        union = MutableIntervalSet.from_sorted_pairs([(3.0, 6.0)])
        cands = candidate_starts(job, union)
        # endpoints 3, 6 and their -p shifts 1, 4, plus window ends 0, 10
        assert set(cands) == {0.0, 1.0, 3.0, 4.0, 6.0, 10.0}

    def test_candidates_clipped_to_window(self):
        job = Instance.from_triples([(5, 1, 2)])[0]
        union = MutableIntervalSet.from_sorted_pairs([(0.0, 100.0)])
        for s in candidate_starts(job, union):
            assert 5.0 <= s <= 6.0

    def test_matches_reference_over_every_component(self):
        """Reading only the components near the window gives exactly the
        candidates of a scan over every component."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            pairs = sorted(
                (lo, lo + float(rng.uniform(0, 6)))
                for lo in rng.uniform(0, 60, size=int(rng.integers(0, 25)))
            )
            a = float(rng.uniform(0, 50))
            job = Job(0, a, a + float(rng.uniform(0, 12)), float(rng.uniform(0.1, 8)))
            assert candidate_starts(
                job, MutableIntervalSet.from_sorted_pairs(pairs)
            ) == reference_candidate_starts(job, IntervalUnion.from_pairs(pairs))


class TestGreedyOverlap:
    def test_produces_feasible_schedule(self):
        inst = poisson_instance(40, seed=2)
        for order in ("deadline", "arrival", "length"):
            greedy_overlap(inst, order).validate()

    def test_unknown_order_rejected(self, simple_instance):
        with pytest.raises(ValueError):
            greedy_overlap(simple_instance, "nope")  # type: ignore[arg-type]

    def test_overlappable_jobs_get_overlapped(self):
        inst = Instance.from_triples([(0, 5, 3), (2, 3, 2)])
        sched = greedy_overlap(inst)
        assert sched.span == pytest.approx(3.0)


class TestLocalSearch:
    def test_never_increases_span(self):
        for seed in range(5):
            inst = poisson_instance(25, seed=seed)
            initial = greedy_overlap(inst, "arrival")
            improved = local_search(initial)
            assert improved.span <= initial.span + 1e-9
            improved.validate()

    def test_fixpoint_on_already_optimal(self):
        inst = Instance.from_triples([(0, 0, 2)])
        sched = greedy_overlap(inst)
        assert local_search(sched).span == sched.span


class TestBestOffline:
    def test_empty_instance(self):
        assert best_offline_span(Instance([])) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_brackets_optimum(self, seed):
        """LB <= OPT <= best_offline on small instances."""
        inst = small_integral_instance(6, seed=seed)
        opt = exact_optimal_span(inst)
        assert span_lower_bound(inst) - 1e-9 <= opt <= best_offline_span(inst) + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_often_finds_optimum_on_small_instances(self, seed):
        """The heuristic is usually exact on tiny instances; assert it is
        never more than 50% off (a loose but meaningful regression net)."""
        inst = small_integral_instance(5, seed=seed)
        opt = exact_optimal_span(inst)
        assert best_offline_span(inst) <= 1.5 * opt + 1e-9

    def test_result_is_feasible(self):
        inst = poisson_instance(50, seed=4)
        best_offline(inst).validate()


class TestReferencePin:
    """``local_search`` on one mutable set gives exactly the starts of the
    IntervalUnion implementation: same candidates, same sums, same
    decisions, so equality is exact, not approximate."""

    @pytest.mark.parametrize("seed", range(2 * len(PIN_SIZES)))
    def test_local_search_matches_reference(self, seed):
        inst = _pin_instance(seed)
        for order in ("deadline", "arrival", "length"):
            initial = greedy_overlap(inst, order)
            for sweeps in (1, 3, 20):
                got = local_search(initial, max_sweeps=sweeps).starts()
                want = reference_local_search(initial, max_sweeps=sweeps).starts()
                assert got == want, (order, sweeps)

    @pytest.mark.parametrize("seed", range(2 * len(PIN_SIZES)))
    def test_best_offline_span_matches_reference(self, seed):
        inst = _pin_instance(seed)
        want = min(
            reference_local_search(greedy_overlap(inst, order)).span
            for order in ("deadline", "arrival", "length")
        )
        assert best_offline_span(inst) == want


class TestFastPathEquivalence:
    def test_best_start_fast_matches_reference(self):
        """The MutableIntervalSet-based candidate search must agree with
        the IntervalUnion reference implementation everywhere."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(0, 10))
            union = IntervalUnion()
            mset = MutableIntervalSet()
            for _ in range(n):
                lo = float(rng.uniform(0, 50))
                w = float(rng.uniform(0, 10))
                union = IntervalUnion([*union, Interval(lo, lo + w)])
                mset.add(lo, lo + w)
            a = float(rng.uniform(0, 40))
            lax = float(rng.uniform(0, 15))
            p = float(rng.uniform(0.5, 8))
            job = Job(0, a, a + lax, p)
            assert reference_best_start(job, union) == _best_start_fast(job, mset)

    def test_greedy_scales_to_large_instances(self):
        """The fast path keeps greedy placement practical at 10^4 jobs."""
        import time

        inst = poisson_instance(10_000, seed=0)
        t0 = time.perf_counter()
        sched = greedy_overlap(inst)
        elapsed = time.perf_counter() - t0
        sched.validate()
        assert elapsed < 5.0  # generous CI margin; typically ~0.1 s
