"""Focused tests for corners not exercised elsewhere."""

from __future__ import annotations


from repro.core import Instance, Job, simulate
from repro.schedulers import (
    ClassifyByDurationBatchPlus,
    OnlineScheduler,
    Profit,
)
from repro.workloads import GridResult, WorkloadSpec, run_grid
from repro.offline import span_lower_bound


class TestJobViewSurface:
    def test_lifecycle_flags(self):
        observed = {}

        class Peek(OnlineScheduler):
            def on_arrival(self, ctx, job):
                observed["pre"] = (job.started, job.start_time, job.completed)
                ctx.start(job.id)
                observed["post"] = (job.started, job.start_time, job.completed)

            def on_completion(self, ctx, job):
                observed["done"] = (job.started, job.completed)

        simulate(Peek(), Instance.from_triples([(1, 2, 3)]))
        assert observed["pre"] == (False, None, False)
        assert observed["post"] == (True, 1.0, False)
        assert observed["done"] == (True, True)

    def test_length_if_known_hidden_then_revealed(self):
        seen = {}

        class Peek(OnlineScheduler):
            def on_arrival(self, ctx, job):
                seen["arrival"] = job.length_if_known
                ctx.start(job.id)

            def on_completion(self, ctx, job):
                seen["completion"] = job.length_if_known

        simulate(Peek(), Instance.from_triples([(0, 1, 2)]), clairvoyant=False)
        assert seen["arrival"] is None
        assert seen["completion"] == 2.0

    def test_size_always_visible(self):
        class Peek(OnlineScheduler):
            def on_arrival(self, ctx, job):
                assert job.size == 0.25
                ctx.start(job.id)

        inst = Instance([Job(0, 0.0, 1.0, 1.0, size=0.25)])
        simulate(Peek(), inst, clairvoyant=False)


class TestProfitMultiFlagAttribution:
    def test_arrival_attributed_to_latest_ending_flag(self):
        """When an arrival is profitable to several running flags, the
        implementation deterministically picks the one with the latest
        completion (most slack)."""
        # flag A: d=0, p=4 → ends 4.  flag B: d=1, p=100 → ends 101
        # (B unprofitable to A: 100 > k·4).  J2 arrives at 2 with p=3:
        # profitable to both; must attribute to B (later end).
        inst = Instance(
            [
                Job(0, 0.0, 0.0, 4.0),
                Job(1, 0.0, 1.0, 100.0),
                Job(2, 2.0, 50.0, 3.0),
            ],
            name="multi-flag",
        )
        result = simulate(Profit(k=1.5), inst, clairvoyant=True)
        sched = result.scheduler
        assert sorted(sched.flag_job_ids) == [0, 1]
        assert result.schedule.start_of(2) == 2.0
        assert sched.attribution[2] == 1


class TestCdbBaseParameter:
    def test_base_shifts_boundaries(self):
        # α=2: with base 1, lengths 3 and 4 share category (2,4]; with
        # base 3, boundaries are (1.5,3],(3,6]: 3 and 4 land apart.
        inst = Instance.from_triples([(0, 5, 3), (0, 5, 4)], name="base")
        base1 = simulate(
            ClassifyByDurationBatchPlus(alpha=2.0, base=1.0), inst, clairvoyant=True
        )
        base3 = simulate(
            ClassifyByDurationBatchPlus(alpha=2.0, base=3.0), inst, clairvoyant=True
        )
        assert base1.scheduler.num_categories == 1
        assert base3.scheduler.num_categories == 2


class TestGridResultEdgeCases:
    def test_zero_reference_gives_inf(self):
        r = GridResult(
            scheduler_name="x",
            instance_name="y",
            span=1.0,
            reference=0.0,
            events=1,
        )
        assert r.ratio == float("inf")

    def test_clairvoyant_override(self):
        from repro.schedulers import Batch
        from repro.workloads import poisson_instance

        # forcing clairvoyant=True on a non-clairvoyant scheduler is
        # allowed (extra information, unused).
        results = run_grid(
            [Batch()],
            [poisson_instance(10, seed=0)],
            span_lower_bound,
            clairvoyant=True,
        )
        assert len(results) == 1 and results[0].span > 0


class TestWorkloadSpecDescribe:
    def test_describe_mentions_axes(self):
        spec = WorkloadSpec(n=5, arrival="bursty", length="pareto", laxity="uniform")
        desc = spec.describe()
        assert "bursty" in desc and "pareto" in desc and "uniform" in desc


class TestInstanceHorizonWithAdversaryJobs:
    def test_horizon_treats_unknown_length_as_zero(self):
        inst = Instance([Job(0, 0.0, 5.0, None), Job(1, 0.0, 2.0, 4.0)])
        assert inst.horizon == 6.0


class TestSchedulerReprs:
    def test_all_registry_reprs_render(self):
        from repro.schedulers import SCHEDULERS, make_scheduler

        for name in SCHEDULERS:
            assert name is not None
            r = repr(make_scheduler(name))
            assert r.startswith("<") and r.endswith(">")
