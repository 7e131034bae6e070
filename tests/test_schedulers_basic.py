"""Unit tests for the baseline schedulers (Eager, Lazy, RandomStart,
Doubler) and the registry."""

from __future__ import annotations

import pytest

from repro.core import Instance, simulate
from repro.obs import NULL_RECORDER, TraceRecorder
from repro.schedulers import (
    Doubler,
    Eager,
    Lazy,
    RandomStart,
    clairvoyant_schedulers,
    make_scheduler,
    nonclairvoyant_schedulers,
    scheduler_names,
)
from repro.workloads import poisson_instance


class TestEagerLazy:
    def test_eager_serialises_staggered_jobs(self):
        # E7 mechanism: jobs arriving 1 apart, each of length 1, with
        # plenty of laxity — Eager keeps span n while opt batches to ~1+n·0.
        inst = Instance.from_triples(
            [(i, 10, 1) for i in range(5)], name="staircase"
        )
        result = simulate(Eager(), inst)
        assert result.span == pytest.approx(5.0)

    def test_lazy_wastes_clustered_arrivals(self):
        # all jobs arrive at 0 but deadlines spread: Lazy serialises them.
        inst = Instance(
            [
                __import__("repro").Job(i, 0.0, 3.0 * i, 1.0)
                for i in range(4)
            ],
            name="spread",
        )
        result = simulate(Lazy(), inst)
        assert result.span == pytest.approx(4.0)
        # whereas starting all at 0 gives span 1
        eager = simulate(Eager(), inst)
        assert eager.span == pytest.approx(1.0)


class TestRandomStart:
    def test_reproducible_given_seed(self):
        inst = poisson_instance(30, seed=1)
        r1 = simulate(RandomStart(seed=42), inst)
        r2 = simulate(RandomStart(seed=42), inst)
        assert r1.schedule.starts() == r2.schedule.starts()

    def test_different_seeds_differ(self):
        inst = poisson_instance(30, seed=1)
        r1 = simulate(RandomStart(seed=1), inst)
        r2 = simulate(RandomStart(seed=2), inst)
        assert r1.schedule.starts() != r2.schedule.starts()

    def test_starts_within_windows(self):
        inst = poisson_instance(50, seed=3)
        result = simulate(RandomStart(seed=0), inst)
        result.schedule.validate()

    def test_zero_laxity_starts_immediately(self):
        inst = Instance.from_triples([(2, 0, 1)])
        result = simulate(RandomStart(seed=0), inst)
        assert result.schedule.start_of(0) == 2.0

    def test_clone_resets_rng(self):
        proto = RandomStart(seed=7)
        inst = poisson_instance(20, seed=0)
        r1 = simulate(proto.clone(), inst)
        r2 = simulate(proto.clone(), inst)
        assert r1.schedule.starts() == r2.schedule.starts()


class TestDoubler:
    def test_waits_own_length(self):
        # single job, laxity 10, p=3: Doubler starts at a + p = 3.
        inst = Instance.from_triples([(0, 10, 3)], name="wait")
        result = simulate(Doubler(), inst, clairvoyant=True)
        assert result.schedule.start_of(0) == 3.0

    def test_deadline_caps_wait(self):
        # laxity 1 < p=3: start at the deadline.
        inst = Instance.from_triples([(0, 1, 3)], name="cap")
        result = simulate(Doubler(), inst, clairvoyant=True)
        assert result.schedule.start_of(0) == 1.0

    def test_piggybacks_when_covered(self):
        # J0 runs [2, 10) after waiting min(d,a+p)=2 (p=8, laxity 2).
        # J1 arrives at 3 with p=2: [3,5) ⊆ [2,10) → starts immediately.
        inst = Instance.from_triples([(0, 2, 8), (3, 20, 2)], name="piggy")
        result = simulate(Doubler(), inst, clairvoyant=True)
        assert result.schedule.start_of(0) == 2.0
        assert result.schedule.start_of(1) == 3.0

    def test_not_covered_waits(self):
        # J1 (p=9) at t=3 is not covered by [2,10): waits until a+p=12.
        inst = Instance.from_triples([(0, 2, 8), (3, 20, 9)], name="nocover")
        result = simulate(Doubler(), inst, clairvoyant=True)
        assert result.schedule.start_of(1) == 12.0

    def test_feasible_on_random_workloads(self):
        inst = poisson_instance(60, seed=9)
        result = simulate(Doubler(), inst, clairvoyant=True)
        result.schedule.validate()


class TestRegistry:
    def test_all_names_resolve(self):
        for name in scheduler_names():
            sched = make_scheduler(name)
            assert sched.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_scheduler("nope")

    def test_kwargs_forwarded(self):
        sched = make_scheduler("profit", k=2.25)
        assert sched.k == 2.25

    def test_clairvoyance_partition(self):
        cl = set(clairvoyant_schedulers())
        ncl = set(nonclairvoyant_schedulers())
        assert cl | ncl == set(scheduler_names())
        assert not (cl & ncl)
        assert {"cdb", "profit", "doubler"} <= cl
        assert {"batch", "batch+", "eager", "lazy"} <= ncl

    def test_describe_strings(self):
        for name in scheduler_names():
            desc = make_scheduler(name).describe()
            assert isinstance(desc, str) and desc

    @pytest.mark.parametrize("name", scheduler_names())
    def test_reset_and_clone_drop_run_state(self, name):
        # ``reset()`` must reach the base class (``super().reset()``):
        # a run's flag jobs and its armed recorder must not survive into
        # the next run of the same object or of a clone.
        sched = make_scheduler(name)
        inst = poisson_instance(30, seed=5)
        clairvoyant = type(sched).requires_clairvoyance
        simulate(sched, inst, clairvoyant=clairvoyant, recorder=TraceRecorder())
        assert sched.obs is not NULL_RECORDER
        clone = sched.clone()
        assert clone.flag_job_ids == []
        assert clone.flag_job_ids is not sched.flag_job_ids
        assert clone.obs is NULL_RECORDER
        sched.reset()
        assert sched.flag_job_ids == []
        assert sched.obs is NULL_RECORDER
