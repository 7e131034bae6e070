"""Unit tests for per-iteration scheduler statistics."""

from __future__ import annotations


from repro.core import Instance, simulate
from repro.schedulers import Batch, BatchPlus
from repro.workloads import poisson_instance, small_integral_instance


class TestBatchIterations:
    def test_one_iteration_batches_everything(self, batchable_instance):
        result = simulate(Batch(), batchable_instance)
        iters = result.scheduler.iterations
        assert len(iters) == 1
        assert iters[0].flag_id == 0
        assert iters[0].start_time == 4.0
        assert sorted(iters[0].batch_job_ids) == [0, 1, 2, 3]
        assert iters[0].open_started_job_ids == []
        assert iters[0].batch_size == 4

    def test_serial_iterations(self, serial_instance):
        result = simulate(Batch(), serial_instance)
        iters = result.scheduler.iterations
        assert [it.flag_id for it in iters] == [0, 1, 2]
        assert all(it.batch_size == 1 for it in iters)

    def test_iterations_cover_all_jobs_exactly_once(self):
        inst = small_integral_instance(20, seed=4, max_arrival=30)
        result = simulate(Batch(), inst)
        started = [j for it in result.scheduler.iterations for j in it.batch_job_ids]
        assert sorted(started) == sorted(inst.job_ids)

    def test_iteration_times_increase(self):
        inst = poisson_instance(40, seed=1)
        result = simulate(Batch(), inst)
        times = [it.start_time for it in result.scheduler.iterations]
        assert times == sorted(times)


class TestBatchPlusIterations:
    def test_open_phase_pickups_recorded(self):
        inst = Instance.from_triples(
            [(0, 0, 10), (3, 5, 1), (4, 5, 1)], name="pickups"
        )
        result = simulate(BatchPlus(), inst)
        iters = result.scheduler.iterations
        assert len(iters) == 1
        assert iters[0].batch_job_ids == [0]
        assert iters[0].open_started_job_ids == [1, 2]
        assert iters[0].total_jobs == 3

    def test_jobs_partitioned_across_iterations(self):
        inst = small_integral_instance(25, seed=7, max_arrival=40)
        result = simulate(BatchPlus(), inst)
        seen = []
        for it in result.scheduler.iterations:
            seen.extend(it.batch_job_ids)
            seen.extend(it.open_started_job_ids)
        assert sorted(seen) == sorted(inst.job_ids)

    def test_flag_in_its_own_batch(self):
        inst = small_integral_instance(10, seed=2)
        result = simulate(BatchPlus(), inst)
        for it in result.scheduler.iterations:
            assert it.flag_id in it.batch_job_ids

    def test_flags_match_flag_job_ids(self):
        inst = poisson_instance(40, seed=3)
        result = simulate(BatchPlus(), inst)
        assert [
            it.flag_id for it in result.scheduler.iterations
        ] == result.scheduler.flag_job_ids

    def test_clone_clears_iterations(self):
        proto = BatchPlus()
        simulate(proto.clone(), poisson_instance(10, seed=0))
        assert proto.clone().iterations == []
