"""Tests for the parallel sweep engine (``repro.perf.parallel``).

The load-bearing property is *bit-identical determinism*: for the same
seeds, a parallel `run_grid`/Monte-Carlo run must produce exactly the
results of the serial run — same values, same order — whether the
process pool engaged or the runner degraded to serial.
"""

from __future__ import annotations

import math
import sys

import pytest

from repro.analysis import estimate_expected_ratio
from repro.offline import span_lower_bound
from repro.perf import (
    WORKERS_ENV,
    ParallelRunner,
    chunked,
    derive_seed,
    get_default_runner,
    resolve_workers,
)
from repro.schedulers import Batch, BatchPlus, Eager, Profit, RandomStart
from repro.workloads import WorkloadSpec, generate, run_grid


class TestResolveWorkers:
    def test_none_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3

    def test_auto_and_zero_mean_all_cores(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(0) == resolve_workers("auto")

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            resolve_workers("many")
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestSeedsAndChunks:
    def test_derive_seed_is_stable_and_spread(self):
        a = derive_seed(0, 0)
        assert a == derive_seed(0, 0)  # deterministic
        seeds = {derive_seed(0, i) for i in range(100)}
        seeds |= {derive_seed(1, i) for i in range(100)}
        assert len(seeds) == 200  # no collisions across base seeds

    def test_chunked_partitions_preserving_order(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        assert chunked([], 3) == []
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestParallelRunner:
    def test_serial_map_preserves_order(self):
        runner = ParallelRunner(workers=1)
        assert runner.map(math.sqrt, [4.0, 9.0, 16.0]) == [2.0, 3.0, 4.0]
        assert runner.last_stats.mode == "serial"

    def test_parallel_map_matches_serial(self):
        tasks = list(range(32))
        serial = ParallelRunner(workers=1).map(math.sqrt, tasks)
        parallel = ParallelRunner(workers=4).map(math.sqrt, tasks)
        assert parallel == serial  # bit-identical, in order

    def test_unpicklable_callable_degrades_to_serial(self):
        captured = 10
        runner = ParallelRunner(workers=4)
        out = runner.map(lambda x: x + captured, [1, 2, 3, 4, 5, 6])
        assert out == [11, 12, 13, 14, 15, 16]
        assert runner.last_stats.mode == "serial"
        assert "picklable" in runner.last_stats.reason

    def test_tiny_grids_stay_serial(self):
        runner = ParallelRunner(workers=4, min_parallel_tasks=8)
        assert runner.map(math.sqrt, [1.0, 4.0]) == [1.0, 2.0]
        assert runner.last_stats.mode == "serial"

    def test_starmap(self):
        runner = ParallelRunner(workers=1)
        assert runner.starmap(math.pow, [(2, 3), (3, 2)]) == [8.0, 9.0]

    def test_default_runner_honours_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert get_default_runner().workers == 2
        monkeypatch.delenv(WORKERS_ENV)
        assert get_default_runner().workers == 1


def _family(n_instances: int, n_jobs: int = 25) -> list:
    spec = WorkloadSpec(n=n_jobs, laxity_scale=2.0, length_high=8.0)
    return [generate(spec, seed=seed) for seed in range(n_instances)]


class TestRunGridEquivalence:
    def test_parallel_grid_bit_identical_to_serial(self):
        protos = [Eager(), Batch(), BatchPlus(), Profit()]
        instances = _family(5)
        serial = run_grid(protos, instances, span_lower_bound, workers=1)
        parallel = run_grid(protos, instances, span_lower_bound, workers=4)
        assert serial == parallel  # GridResult is frozen: full value equality
        assert [r.span for r in serial] == [r.span for r in parallel]

    def test_explicit_runner_is_used(self):
        runner = ParallelRunner(workers=1)
        results = run_grid([Eager()], _family(2), span_lower_bound, runner=runner)
        assert len(results) == 2
        assert runner.last_stats.tasks == 2  # the cell map went through it

    def test_env_worker_knob(self, monkeypatch):
        protos = [Eager(), Batch()]
        instances = _family(3)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        serial = run_grid(protos, instances, span_lower_bound)
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = run_grid(protos, instances, span_lower_bound)
        assert serial == parallel


class TestMonteCarloEquivalence:
    def test_parallel_trials_bit_identical_to_serial(self):
        inst = _family(1, n_jobs=30)[0]
        ref = span_lower_bound(inst)
        kwargs = dict(trials=12, clairvoyant=False)
        serial = estimate_expected_ratio(
            RandomStart, inst, ref, workers=1, **kwargs
        )
        parallel = estimate_expected_ratio(
            RandomStart, inst, ref, workers=4, **kwargs
        )
        assert serial.ratios == parallel.ratios  # tuple equality, exact
        assert serial.mean == parallel.mean

    def test_lambda_factory_still_works(self):
        # Unpicklable factory products would break a naive pool; the
        # schedulers themselves are picklable, so this parallelises —
        # and a closure task would degrade to serial. Either way the
        # values must match the serial run.
        inst = _family(1, n_jobs=20)[0]
        ref = span_lower_bound(inst)
        serial = estimate_expected_ratio(
            lambda s: RandomStart(seed=s), inst, ref, trials=6, workers=1
        )
        parallel = estimate_expected_ratio(
            lambda s: RandomStart(seed=s), inst, ref, trials=6, workers=3
        )
        assert serial.ratios == parallel.ratios


def _module_state() -> dict[tuple[str, str], str]:
    """Reprs of the mutable containers every ``repro`` module holds."""
    return {
        (mod_name, name): repr(value)
        for mod_name, mod in list(sys.modules.items())
        if mod_name.startswith("repro") and mod is not None
        for name, value in list(vars(mod).items())
        if isinstance(value, (dict, list, set))
    }


class TestPoolWorkIsPure:
    def test_pool_work_leaves_module_globals_alone(self):
        # A worker's write to module state (a memo, a counter) never
        # reaches the parent or the next worker, so pooled results of such
        # work drift from serial ones.  Warm up first: imports and
        # first-use caches may fill module containers once.
        protos = [Eager(), Batch(), BatchPlus(), Profit()]
        family = _family(4)
        run_grid(protos, family[:2], span_lower_bound, workers=1)
        estimate_expected_ratio(RandomStart, family[0], 1.0, trials=2, workers=1)
        before = _module_state()
        run_grid(protos, family[2:], span_lower_bound, workers=1)
        estimate_expected_ratio(RandomStart, family[3], 1.0, trials=2, workers=1)
        assert _module_state() == before


def _record_and_maybe_boom(task):
    """Top-level (picklable) worker: leaves one uniquely-named marker
    file per execution, so a re-run of any task is detectable."""
    import os
    import uuid
    from pathlib import Path

    directory, i = task
    marker_dir = Path(directory)
    marker_dir.mkdir(parents=True, exist_ok=True)
    (marker_dir / f"{i}-{os.getpid()}-{uuid.uuid4().hex}").touch()
    if i == 5:
        raise ValueError(f"task {i} exploded")
    return i * 2


class TestWorkerExceptionPropagation:
    """Regressions for the narrowed pool-failure fallback: a *task*
    exception must propagate — not trigger a silent serial re-run that
    executes every side effect twice."""

    def test_task_exception_propagates_from_pool(self, tmp_path):
        tasks = [(str(tmp_path), i) for i in range(8)]
        runner = ParallelRunner(workers=2)
        with pytest.raises(ValueError, match="task 5 exploded"):
            runner.map(_record_and_maybe_boom, tasks)

    def test_no_task_executes_twice_after_worker_failure(self, tmp_path):
        tasks = [(str(tmp_path), i) for i in range(8)]
        runner = ParallelRunner(workers=2)
        with pytest.raises(ValueError):
            runner.map(_record_and_maybe_boom, tasks)
        executed = [p.name.split("-")[0] for p in tmp_path.iterdir()]
        assert executed.count("5") == 1  # the failing task ran exactly once
        for i in range(8):
            assert executed.count(str(i)) <= 1, f"task {i} re-ran"

    def test_task_exception_propagates_serially_too(self, tmp_path):
        tasks = [(str(tmp_path), i) for i in range(8)]
        runner = ParallelRunner(workers=1)
        with pytest.raises(ValueError, match="task 5 exploded"):
            runner.map(_record_and_maybe_boom, tasks)

    def test_pool_infrastructure_failure_still_degrades_to_serial(
        self, tmp_path, monkeypatch
    ):
        from concurrent.futures import BrokenExecutor

        runner = ParallelRunner(workers=2)

        def refuse(fn, chunks, workers):
            raise BrokenExecutor("host refuses to spawn processes")

        monkeypatch.setattr(runner, "_pool_map", refuse)
        tasks = [(str(tmp_path), i) for i in range(8) if i != 5]
        result = runner.map(_record_and_maybe_boom, tasks)
        assert result == [i * 2 for i in range(8) if i != 5]
        assert runner.last_stats.mode == "serial"
