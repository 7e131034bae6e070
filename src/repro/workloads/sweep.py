"""Sweep utilities: run scheduler × instance grids and aggregate ratios.

The benchmark harness repeats one pattern everywhere: run a set of
schedulers over a family of instances, measure spans, and compare with a
reference (exact optimum, certified lower bound, or offline heuristic).
:func:`run_grid` centralises that pattern with deterministic seeding.

Grids are embarrassingly parallel — every (scheduler, instance) cell is
an independent simulation — so :func:`run_grid` routes through
:class:`repro.perf.ParallelRunner`: pass ``workers=`` (or set the
``REPRO_WORKERS`` environment variable) to fan the cells out over a
process pool.  Parallel results are **bit-identical** to serial ones:
cells are cloned and ordered before dispatch and results are collected
in submission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.engine import simulate
from ..core.job import Instance
from ..core.metrics import reference_ratio
from ..obs.runtime import get_recorder
from ..perf.parallel import ParallelRunner, get_default_runner
from ..schedulers.base import OnlineScheduler

__all__ = ["GridResult", "run_grid", "ratio_stats"]


@dataclass(frozen=True)
class GridResult:
    """One (scheduler, instance) cell of a sweep."""

    scheduler_name: str
    instance_name: str
    span: float
    reference: float
    events: int

    @property
    def ratio(self) -> float:
        """Span over the reference value (competitive-ratio estimate).

        :func:`~repro.core.metrics.reference_ratio`'s convention: the
        plain quotient, ``1.0`` for an empty cell against an empty
        reference, ``inf`` for a positive span against a zero one.  A
        negative reference raises: a span can never be negative, so it
        is always a bug in the reference callable.
        """
        if self.reference < 0:
            raise ValueError(
                f"negative reference {self.reference} for "
                f"({self.scheduler_name}, {self.instance_name}): "
                "reference callables must return a span lower bound >= 0"
            )
        return reference_ratio(self.span, self.reference)


def _run_cell(cell: tuple[OnlineScheduler, Instance, bool, str, float]) -> GridResult:
    """Simulate one grid cell (top-level: picklable for the process pool)."""
    scheduler, inst, mode, name, ref = cell
    result = simulate(scheduler, inst, clairvoyant=mode)
    return GridResult(
        scheduler_name=name,
        instance_name=inst.name,
        span=result.span,
        reference=ref,
        events=result.events_processed,
    )


def run_grid(
    schedulers: Sequence[OnlineScheduler],
    instances: Iterable[Instance],
    reference: Callable[[Instance], float],
    *,
    clairvoyant: bool | None = None,
    workers: int | str | None = None,
    runner: ParallelRunner | None = None,
) -> list[GridResult]:
    """Run every scheduler on every instance against a reference span.

    Parameters
    ----------
    schedulers:
        Prototype scheduler objects; each run uses a fresh ``clone()``.
    instances:
        The instance family (materialised once, reused per scheduler).
    reference:
        ``Instance -> float`` producing the denominator (e.g.
        ``exact_optimal_span`` or ``span_lower_bound``), evaluated once
        per instance.  Wrap with
        :func:`repro.perf.cached_reference` to memoise expensive
        references across repeated sweeps.
    clairvoyant:
        Information model override; by default each scheduler runs in
        the weakest model it supports (clairvoyant only when required).
    workers:
        Process-pool size for the cell fan-out (``None`` reads
        ``REPRO_WORKERS``, default serial; ``0``/``"auto"`` = all
        cores).  Results are bit-identical to the serial order.
    runner:
        An explicit :class:`~repro.perf.ParallelRunner` (overrides
        ``workers``); lets callers share one pool across sweeps.
    """
    if runner is None:
        runner = (
            get_default_runner() if workers is None else ParallelRunner(workers)
        )
    inst_list = list(instances)
    refs = runner.map(reference, inst_list)
    cells: list[tuple[OnlineScheduler, Instance, bool, str, float]] = []
    for proto in schedulers:
        needs = getattr(type(proto), "requires_clairvoyance", False)
        mode = needs if clairvoyant is None else clairvoyant
        for inst, ref in zip(inst_list, refs):
            cells.append((proto.clone(), inst, mode, proto.name, ref))
    obs = get_recorder()
    if obs.enabled:
        obs.instant(
            "sweep.grid",
            schedulers=len(schedulers),
            instances=len(inst_list),
            cells=len(cells),
        )
        obs.counter_add("sweep.cells", float(len(cells)))
    return runner.map(_run_cell, cells)


def ratio_stats(results: Iterable[GridResult]) -> dict[str, dict[str, float]]:
    """Aggregate ratios per scheduler: mean / max / p95.

    Returns ``{scheduler: {"mean": …, "max": …, "p95": …, "runs": …}}``.
    """
    by_sched: dict[str, list[float]] = {}
    for r in results:
        by_sched.setdefault(r.scheduler_name, []).append(r.ratio)
    stats: dict[str, dict[str, float]] = {}
    for name, ratios in by_sched.items():
        arr = np.asarray(ratios)
        stats[name] = {
            "mean": float(arr.mean()),
            "max": float(arr.max()),
            "p95": float(np.percentile(arr, 95)),
            "runs": float(arr.size),
        }
    return stats
