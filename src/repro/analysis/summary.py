"""One-call run summaries: everything about a simulation in one report.

``summarize_run(result)`` gathers the quantities scattered across the
metric and analysis modules — span, parallelism, concurrency, busy
components, flag/iteration structure, ratio bracket — into a single
:class:`RunSummary` with a terminal rendering.  Used by the CLI and the
examples; handy in notebooks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.engine import SimulationResult
from ..core.metrics import overlap_fraction, parallelism, schedule_concurrency
from .certify import OptBracket, RatioBracket, bracket_optimum
from .decompose import decompose_span
from .report import Table

__all__ = ["RunSummary", "summarize_run"]


@dataclass(frozen=True)
class RunSummary:
    """Aggregate view of one simulation run."""

    scheduler: str
    instance_name: str
    jobs: int
    span: float
    total_work: float
    parallelism: float
    overlap_fraction: float
    peak_concurrency: int
    busy_components: int
    events: int
    flag_count: int
    opt: OptBracket

    @property
    def ratio_lower(self) -> float:
        return RatioBracket(self.span, self.opt).lower

    @property
    def ratio_upper(self) -> float:
        return RatioBracket(self.span, self.opt).upper

    def render(self) -> str:
        table = Table(
            ["metric", "value"],
            title=f"{self.scheduler} on {self.instance_name}",
        )
        table.add("jobs", self.jobs)
        table.add("span", self.span)
        table.add("total work", self.total_work)
        table.add("parallelism (work/span)", self.parallelism)
        table.add("overlap fraction", self.overlap_fraction)
        table.add("peak concurrency", self.peak_concurrency)
        table.add("busy components", self.busy_components)
        table.add("flag jobs", self.flag_count)
        table.add("events processed", self.events)
        if self.opt.exact:
            table.add("competitive ratio (exact)", self.ratio_lower)
        elif self.opt.method != "skipped":
            table.add("ratio lower (vs offline UB)", self.ratio_lower)
            table.add("ratio upper (vs chain LB)", self.ratio_upper)
        return table.render()


def summarize_run(
    result: SimulationResult, *, certify: bool = True
) -> RunSummary:
    """Build a :class:`RunSummary` from a finished simulation.

    ``certify=False`` skips the OPT bracket (instant, but no ratio).
    """
    schedule = result.schedule
    instance = result.instance
    comps = decompose_span(schedule)
    if certify:
        opt = bracket_optimum(instance)
        if not opt.exact and schedule.span < opt.upper:
            # The run itself is feasible: its span tightens the OPT upper
            # bound (so the reported ratio lower bound is never < 1).
            opt = OptBracket(
                lower=min(opt.lower, schedule.span),
                upper=schedule.span,
                method=opt.method,
            )
    else:
        opt = OptBracket(lower=float("nan"), upper=float("nan"), method="skipped")
    return RunSummary(
        scheduler=getattr(result.scheduler, "name", type(result.scheduler).__name__),
        instance_name=instance.name,
        jobs=len(instance),
        span=schedule.span,
        total_work=instance.total_work,
        parallelism=parallelism(schedule),
        overlap_fraction=overlap_fraction(schedule),
        peak_concurrency=schedule_concurrency(schedule).peak,
        busy_components=len(comps),
        events=result.events_processed,
        flag_count=len(getattr(result.scheduler, "flag_job_ids", [])),
        opt=opt,
    )
