"""Competitive-ratio certification: sound brackets for span/OPT.

Measuring a competitive ratio needs ``span_min``.  Depending on instance
size and arithmetic, this module picks the strongest available method
and returns a **bracket**, never a point estimate of unknown quality:

* tiny instances — exact OPT (integral branch-and-bound or the float
  candidate-closure solver): bracket collapses to a point;
* everything else — ``[chain lower bound, best offline heuristic]``:
  the true ratio lies in ``[span/upper, span/lower]``.

Used by the benchmark harness and the CLI so every reported number
carries its certainty.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.engine import simulate
from ..core.errors import SolverError
from ..core.job import Instance
from ..core.metrics import reference_ratio
from ..offline.exact_float import MAX_JOBS as FLOAT_MAX_JOBS
from ..offline.exact_float import exact_optimal_span_float
from ..offline.heuristics import best_offline_span
from ..offline.lower_bounds import span_lower_bound
from ..schedulers.base import OnlineScheduler

__all__ = ["OptBracket", "RatioBracket", "bracket_optimum", "measure_ratio"]

#: Exact solving is attempted up to this many jobs.
EXACT_JOB_LIMIT = 10
#: The float (candidate-closure) solver's cost grows like 3^n; restrict
#: automatic attempts harder than its hard MAX_JOBS cap.
FLOAT_EXACT_JOB_LIMIT = 6
#: Node budget granted to the exact attempts before falling back.
EXACT_NODE_BUDGET = 500_000


@dataclass(frozen=True)
class OptBracket:
    """A certified bracket ``lower <= span_min <= upper``.

    ``method`` names how it was obtained (``"exact"``, ``"exact-float"``
    or ``"bounds"``).
    """

    lower: float
    upper: float
    method: str

    @property
    def exact(self) -> bool:
        return self.method.startswith("exact")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class RatioBracket:
    """A certified bracket on a measured competitive ratio."""

    span: float
    opt: OptBracket

    @property
    def lower(self) -> float:
        """The ratio is at least this (span over OPT's upper bound)."""
        return reference_ratio(self.span, self.opt.upper)

    @property
    def upper(self) -> float:
        """The ratio is at most this (span over OPT's lower bound)."""
        return reference_ratio(self.span, self.opt.lower)

    @property
    def exact(self) -> bool:
        return self.opt.exact

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.exact:
            return f"{self.lower:.4f} (exact)"
        return f"[{self.lower:.4f}, {self.upper:.4f}]"


def bracket_optimum(instance: Instance, *, use_lp: bool = False) -> OptBracket:
    """The strongest certified bracket on ``span_min`` we can compute.

    ``use_lp=True`` additionally solves the time-indexed LP relaxation
    (integral instances, bounded horizon) to raise the bracket's lower
    end when exact solving is infeasible — slower but tighter.
    """
    if len(instance) == 0:
        return OptBracket(0.0, 0.0, "exact")
    if instance.is_integral:
        # Decomposition first: exact solving scales with the *largest
        # independent component*, not the job count, so even large sparse
        # instances certify exactly.
        try:
            from ..offline.decompose_instance import (
                exact_optimal_span_decomposed,
            )

            opt = exact_optimal_span_decomposed(
                instance,
                max_component=EXACT_JOB_LIMIT,
                node_budget=EXACT_NODE_BUDGET,
            )
            return OptBracket(opt, opt, "exact")
        except SolverError:
            pass  # a component too large/wide — fall through
    if len(instance) <= min(FLOAT_EXACT_JOB_LIMIT, FLOAT_MAX_JOBS):
        try:
            opt = exact_optimal_span_float(
                instance, node_budget=EXACT_NODE_BUDGET
            )
            return OptBracket(opt, opt, "exact-float")
        except SolverError:
            pass
    lower = span_lower_bound(instance)
    method = "bounds"
    if use_lp and instance.is_integral:
        try:
            from ..offline.lp_bound import lp_lower_bound

            lp = lp_lower_bound(instance)
            if lp > lower:
                lower = lp
                method = "bounds+lp"
        except SolverError:
            pass
    return OptBracket(lower, best_offline_span(instance), method)


def measure_ratio(
    scheduler: OnlineScheduler,
    instance: Instance,
    *,
    clairvoyant: bool | None = None,
) -> RatioBracket:
    """Run a scheduler and bracket its competitive ratio on the instance."""
    mode = (
        type(scheduler).requires_clairvoyance if clairvoyant is None else clairvoyant
    )
    result = simulate(scheduler.clone(), instance, clairvoyant=mode)
    return RatioBracket(span=result.span, opt=bracket_optimum(instance))
