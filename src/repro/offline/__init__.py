"""Offline optimisation: exact optima, lower bounds, and heuristics.

Competitive-ratio measurements need ``span_min``; this package supplies
it at three fidelity levels:

* :func:`exact_optimal_span` — exact, for small integral (or exactly
  rescalable) instances;
* :func:`span_lower_bound` — certified lower bound (chain bound) for any
  instance: ratios reported against it are sound *over*-estimates;
* :func:`best_offline_span` — certified upper bound (feasible schedule),
  bracketing the optimum from the other side.
"""

from .anneal import anneal
from .beam import beam_search_schedule, beam_search_span
from .bruteforce import bruteforce_optimal_schedule, bruteforce_optimal_span
from .decompose_instance import (
    exact_optimal_schedule_decomposed,
    exact_optimal_span_decomposed,
    split_independent,
)
from .exact import ExactResult, exact_optimal_schedule, exact_optimal_span
from .exact_float import (
    FloatExactResult,
    exact_optimal_schedule_float,
    exact_optimal_span_float,
)
from .heuristics import (
    best_offline,
    best_offline_span,
    candidate_starts,
    greedy_overlap,
    local_search,
)
from .lower_bounds import (
    OnlineOptLowerBound,
    chain_lower_bound,
    mandatory_lower_bound,
    span_lower_bound,
)
from .lp_bound import lp_lower_bound

__all__ = [
    "anneal",
    "beam_search_schedule",
    "beam_search_span",
    "ExactResult",
    "exact_optimal_schedule",
    "exact_optimal_span",
    "FloatExactResult",
    "exact_optimal_schedule_float",
    "exact_optimal_span_float",
    "bruteforce_optimal_schedule",
    "bruteforce_optimal_span",
    "split_independent",
    "exact_optimal_schedule_decomposed",
    "exact_optimal_span_decomposed",
    "best_offline",
    "best_offline_span",
    "candidate_starts",
    "greedy_overlap",
    "local_search",
    "OnlineOptLowerBound",
    "chain_lower_bound",
    "mandatory_lower_bound",
    "lp_lower_bound",
    "span_lower_bound",
]
