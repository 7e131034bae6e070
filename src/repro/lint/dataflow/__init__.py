"""Whole-program dataflow analysis for :mod:`repro.lint`.

A clairvoyance leak can hide in a helper in another module, and a
blocking call in a sync helper a coroutine calls; neither is visible
one file at a time.  This package assembles the cross-module view:

* :mod:`~repro.lint.dataflow.summary` — per-file fact extraction into a
  JSON-serialisable :class:`FileSummary` (imports, class hierarchy,
  call sites, clairvoyance reads, async facts).  Summaries are the
  *only* interface between files and the whole-program pass, which
  makes the incremental cache (:mod:`~repro.lint.dataflow.cache`) sound
  by construction.
* :mod:`~repro.lint.dataflow.program` — the whole-program symbol table
  and call graph over all summaries: module-qualified function index,
  import-alias resolution, method resolution (MRO) over the
  ``OnlineScheduler`` hierarchy, and the clairvoyance-taint fixpoint.
* :mod:`~repro.lint.dataflow.rules_program` — RL007, the non-clairvoyant
  contract over that call graph.

Program rules subclass :class:`repro.lint.base.ProgramRule` and receive
the assembled :class:`Program`.
"""

from __future__ import annotations

from .cache import AnalysisCache, default_cache_path
from .program import Program
from .summary import FileSummary, extract_summary, module_name_for

# Importing the rule module registers RL007 with the registry.
from . import rules_program  # noqa: F401  (registration side effect)

__all__ = [
    "AnalysisCache",
    "FileSummary",
    "Program",
    "default_cache_path",
    "extract_summary",
    "module_name_for",
]
