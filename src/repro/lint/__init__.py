"""Domain-aware static analysis for the FJS reproduction.

The paper's two information models (non-clairvoyant §3 vs clairvoyant
§4) are a *contract*: a scheduler that declares
``requires_clairvoyance = False`` must never read ``job.length`` before
the job completes, or every competitive-ratio measurement it produces is
silently invalid.  This package proves that contract — and the few
other properties that no test or runtime check covers on every path —
at review time with an AST-based analyzer (stdlib :mod:`ast` only, no
third-party dependencies).

Rules
-----
========  ===============================================================
RL003     float-hygiene — ``==`` / ``!=`` between float-typed
          expressions in theorem-certification code, where exact
          ``Fraction`` comparison or a documented tolerance is required.
RL007     cross-module-clairvoyance-taint — a scheduler whose
          ``requires_clairvoyance`` is falsy reaches a ``.length`` read
          before completion, directly or through helpers in any module.
RL012     hot-path-object-alloc — per-job ``Job``/``JobView``
          construction or attribute-gather loops inside hot sections of
          the engine core, the serving layer and the live telemetry
          plane; hot code must use ``JobTable`` row indexes, column
          slices, and list mirrors.
RL017     blocking-call-in-coroutine — ``time.sleep``, sync file/socket
          I/O, ``Simulator.run``, ``ParallelRunner.map`` reachable from
          an event-loop coroutine's sync call closure without
          ``to_thread``/``run_in_executor``.
RL018     orphaned-task — a ``create_task`` handle discarded (task
          collectable mid-flight, exceptions never retrieved).
RL019     unbounded-channel — ``asyncio.Queue()``/``StreamReader()``
          without an explicit bound inside ``repro.serve`` (the
          backpressure invariant).
RL020     unshielded-cleanup-await — an await in a ``finally`` block
          with neither ``asyncio.shield`` nor a CancelledError
          hard-stop handler.
RL021     queue-join-protocol — ``Queue.join()`` without ``task_done()``
          on every consumer path, or a poison pill enqueued before the
          join.
========  ===============================================================

RL003 and RL012 run per file; the others are *program rules*
(:class:`~repro.lint.base.ProgramRule`): they run over the
whole-program symbol table and call graph assembled by
:mod:`repro.lint.dataflow` from per-file summaries, which an
incremental content-hash cache replays for unchanged files
(:class:`~repro.lint.dataflow.AnalysisCache`).

Suppression: append ``# lint: ignore[RL003]`` (or ``# noqa: RL003``) to
the offending line.

RL007 is cross-validated by a runtime oracle: under ``REPRO_STRICT=1``
the engine records (and rejects) pre-completion ``.length`` reads by
schedulers declaring ``requires_clairvoyance = False`` — see
:mod:`repro.core.engine`.  RL017/RL018 are cross-validated by the
``REPRO_LOOPWATCH=1`` instrumented event loop
(:mod:`repro.serve.loopwatch`), which measures per-callback stalls and
never-retrieved task exceptions on the shared async fixture packages.
"""

from __future__ import annotations

from .findings import LintFinding, LintReport
from .base import ALL_RULES, FileContext, ProgramRule, Rule, rule_by_code
from .runner import default_target, lint_paths, lint_source

# Importing the rule modules registers them with the registry.
from . import rules_floats  # noqa: F401  (registration side effect)
from . import rules_perf  # noqa: F401
from . import dataflow  # noqa: F401  (registers RL007)
from . import asyncsafety  # noqa: F401  (registers RL017-RL021)
from .dataflow import AnalysisCache, Program, default_cache_path

__all__ = [
    "ALL_RULES",
    "AnalysisCache",
    "FileContext",
    "LintFinding",
    "LintReport",
    "Program",
    "ProgramRule",
    "Rule",
    "default_cache_path",
    "default_target",
    "lint_paths",
    "lint_source",
    "rule_by_code",
]
