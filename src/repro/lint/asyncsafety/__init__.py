"""Async-safety certifier for the serving layer (RL017–RL021).

Built on the interprocedural dataflow layer: the per-file phase
extracts async facts (``is_async``, awaited/finally call contexts,
``create_task`` spawn handling, ``Simulator``/``ParallelRunner``
receiver typing) into :class:`~repro.lint.dataflow.FileSummary`; the
whole-program phase assembles the coroutine-reachability graph and
blocking fixpoint (:mod:`repro.lint.asyncsafety.model`) and runs the
five rules (:mod:`repro.lint.asyncsafety.rules`):

========  ===========================================================
RL017     blocking-call-in-coroutine — sync blocking work reachable
          from a loop-reachable coroutine's sync call closure.
RL018     orphaned-task — a discarded ``create_task`` handle.
RL019     unbounded-channel — ``asyncio.Queue()``/``StreamReader()``
          without an explicit bound inside ``repro.serve``.
RL020     unshielded-cleanup-await — a ``finally`` await with neither
          ``asyncio.shield`` nor a CancelledError hard-stop handler.
RL021     queue-join-protocol — ``Queue.join()`` without balanced
          ``task_done()`` / poison-pill ordering.
========  ===========================================================

The runtime twin is :mod:`repro.serve.loopwatch`: ``REPRO_LOOPWATCH=1``
instruments the event loop to measure per-callback stalls (RL017's
runtime signature) and never-retrieved task exceptions (RL018's), and
the two are cross-validated both directions on the shared
``tests/data/lint_fixtures/async_*_pkg`` fixture packages.
"""

from __future__ import annotations

from .model import AsyncModel, external_name
from . import rules  # noqa: F401  (registration side effect)

__all__ = ["AsyncModel", "external_name"]
