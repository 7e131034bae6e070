"""Domain-aware static analysis for the FJS reproduction.

The paper's two information models (non-clairvoyant §3 vs clairvoyant
§4) are a *contract*: a scheduler that declares
``requires_clairvoyance = False`` must never read ``job.length`` before
the job completes, or every competitive-ratio measurement it produces is
silently invalid.  This package proves that contract — and a family of
related reproduction invariants — at review time with an AST-based
analyzer (stdlib :mod:`ast` only, no third-party dependencies).

Rules
-----
========  ===============================================================
RL001     clairvoyance-leak — a scheduler whose ``requires_clairvoyance``
          is falsy reads ``.length`` / calls ``.with_length`` in a method
          reachable before ``on_completion``.
RL002     nondeterminism — unseeded ``random`` / wall-clock reads /
          iteration over bare ``set``s in scheduler or adversary
          decision paths.
RL003     float-hygiene — ``==`` / ``!=`` between float-typed
          expressions in theorem-certification code, where exact
          ``Fraction`` comparison or a documented tolerance is required.
RL004     state-mutation — assignment to ``JobView`` / ``Job``
          attributes inside a scheduler (jobs are immutable inputs).
RL005     reset-contract — a scheduler subclass ``reset()`` that never
          calls ``super().reset()``.
RL007     cross-module-clairvoyance-taint — the whole-program upgrade of
          RL001: a leak laundered through helpers in *other* modules.
RL008     pool-unsafe-work — a lambda, closure, or transitively impure
          callable submitted to a ``ParallelRunner`` map.
RL009     parameter-domain-violation — constant arguments outside a
          callee's raise-guarded domain (``CDB(alpha<=1)``, …).
RL010     heap-key-type-mix — ``heappush`` tuples on one heap mixing
          un-orderable element types (``TypeError`` on a tie).
RL011     hot-path-print — ``print``/``logging``/raw stdio in
          ``repro/core/`` or ``repro/schedulers/``; per-event output
          belongs in the :mod:`repro.obs` recorder.
RL012     hot-path-object-alloc — per-job ``Job``/``JobView``
          construction or attribute-gather loops inside hot sections of
          the engine cores; hot code must use ``JobTable`` row indexes,
          column slices, and list mirrors.
RL014     lifecycle-typestate — a PENDING→RUNNING→DONE lifecycle write
          in an illegal event phase, or a scheduler that starts jobs
          from ``on_deadline`` without the deadline-flag/backstop
          decision.
RL015     decision-vocabulary-exhaustiveness — scheduler decision
          reasons vs the closed ``DECISION_RULES`` vocabulary, both
          directions (no unknown reasons, no dead keys).
RL016     time-monotonicity — a heap-push key or engine clock write not
          provably monotone (guards, clock anchoring, admission
          axioms).
RL017     blocking-call-in-coroutine — ``time.sleep``, sync file/socket
          I/O, ``Simulator.run``, ``ParallelRunner.map`` reachable from
          an event-loop coroutine's sync call closure without
          ``to_thread``/``run_in_executor``.
RL018     orphaned-task — a ``create_task`` handle discarded (task
          collectable mid-flight, exceptions never retrieved).
RL019     unbounded-channel — ``asyncio.Queue()``/``StreamReader()``
          without an explicit bound inside ``repro/serve`` (the
          backpressure invariant).
RL020     unshielded-cleanup-await — an await in a ``finally`` block
          with neither ``asyncio.shield`` nor a CancelledError
          hard-stop handler.
RL021     queue-join-protocol — ``Queue.join()`` without ``task_done()``
          on every consumer path, or a poison pill enqueued before the
          join.
========  ===============================================================

RL007–RL021 are *program rules* (:class:`~repro.lint.base.ProgramRule`):
they run over the whole-program symbol table, call graph, and fixpoint
analyses assembled by :mod:`repro.lint.dataflow` from per-file
summaries.  The per-file phase is parallel (``lint --jobs N``) and
incremental (content-hash cache, see
:class:`~repro.lint.dataflow.AnalysisCache`).

Suppression: append ``# lint: ignore[RL003]`` (or ``# noqa: RL003``) to
the offending line.  Grandfathered findings live in a baseline file (see
:mod:`repro.lint.baseline`); the CLI gate only fails on *new* findings.

The static RL001 verdicts are cross-validated by a runtime oracle: under
``REPRO_STRICT=1`` the engine records (and rejects) pre-completion
``.length`` reads by schedulers declaring ``requires_clairvoyance =
False`` — see :mod:`repro.core.engine`.  RL017/RL018 are
cross-validated by the ``REPRO_LOOPWATCH=1`` instrumented event loop
(:mod:`repro.serve.loopwatch`), which measures per-callback stalls and
never-retrieved task exceptions on the shared async fixture packages.
"""

from __future__ import annotations

from .baseline import Baseline, load_baseline, write_baseline
from .sarif import render_sarif, to_sarif
from .findings import LintFinding, LintReport
from .base import ALL_RULES, FileContext, ProgramRule, Rule, rule_by_code
from .runner import default_target, lint_paths, lint_source

# Importing the rule modules registers them with the registry.
from . import rules_clairvoyance  # noqa: F401  (registration side effect)
from . import rules_determinism  # noqa: F401
from . import rules_floats  # noqa: F401
from . import rules_schedstate  # noqa: F401
from . import rules_observability  # noqa: F401
from . import rules_perf  # noqa: F401
from . import dataflow  # noqa: F401  (registers RL007-RL010)
from . import invariants  # noqa: F401  (registers RL014-RL016)
from . import asyncsafety  # noqa: F401  (registers RL017-RL021)
from .dataflow import AnalysisCache, Program, default_cache_path

__all__ = [
    "ALL_RULES",
    "AnalysisCache",
    "Baseline",
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
    "load_baseline",
    "render_sarif",
    "rule_by_code",
    "to_sarif",
    "write_baseline",
]
