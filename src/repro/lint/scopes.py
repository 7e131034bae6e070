"""Shared lint scope constants: which paths count as the hot path.

Three rule families police the per-event hot path and previously each
carried its own copy of the scope list; this module is the single
source of truth they all import:

* RL011 (:mod:`repro.lint.rules_observability`) — no print/logging in
  hot packages;
* RL012 (:mod:`repro.lint.rules_perf`) — no per-job object allocation
  in hot sections of the engine cores;
* RL017–RL021 (:mod:`repro.lint.asyncsafety`) — the serving layer's
  event loop must stay non-blocking, bounded, and drain-safe.

All matching is done on ``/``-normalised repo-relative paths via
substring containment, mirroring ``Rule.applies_to`` conventions.
"""

from __future__ import annotations

__all__ = [
    "HOT_CORE_FRAGMENTS",
    "HOT_PATH_FRAGMENTS",
    "HOT_SECTION_PREFIXES",
    "SERVE_FRAGMENT",
]

#: Package prefixes (path fragments) treated as the per-event hot path.
#: ``repro/serve/`` is included because the daemon runs per protocol
#: line: its only legitimate output channels are the asyncio stream
#: writers (protocol records) and the structured recorder — a stray
#: print would interleave with the JSONL protocol stream itself.
#: ``repro/obs/live.py`` rides along: the live telemetry plane is fed
#: once per engine event by the serve sessions' output sink.
HOT_PATH_FRAGMENTS = (
    "repro/core/",
    "repro/schedulers/",
    "repro/serve/",
    "repro/obs/live.py",
)

#: The engine-core files whose hot sections RL012 polices.  The serve
#: package rides along: its per-op paths run once per protocol line,
#: and per-job object materialisation belongs at its protocol boundary
#: (``job_from_op``), not inside worker/dispatch sections.  So does the
#: live telemetry plane (``repro/obs/live.py``): its ``_handle_*``
#: record handlers run once per engine record on armed serve sessions.
HOT_CORE_FRAGMENTS = (
    "repro/core/engine.py",
    "repro/core/columnar.py",
    "repro/serve/",
    "repro/obs/live.py",
)

#: Function-name prefixes marking per-event / per-cohort code.
HOT_SECTION_PREFIXES = (
    "_dispatch",
    "_handle_",
    "_cohort_",
    "_complete_",
    "_assign_",
    "_gather",
    "_start_",
    "_push_",
)

#: The serving layer proper — the event-loop code whose channels RL019
#: requires to be explicitly bounded.  Fixture packages outside this
#: path opt in by declaring a truthy module constant ``_SERVE_SCOPE``.
SERVE_FRAGMENT = "repro/serve/"
