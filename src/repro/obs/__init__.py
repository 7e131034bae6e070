"""Observability layer: structured tracing, metrics, decision provenance.

``repro.obs`` is the system's flight recorder.  It answers the questions
print-debugging cannot: *why did the scheduler start J17 at t=42.5?*,
*where did the sweep spend its wall-clock?*, *did this PR make the
engine slower?* — without costing anything when switched off.

Components
----------
* :mod:`repro.obs.recorder` — the :class:`Recorder` protocol;
  :class:`NullRecorder` (default, zero overhead) and
  :class:`TraceRecorder` (in-memory records + metrics).  Armed by
  ``REPRO_TRACE=1`` or ``Simulator(recorder=...)``.
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms,
  with merge semantics for cross-process aggregation.
* :mod:`repro.obs.records` — the :class:`ObsRecord` schema and the
  paper-rule vocabulary for scheduler start decisions.
* :mod:`repro.obs.jsonl` / :mod:`repro.obs.chrome` — sinks: JSONL trace
  files and Chrome ``trace_event`` JSON for Perfetto.
* :mod:`repro.obs.aggregate` — summaries, merges, and regression diffs.
* :mod:`repro.obs.explain` — decision-provenance narratives cross-checked
  against :func:`repro.core.audit`, plus the live-LB reconciliation.
* :mod:`repro.obs.live` — the live telemetry plane: per-tenant span,
  queue depth, decision mix, and the online competitive-ratio estimate
  the serving daemon exposes (``REPRO_TELEMETRY``).
* :mod:`repro.obs.top` — the ``repro obs top`` terminal dashboard over
  the daemon's telemetry listener.
* :mod:`repro.obs.cli` — ``python -m repro obs summarize|explain|diff|
  export|overhead|top``.

See ``docs/observability.md`` for the guided tour.
"""

from .records import (
    DECISION_RULES,
    ObsRecord,
    decision_vocabulary,
    describe_rule,
)
from .metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TRACE_DIR_ENV,
    TRACE_ENV,
    TraceRecorder,
    trace_dir,
    trace_enabled,
)
from .runtime import get_recorder, reset_recorder, set_recorder
from .jsonl import (
    JSONL_VERSION,
    LoadedTrace,
    dump_jsonl,
    read_jsonl,
    scan_jsonl,
    write_jsonl,
)
from .chrome import chrome_trace_events, export_chrome_trace
from .aggregate import (
    DiffEntry,
    TraceSummary,
    diff_bench,
    diff_summaries,
    merge_metric_dicts,
    render_diff,
    render_summary,
    summarize_trace,
)
from .explain import Explanation, JobStory, explain_trace
from .live import (
    LiveAggregator,
    OnlineOptLowerBound,
    TELEMETRY_ADDR_ENV,
    TELEMETRY_ENV,
    TenantTelemetry,
    render_prometheus,
    telemetry_addr,
    telemetry_enabled,
)

__all__ = [
    "DECISION_RULES",
    "DEFAULT_BUCKETS",
    "DiffEntry",
    "Explanation",
    "Histogram",
    "JSONL_VERSION",
    "JobStory",
    "LiveAggregator",
    "LoadedTrace",
    "MetricsRegistry",
    "OnlineOptLowerBound",
    "TELEMETRY_ADDR_ENV",
    "TELEMETRY_ENV",
    "TenantTelemetry",
    "NULL_RECORDER",
    "NullRecorder",
    "ObsRecord",
    "Recorder",
    "TRACE_DIR_ENV",
    "TRACE_ENV",
    "TraceRecorder",
    "TraceSummary",
    "chrome_trace_events",
    "decision_vocabulary",
    "describe_rule",
    "diff_bench",
    "diff_summaries",
    "dump_jsonl",
    "explain_trace",
    "export_chrome_trace",
    "get_recorder",
    "merge_metric_dicts",
    "read_jsonl",
    "render_diff",
    "render_prometheus",
    "render_summary",
    "reset_recorder",
    "scan_jsonl",
    "set_recorder",
    "summarize_trace",
    "telemetry_addr",
    "telemetry_enabled",
    "trace_dir",
    "trace_enabled",
    "write_jsonl",
]
