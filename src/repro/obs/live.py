"""Live telemetry plane: streaming per-tenant span / ratio aggregation.

The serving daemon multiplexes many tenant scheduler streams; this
module is what lets an operator *watch* them.  A
:class:`TenantTelemetry` consumes the structured records the engine
already emits through the recorder protocol (``engine.release`` /
``engine.start`` / ``engine.completion`` instants plus ``decision``
records) and maintains, online:

* the **observed span** — the measure of the union of committed run
  intervals ``[s, s+p)`` (an incremental version of
  :func:`repro.core.intervals.union_measure`);
* busy/idle split of the tenant's clock, queue depth (released minus
  started) and run counts;
* the decision-rule mix over the closed
  :data:`~repro.obs.records.DECISION_RULES` vocabulary;
* an **online competitive-ratio estimate** ``span / LB`` where ``LB``
  is :class:`~repro.offline.lower_bounds.OnlineOptLowerBound`, fed one
  release at a time.

Ratio-LB math
-------------
``OnlineOptLowerBound`` lives in :mod:`repro.offline.lower_bounds`; the
certified offline bounds (``chain_lower_bound``,
``mandatory_lower_bound``, ``span_lower_bound``) are folds of it over
an instance in arrival order, so there is one implementation of the
chain argument.  It is the running max of the chain bound (a Pareto
front over latest completions), the mandatory-interval union and the
max length, each monotone nondecreasing as jobs are added, so the
combined bound is monotone by construction.  The serve stream feeds
releases in nondecreasing arrival order, where the live bound equals
the offline one; fed in any other order it stays sound, possibly
weaker.

``span / LB >= span / OPT``: the live ratio is a sound *upper*
estimate of the schedule's competitive ratio on the instance so far.
``repro obs explain`` replays this estimator over finished traces and
cross-checks it against the certified offline reference
(:func:`repro.offline.lower_bounds.span_lower_bound` through
:class:`repro.perf.cache.ReferenceCache`).

Knobs
-----
``REPRO_TELEMETRY``
    Arms (default) or disarms the daemon's live aggregation; disarmed,
    sessions skip the per-record feed entirely.
``REPRO_TELEMETRY_ADDR``
    ``host:port`` for the daemon's read-only telemetry listener
    (equivalent to ``repro serve --telemetry``); unset means no
    listener.
"""

from __future__ import annotations

import math
import os
from typing import Any, Mapping

from ..core.intervalset import MutableIntervalSet
from ..offline.lower_bounds import OnlineOptLowerBound
from .records import KIND_DECISION, KIND_INSTANT, ObsRecord

__all__ = [
    "LiveAggregator",
    "OnlineOptLowerBound",
    "TELEMETRY_ADDR_ENV",
    "TELEMETRY_ENV",
    "TenantTelemetry",
    "render_prometheus",
    "telemetry_addr",
    "telemetry_enabled",
]

#: Environment variable arming the daemon's live aggregation (default on).
TELEMETRY_ENV = "REPRO_TELEMETRY"
#: Environment variable naming the telemetry listener's ``host:port``.
TELEMETRY_ADDR_ENV = "REPRO_TELEMETRY_ADDR"

_FALSEY = ("", "0", "false", "off")


def telemetry_enabled() -> bool:
    """Whether ``REPRO_TELEMETRY`` arms live aggregation (default yes)."""
    return os.environ.get(TELEMETRY_ENV, "1").strip().lower() not in _FALSEY


def telemetry_addr(override: str | None = None) -> tuple[str, int] | None:
    """The telemetry listener address, or ``None`` when unconfigured.

    ``override`` (the ``--telemetry`` flag) wins over
    ``REPRO_TELEMETRY_ADDR``; both use ``host:port`` syntax.
    """
    spec = override if override is not None else os.environ.get(
        TELEMETRY_ADDR_ENV, ""
    )
    spec = spec.strip()
    if not spec:
        return None
    host, _, port = spec.rpartition(":")
    if not host or not port:
        raise ValueError(f"telemetry address takes HOST:PORT, got {spec!r}")
    return host, int(port)


class TenantTelemetry:
    """One tenant's live aggregates, fed one engine event at a time.

    The serve session's output sink calls the ``_handle_*`` methods
    directly, with the attributes of each ``engine.release`` /
    ``engine.start`` / ``engine.completion`` instant and each decision's
    rule, as the engine emits them; no record is built for the feed
    (the handlers are inside the RL012 hot-section lint scope: no
    per-job object materialisation; and they write no stdio).  :meth:`observe` is the
    record-dispatch entry used by trace replay (``repro obs explain`` /
    ``summarize``) and tests.
    """

    __slots__ = (
        "tenant",
        "clock",
        "released",
        "started",
        "completed",
        "total_work",
        "first_arrival",
        "decisions",
        "lb",
        "_span",
        "_busy_past",
        "_lengths",
        "_open_runs",
        "_deferred",
    )

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.clock = 0.0
        self.released = 0
        self.started = 0
        self.completed = 0
        self.total_work = 0.0
        self.first_arrival: float | None = None
        self.decisions: dict[str, int] = {}
        self.lb = OnlineOptLowerBound()
        self._span = MutableIntervalSet()
        #: Running sum of the span components :meth:`fold` dropped.
        self._busy_past = 0.0
        self._lengths: dict[int, float] = {}
        self._open_runs: dict[int, float] = {}
        # Released without a known length (non-clairvoyant streams):
        # (arrival, deadline) parked until the completion reveals p.
        self._deferred: dict[int, tuple[float, float]] = {}

    # ------------------------------------------------------- record handlers
    def _handle_release(self, attrs: Mapping[str, Any]) -> None:
        self.released += 1
        arrival = float(attrs["arrival"])
        if self.first_arrival is None or arrival < self.first_arrival:
            self.first_arrival = arrival
        deadline = float(attrs["deadline"])
        length = attrs.get("length")
        job = int(attrs["job"])
        if length is None:
            self._deferred[job] = (arrival, deadline)
        else:
            p = float(length)
            self._lengths[job] = p
            self.total_work += p
            self.lb.add(arrival, deadline, p)

    def _handle_start(self, attrs: Mapping[str, Any]) -> None:
        self.started += 1
        t = float(attrs["t"])
        if t > self.clock:
            self.clock = t
        job = int(attrs["job"])
        p = self._lengths.pop(job, None)
        if p is None:
            self._open_runs[job] = t  # length lands with the completion
        else:
            self._span.add(t, t + p)

    def _handle_completion(self, attrs: Mapping[str, Any]) -> None:
        self.completed += 1
        t = float(attrs["t"])
        if t > self.clock:
            self.clock = t
        job = int(attrs["job"])
        start = self._open_runs.pop(job, None)
        if start is not None:
            self._span.add(start, t)
        deferred = self._deferred.pop(job, None)
        if deferred is not None:
            length = attrs.get("length")
            p = float(length) if length is not None else t - (
                start if start is not None else t
            )
            self.total_work += p
            self.lb.add(deferred[0], deferred[1], p)

    def _handle_decision(self, rule: str) -> None:
        counts = self.decisions
        counts[rule] = counts.get(rule, 0) + 1

    # ------------------------------------------------------------ public api
    def fold(self, now: float) -> None:
        """Fold the past into a few numbers at an idle instant ``now``.

        The serve session calls it when its engine folds: nothing is
        pending or running and every later release arrives at or after
        ``now``.  Span components ending before ``now`` leave the set
        (its measure keeps counting them) and their lengths join the
        running sum ``busy_s`` starts from, in the same left-to-right
        order; the lower bound drops what no later arrival can change
        (:meth:`OnlineOptLowerBound.fold`).  :meth:`snapshot` is
        bit-identical to the unfolded one, now and after.
        """
        busy = self._busy_past
        for lo, hi in self._span.drop_before(now):
            busy += hi - lo
        self._busy_past = busy
        self.lb.fold(now)

    def observe(self, record: ObsRecord) -> None:
        """Dispatch one structured record into the aggregates."""
        kind = record.kind
        if kind == KIND_INSTANT:
            name = record.name
            if name == "engine.release":
                self._handle_release(record.attrs)
            elif name == "engine.start":
                self._handle_start(record.attrs)
            elif name == "engine.completion":
                self._handle_completion(record.attrs)
        elif kind == KIND_DECISION:
            self._handle_decision(record.name)

    @property
    def span(self) -> float:
        """Measure of the union of committed run intervals."""
        return self._span.measure

    @property
    def ratio(self) -> float | None:
        """Live competitive-ratio upper estimate (``None`` before any
        run has committed span — a ratio of 0 would be noise, not
        an estimate)."""
        lb = self.lb.value
        span = self._span.measure
        if lb <= 0.0 or span <= 0.0:
            return None
        return span / lb

    def snapshot(self) -> dict[str, Any]:
        """The tenant's aggregates as one JSON-serialisable dict."""
        lb = self.lb
        clock = self.clock
        busy = self._span.intersection_length(
            -math.inf, clock, self._busy_past
        )
        horizon = clock - (
            self.first_arrival if self.first_arrival is not None else clock
        )
        idle = horizon - busy
        return {
            "tenant": self.tenant,
            "clock": clock,
            "jobs": {
                "released": self.released,
                "started": self.started,
                "completed": self.completed,
                "pending": self.released - self.started,
                "running": self.started - self.completed,
            },
            "span": self._span.measure,
            "busy_s": busy,
            "idle_s": idle if idle > 0.0 else 0.0,
            "total_work": self.total_work,
            "decisions": dict(sorted(self.decisions.items())),
            "opt_lb": {
                "value": lb.value,
                "chain": lb.chain,
                "mandatory": lb.mandatory,
                "max_length": lb.max_length,
            },
            "ratio": self.ratio,
        }


class LiveAggregator:
    """All tenants' telemetry plus daemon-level context, one snapshot.

    The daemon owns exactly one; sessions feed their tenant's
    :class:`TenantTelemetry` and readers (the ``stats`` protocol op and
    the telemetry listener) call :meth:`snapshot` /
    :func:`render_prometheus`.
    """

    def __init__(self) -> None:
        self.tenants: dict[str, TenantTelemetry] = {}

    def tenant(self, name: str) -> TenantTelemetry:
        """Get or create one tenant's telemetry."""
        telemetry = self.tenants.get(name)
        if telemetry is None:
            telemetry = self.tenants[name] = TenantTelemetry(name)
        return telemetry

    def observe(self, tenant: str, record: ObsRecord) -> None:
        """Replay-style feed: dispatch one record to one tenant."""
        self.tenant(tenant).observe(record)

    def snapshot(
        self,
        *,
        daemon: Mapping[str, Any] | None = None,
        loopwatch: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """The full telemetry snapshot (the ``/snapshot`` JSON payload).

        ``daemon`` and ``loopwatch`` are caller-supplied sections (queue
        depths and intake counters from the daemon; stall/pending
        metrics from :mod:`repro.serve.loopwatch`) merged in verbatim.
        """
        tenants = {
            name: telemetry.snapshot()
            for name, telemetry in sorted(self.tenants.items())
        }
        ratios = [
            snap["ratio"] for snap in tenants.values()
            if snap["ratio"] is not None
        ]
        payload: dict[str, Any] = {
            "kind": "telemetry",
            "tenants": tenants,
            "aggregate": {
                "tenants": len(tenants),
                "released": sum(s["jobs"]["released"] for s in tenants.values()),
                "started": sum(s["jobs"]["started"] for s in tenants.values()),
                "completed": sum(
                    s["jobs"]["completed"] for s in tenants.values()
                ),
                "span": sum(s["span"] for s in tenants.values()),
                "max_ratio": max(ratios) if ratios else None,
            },
        }
        if daemon is not None:
            payload["daemon"] = dict(daemon)
        if loopwatch is not None:
            payload["loopwatch"] = dict(loopwatch)
        return payload


def _label(value: str) -> str:
    """Escape a Prometheus label value."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _metric(value: float | int | None) -> str:
    if value is None:
        return "NaN"
    return f"{value:g}"


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`LiveAggregator.snapshot` as Prometheus text.

    One exposition per scrape — gauges for the per-tenant aggregates,
    counters for intake/decision totals — terminated by a newline, as
    the text exposition format requires.
    """
    lines: list[str] = []

    def gauge(name: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")

    def counter(name: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} counter")

    tenants: Mapping[str, Any] = snapshot.get("tenants", {})
    gauge("repro_tenant_span", "observed span (union of committed runs)")
    for name, snap in tenants.items():
        lines.append(
            f'repro_tenant_span{{tenant="{_label(name)}"}} '
            f"{_metric(snap['span'])}"
        )
    gauge("repro_tenant_opt_lb", "incremental certified lower bound on OPT span")
    for name, snap in tenants.items():
        lines.append(
            f'repro_tenant_opt_lb{{tenant="{_label(name)}"}} '
            f"{_metric(snap['opt_lb']['value'])}"
        )
    gauge("repro_tenant_ratio", "live competitive-ratio upper estimate")
    for name, snap in tenants.items():
        lines.append(
            f'repro_tenant_ratio{{tenant="{_label(name)}"}} '
            f"{_metric(snap['ratio'])}"
        )
    gauge("repro_tenant_clock", "tenant logical clock")
    for name, snap in tenants.items():
        lines.append(
            f'repro_tenant_clock{{tenant="{_label(name)}"}} '
            f"{_metric(snap['clock'])}"
        )
    gauge("repro_tenant_jobs", "job counts by state")
    for name, snap in tenants.items():
        for state, count in snap["jobs"].items():
            lines.append(
                f'repro_tenant_jobs{{tenant="{_label(name)}",'
                f'state="{state}"}} {count}'
            )
    counter("repro_tenant_decisions_total", "scheduler decisions by paper rule")
    for name, snap in tenants.items():
        for rule, count in snap["decisions"].items():
            lines.append(
                f'repro_tenant_decisions_total{{tenant="{_label(name)}",'
                f'rule="{_label(rule)}"}} {count}'
            )
    daemon: Mapping[str, Any] = snapshot.get("daemon", {})
    for key in ("lines_in", "records_out", "errors"):
        if key in daemon:
            counter(f"repro_daemon_{key}_total", f"daemon {key.replace('_', ' ')}")
            lines.append(f"repro_daemon_{key}_total {_metric(daemon[key])}")
    queued = daemon.get("queued")
    if isinstance(queued, Mapping):
        gauge("repro_daemon_tenant_queue_depth", "queued ops per tenant")
        for name, depth in queued.items():
            lines.append(
                "repro_daemon_tenant_queue_depth"
                f'{{tenant="{_label(name)}"}} {_metric(depth)}'
            )
    loopwatch: Mapping[str, Any] = snapshot.get("loopwatch", {})
    counters: Mapping[str, Any] = loopwatch.get("counters", {})
    if counters:
        counter("repro_loopwatch_total", "instrumented event-loop counters")
        for name, value in sorted(counters.items()):
            short = name.removeprefix("loopwatch.")
            lines.append(
                f'repro_loopwatch_total{{counter="{_label(short)}"}} '
                f"{_metric(value)}"
            )
    gauges: Mapping[str, Any] = loopwatch.get("gauges", {})
    if gauges:
        gauge("repro_loopwatch_gauge", "instrumented event-loop gauges")
        for name, value in sorted(gauges.items()):
            short = name.removeprefix("loopwatch.")
            lines.append(
                f'repro_loopwatch_gauge{{gauge="{_label(short)}"}} '
                f"{_metric(value)}"
            )
    return "\n".join(lines) + "\n"
