"""Decision-provenance narratives: *why did each job start when it did?*

``repro obs explain run.jsonl`` reconstructs, from a JSONL trace alone:

1. the executed instance (``engine.release`` records carry arrival and
   starting deadline; lengths resolve from ``engine.completion``);
2. every start (``engine.start`` records);
3. the paper rule behind each start (``decision`` records emitted by the
   instrumented schedulers through ``self.obs.decision(...)``);

and then **cross-checks the story against** :func:`repro.core.audit`:
the schedule rebuilt from the trace must be feasible, and every start
the narrative explains must be a start the auditor accepts.  A trace
that tells a tale the auditor rejects is a bug — in the scheduler, the
instrumentation, or the engine — and the explanation says so loudly
instead of narrating fiction.

The same replay reconciles the **live telemetry plane**: every record
is fed through a :class:`~repro.obs.live.TenantTelemetry` (grouped by
the ``tenant`` attr serve sessions tag records with; untagged traces
form one anonymous group), proving at runtime that the incremental OPT
lower bound was monotone nondecreasing at every step and, once the
instance is fully reconstructed, that it never exceeded the certified
offline reference (:func:`repro.offline.lower_bounds.span_lower_bound`
through :class:`repro.perf.cache.ReferenceCache`).  ``--strict`` fails
on either violation: a live dashboard that over-claimed the lower bound
(and hence under-claimed the competitive ratio) is as much a bug as an
infeasible schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union

from ..core.audit import audit
from ..core.job import Instance, Job
from .jsonl import LoadedTrace
from .live import TenantTelemetry
from .recorder import TraceRecorder
from .records import (
    KIND_DECISION,
    KIND_INSTANT,
    ObsRecord,
    decision_vocabulary,
    describe_rule,
)

__all__ = ["Explanation", "JobStory", "explain_trace"]

#: Float slack for the live-LB ≤ certified-reference comparison.
_LB_TOLERANCE = 1e-9


@dataclass
class JobStory:
    """One job's reconstructed history and its start-decision provenance."""

    job_id: int
    #: the serve-session tenant the record stream was tagged with
    #: (``None`` for plain single-run traces).
    tenant: str | None = None
    arrival: float | None = None
    deadline: float | None = None
    start: float | None = None
    completion: float | None = None
    length: float | None = None
    #: decision records attributed to this job, in emission order.
    decisions: list[ObsRecord] = field(default_factory=list)

    @property
    def start_rule(self) -> str | None:
        """The rule that *started* the job: the last routing-free decision.

        CDB emits a ``class-boundary`` routing decision at arrival and
        the category's Batch+ later emits the actual start rule; the
        start rule is therefore the last non-routing decision at or
        before the start.
        """
        rules = [
            d.name
            for d in self.decisions
            if d.name != "class-boundary"
            and (self.start is None or float(d.attrs.get("t", -1.0)) <= self.start)
        ]
        return rules[-1] if rules else None

    @property
    def routing(self) -> ObsRecord | None:
        """The CDB ``class-boundary`` routing decision, if any."""
        for d in self.decisions:
            if d.name == "class-boundary":
                return d
        return None

    def narrative(self) -> str:
        """One or two lines: when the job started and which rule fired."""
        bits = [
            f"{self.tenant}/J{self.job_id}" if self.tenant else f"J{self.job_id}"
        ]
        if self.arrival is not None and self.deadline is not None:
            bits.append(f"window [{self.arrival:g}, d={self.deadline:g}]")
        if self.length is not None:
            bits.append(f"p={self.length:g}")
        head = "  ".join(bits)
        if self.start is None:
            return f"{head}\n    never started (trace truncated or run aborted)"
        rule = self.start_rule
        lines = [f"{head}\n    started at t={self.start:g}"]
        if rule is None:
            lines.append(
                "    rule: UNATTRIBUTED — no decision record; the scheduler "
                "did not report provenance for this start"
            )
        else:
            decision = next(
                d for d in reversed(self.decisions) if d.name == rule
            )
            detail = ", ".join(
                f"{k}={v}"
                for k, v in sorted(decision.attrs.items())
                if k not in ("job", "t", "scheduler")
            )
            scheduler = decision.attrs.get("scheduler", "?")
            lines.append(
                f"    rule: {rule} [{scheduler}] — {describe_rule(rule)}"
                + (f" ({detail})" if detail else "")
            )
        routing = self.routing
        if routing is not None:
            detail = ", ".join(
                f"{k}={v}"
                for k, v in sorted(routing.attrs.items())
                if k not in ("job", "t", "scheduler")
            )
            lines.append(f"    routed: class-boundary ({detail})")
        return "\n".join(lines)


@dataclass
class Explanation:
    """The full narrative plus the audit cross-check verdict."""

    stories: list[JobStory] = field(default_factory=list)
    attributed: int = 0
    unattributed: int = 0
    audit_feasible: bool | None = None
    audit_notes: list[str] = field(default_factory=list)
    #: decision names outside :data:`~repro.obs.records.DECISION_RULES`,
    #: with occurrence counts.
    unknown_rules: dict[str, int] = field(default_factory=dict)
    #: per-tenant live-LB reconciliation rows (``""`` = untagged trace):
    #: ``{span, live_lb, ratio, monotone, reference_lb, consistent}``.
    telemetry: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def fully_attributed(self) -> bool:
        """Every reconstructed start carries a paper rule."""
        return self.unattributed == 0

    @property
    def lb_monotone(self) -> bool | None:
        """The replayed live LB never decreased (``None``: nothing replayed)."""
        if not self.telemetry:
            return None
        return all(row["monotone"] for row in self.telemetry.values())

    @property
    def lb_consistent(self) -> bool | None:
        """Live LB ≤ certified offline reference for every tenant whose
        instance reconstructed completely (``None``: no reference)."""
        rows = [
            row for row in self.telemetry.values()
            if row["reference_lb"] is not None
        ]
        if not rows:
            return None
        return all(row["consistent"] for row in rows)

    @property
    def vocabulary_clean(self) -> bool:
        """Every decision record names a rule in the closed vocabulary."""
        return not self.unknown_rules

    def render(self, limit: int = 200) -> str:
        lines = [
            f"jobs      : {len(self.stories)} "
            f"({self.attributed} attributed, {self.unattributed} unattributed)"
        ]
        if self.audit_feasible is not None:
            verdict = "feasible" if self.audit_feasible else "INFEASIBLE"
            lines.append(f"audit     : {verdict} (schedule rebuilt from trace)")
        for note in self.audit_notes:
            lines.append(f"audit     : {note}")
        for name, count in sorted(self.unknown_rules.items()):
            lines.append(
                f"vocabulary: UNKNOWN rule {name!r} emitted {count}x — not in "
                "DECISION_RULES"
            )
        for name, row in sorted(self.telemetry.items()):
            label = name or "(trace)"
            ratio = row["ratio"]
            bits = [
                f"span={row['span']:g}",
                f"live LB={row['live_lb']:g}",
                f"ratio={ratio:.3f}" if ratio is not None else "ratio=-",
                "monotone" if row["monotone"] else "NON-MONOTONE",
            ]
            reference = row["reference_lb"]
            if reference is not None:
                verdict = (
                    "≤ certified reference"
                    if row["consistent"]
                    else "EXCEEDS certified reference"
                )
                bits.append(f"{verdict} {reference:g}")
            lines.append(f"telemetry : {label}: " + ", ".join(bits))
        lines.append("")
        for story in self.stories[:limit]:
            lines.append(story.narrative())
        if len(self.stories) > limit:
            lines.append(f"… {len(self.stories) - limit} more jobs")
        return "\n".join(lines)


def explain_trace(trace: Union[TraceRecorder, LoadedTrace]) -> Explanation:
    """Build the decision-provenance narrative for one trace."""
    stories: dict[tuple[str, int], JobStory] = {}

    def story(tenant: str, job_id: int) -> JobStory:
        st = stories.get((tenant, job_id))
        if st is None:
            st = stories[(tenant, job_id)] = JobStory(
                job_id, tenant=tenant or None
            )
        return st

    vocabulary = decision_vocabulary()
    unknown: dict[str, int] = {}
    # Live-telemetry replay: one estimator per tenant tag, with the
    # monotonicity of the incremental OPT LB checked at every record.
    replays: dict[str, TenantTelemetry] = {}
    monotone: dict[str, bool] = {}

    for record in trace.records:
        tenant = str(record.attrs.get("tenant") or "")
        if record.kind in (KIND_DECISION, KIND_INSTANT):
            telemetry = replays.get(tenant)
            if telemetry is None:
                telemetry = replays[tenant] = TenantTelemetry(tenant or "(trace)")
                monotone[tenant] = True
            before = telemetry.lb.value
            telemetry.observe(record)
            if telemetry.lb.value < before:
                monotone[tenant] = False
        if record.kind == KIND_DECISION:
            if record.name not in vocabulary:
                unknown[record.name] = unknown.get(record.name, 0) + 1
            job = record.attrs.get("job")
            if job is not None:
                story(tenant, int(job)).decisions.append(record)
            continue
        if record.kind != KIND_INSTANT:
            continue
        job = record.attrs.get("job")
        if job is None:
            continue
        st = story(tenant, int(job))
        t = float(record.attrs.get("t", record.ts))
        if record.name == "engine.release":
            st.arrival = float(record.attrs.get("arrival", t))
            deadline = record.attrs.get("deadline")
            st.deadline = float(deadline) if deadline is not None else None
            length = record.attrs.get("length")
            if length is not None:
                st.length = float(length)
        elif record.name == "engine.start":
            st.start = t
        elif record.name == "engine.completion":
            st.completion = t
            length = record.attrs.get("length")
            if length is not None:
                st.length = float(length)
            elif st.start is not None:
                st.length = t - st.start

    explanation = Explanation(
        stories=sorted(
            stories.values(), key=lambda s: (s.tenant or "", s.job_id)
        ),
        unknown_rules=unknown,
    )
    for st in explanation.stories:
        if st.start is None:
            continue
        if st.start_rule is None:
            explanation.unattributed += 1
        else:
            explanation.attributed += 1

    # ---- audit cross-check + live-LB reconciliation -----------------------
    # Per tenant group: merged multi-tenant traces carry independent job
    # id spaces and independent engine clocks, so each group rebuilds
    # (and audits, and reconciles) its own instance.
    groups: dict[str, list[JobStory]] = {}
    for st in explanation.stories:
        groups.setdefault(st.tenant or "", []).append(st)

    feasible: bool | None = None
    audited_any = False
    incomplete_any = False
    reference_fn = None
    for tenant, group in sorted(groups.items()):
        jobs: list[Job] = []
        starts: dict[int, float] = {}
        complete = True
        for st in group:
            if st.arrival is None or st.deadline is None or st.length is None:
                complete = False
                incomplete_any = True
                continue
            jobs.append(
                Job(
                    id=st.job_id,
                    arrival=st.arrival,
                    deadline=st.deadline,
                    length=st.length,
                )
            )
            if st.start is not None:
                starts[st.job_id] = st.start
        if jobs:
            audited_any = True
            name = "rebuilt-from-trace" + (f":{tenant}" if tenant else "")
            report = audit(Instance(jobs, name=name), starts)
            feasible = (
                report.feasible
                if feasible is None
                else (feasible and report.feasible)
            )
            prefix = f"{tenant}: " if tenant else ""
            for finding in report.violations:
                explanation.audit_notes.append(
                    f"{prefix}{finding.code}: {finding.message}"
                )
        telemetry = replays.get(tenant)
        if telemetry is None:
            continue
        live_lb = telemetry.lb.value
        reference: float | None = None
        consistent: bool | None = None
        if jobs and complete:
            if reference_fn is None:
                from ..offline import span_lower_bound
                from ..perf import cached_reference

                reference_fn = cached_reference(span_lower_bound)
            reference = float(
                reference_fn(
                    Instance(
                        jobs,
                        name="telemetry-reconcile"
                        + (f":{tenant}" if tenant else ""),
                    )
                )
            )
            consistent = live_lb <= reference + _LB_TOLERANCE
        explanation.telemetry[tenant] = {
            "span": telemetry.span,
            "live_lb": live_lb,
            "ratio": telemetry.ratio,
            "monotone": monotone[tenant],
            "reference_lb": reference,
            "consistent": consistent,
        }
    explanation.audit_feasible = feasible
    if audited_any and incomplete_any:
        explanation.audit_notes.append(
            "partial reconstruction: some jobs lacked release/completion "
            "records and were excluded from the audit"
        )
    if not audited_any and explanation.stories:
        explanation.audit_notes.append(
            "no auditable jobs reconstructed (trace lacks engine.release records)"
        )
    return explanation
