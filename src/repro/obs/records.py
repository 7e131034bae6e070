"""Structured observability records and the decision-rule vocabulary.

Everything the :mod:`repro.obs` layer emits is an :class:`ObsRecord`: a
flat, JSON-serialisable ``(ts, kind, name, attrs)`` quadruple.  ``ts`` is
*wall-clock* time relative to the recorder's epoch (what profiles and the
Chrome exporter need); simulation time, when meaningful, travels in
``attrs["t"]`` (what the decision-provenance narrative needs).  Keeping
the two clocks separate is deliberate: a span is a wall-clock concept, a
scheduler decision is a simulation-time concept, and conflating them is
how trace tooling becomes unusable.

Decision provenance
-------------------
Every start decision an instrumented scheduler makes is recorded with one
of the :data:`DECISION_RULES` — the paper's own rule vocabulary:

``deadline-flag``
    A pending job reached its starting deadline ``d(J)`` and was
    designated the iteration's flag job (Batch / Batch+ / CDB category /
    Profit, §3.2 / §4.2 / §4.3).
``batch-start``
    Started because the current flag's batch fired at ``d(J_f)``.
``open-phase``
    Batch+ open phase: arrived while the flag was running and started
    immediately (Theorem 3.5's μ-threshold argument — the job starts
    before ``d(J_f) + p(J_f)``, bounding the iteration span by
    ``(μ+1)·p(J_f)``).
``class-boundary``
    CDB routed the job into duration category ``i`` with
    ``b·α^(i-1) < p(J) <= b·α^i`` (Theorem 4.4).
``profit-gain``
    Profit's gain test passed: at a flag start ``p(J) <= k·p(J_f)``, or
    at arrival ``p(J) <= k·(d(J_f)+p(J_f)-a(J))`` (Theorem 4.11).
``epoch``
    EpochBatch's fixed-period batch point fired (practitioner baseline;
    no paper guarantee).
``deadline-backstop``
    EpochBatch's per-job backstop: the starting deadline arrived strictly
    between epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "DECISION_RULES",
    "KIND_COUNTER",
    "KIND_DECISION",
    "KIND_GAUGE",
    "KIND_INSTANT",
    "KIND_SPAN_BEGIN",
    "KIND_SPAN_END",
    "ObsRecord",
    "decision_vocabulary",
    "describe_rule",
]

# Record kinds (the JSONL ``kind`` field).
KIND_INSTANT = "instant"
KIND_DECISION = "decision"
KIND_SPAN_BEGIN = "span_begin"
KIND_SPAN_END = "span_end"
KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"

#: The paper-rule vocabulary for scheduler start decisions, with the
#: one-line narrative used by ``repro obs explain``.
DECISION_RULES: dict[str, str] = {
    "deadline-flag": (
        "starting deadline d(J) reached while pending — designated flag job"
    ),
    "batch-start": "started in the flag job's batch at d(J_f)",
    "open-phase": (
        "arrived during the flag's run — Batch+ open phase starts it at once"
    ),
    "class-boundary": (
        "classified into CDB duration category i with b*alpha^(i-1) < p <= b*alpha^i"
    ),
    "profit-gain": (
        "Profit gain test passed: >= 1/k of the job's run overlaps a flag's run"
    ),
    "epoch": "EpochBatch fixed-period batch point fired",
    "deadline-backstop": (
        "starting deadline arrived strictly between epochs (EpochBatch backstop)"
    ),
}


def decision_vocabulary() -> frozenset[str]:
    """The closed set of legal decision-rule names.

    Every ``obs.decision(reason, ...)`` a scheduler emits must name one
    of these rules, and every rule must be reachable from some scheduler
    (``tests/test_obs_explain.py`` checks both directions).
    ``repro obs explain --strict`` rejects traces that violate it.
    """
    return frozenset(DECISION_RULES)


def describe_rule(rule: str) -> str:
    """The one-line narrative for a decision rule (or a shrug)."""
    return DECISION_RULES.get(rule, "(rule not in the paper vocabulary)")


@dataclass(frozen=True, slots=True)
class ObsRecord:
    """One structured observability record.

    Attributes
    ----------
    ts:
        Wall-clock seconds since the recorder's epoch.
    kind:
        One of the ``KIND_*`` constants.
    name:
        The record's name: an event name (``engine.start``), a span name
        (``engine.run``), or — for decisions — the rule that fired.
    attrs:
        Flat JSON-serialisable attributes.  Convention: ``t`` is
        simulation time, ``job`` a job id, ``scheduler`` the registry
        name of the deciding scheduler.
    """

    ts: float
    kind: str
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"ts": self.ts, "kind": self.kind, "name": self.name, "attrs": self.attrs}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ObsRecord":
        return cls(
            ts=float(d["ts"]),
            kind=str(d["kind"]),
            name=str(d["name"]),
            attrs=dict(d.get("attrs", {})),
        )
