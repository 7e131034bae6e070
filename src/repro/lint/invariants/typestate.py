"""RL014: job-lifecycle typestate over the engine and schedulers.

The job lifecycle is a one-way street::

    ADMITTED --arrival--> PENDING --start--> RUNNING --completion--> DONE

The engine encodes it as the ``state`` int8 column over the
``_ADMITTED``/``_PENDING``/``_RUNNING``/``_DONE`` constants (boolean
``arrived``/``completed`` fields on per-job state objects are checked
the same way).  This rule checks each lifecycle write site sits in
a method whose event phase may legally perform that transition, and that
no instrumented scheduler can start jobs from a deadline event without
emitting the paper's deadline decision (``deadline-flag`` or
``deadline-backstop``) somewhere on that path — the "no silent start
past the deadline" half of the backstop contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..base import ProgramRule, register
from ..findings import LintFinding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataflow.program import Program
    from ..dataflow.summary import FileSummary, FunctionSummary

__all__ = ["LifecycleTypestateRule"]

#: Module opts into lifecycle checking when it defines at least this many
#: of the state constants below.
_STATE_CONSTS = ("_ADMITTED", "_PENDING", "_RUNNING", "_DONE")
_MIN_STATE_CONSTS = 3

#: Lifecycle value written -> method phases allowed to write it.
_LEGAL_PHASES = {
    "_ADMITTED": {"init"},
    "ADMITTED": {"init"},
    "_PENDING": {"arrival", "init"},
    "PENDING": {"arrival", "init"},
    "_RUNNING": {"start"},
    "RUNNING": {"start"},
    "_DONE": {"completion"},
    "DONE": {"completion"},
}

#: Boolean lifecycle fields (per-job state objects) -> phases allowed to
#: set them.
_BOOL_FIELDS = {
    "arrived": {"arrival", "init"},
    "completed": {"completion", "init"},
}

#: Method-name substring -> event phase, first match wins.  Order
#: matters: ``_handle_completion`` must hit "complet" before anything
#: else, ``_validate_admission`` hits "admi".
_PHASE_BY_NAME = (
    ("arrival", "arrival"),
    ("complet", "completion"),
    ("deadline", "deadline"),
    ("start", "start"),
    ("admi", "init"),
    ("append", "init"),
    ("reset", "init"),
    ("init", "init"),
)

_DEADLINE_REASONS = {"deadline-flag", "deadline-backstop"}


def _phase_of(method_name: str) -> str | None:
    leaf = method_name.rsplit(".", 1)[-1].lower()
    for needle, phase in _PHASE_BY_NAME:
        if needle in leaf:
            return phase
    return None


def _decision_reasons(fn: "FunctionSummary") -> list[tuple[str | None, int]]:
    """Const reasons of ``obs.decision(...)`` call sites in ``fn``."""
    out: list[tuple[str | None, int]] = []
    for cs in fn.calls:
        parts = cs.callee.split(".")
        if parts[-1] != "decision" or "obs" not in parts[:-1]:
            continue
        reason: str | None = None
        if cs.args:
            desc = cs.args[0]
            if desc.get("kind") == "const" and desc["const"].get("k") == "str":
                reason = desc["const"]["v"]
        out.append((reason, cs.lineno))
    return out


def _starts_jobs(fn: "FunctionSummary") -> bool:
    """Does ``fn`` call ``ctx.start``/``ctx.start_batch`` on its context
    parameter (the second positional parameter by engine convention)?"""
    if len(fn.params) < 2:
        return False
    ctx = fn.params[1]
    for cs in fn.calls:
        parts = cs.callee.split(".")
        if parts[0] == ctx and parts[-1] in ("start", "start_batch"):
            return True
    return False


@register
class LifecycleTypestateRule(ProgramRule):
    """RL014: a write site violates the job-lifecycle typestate, or a
    scheduler starts jobs from a deadline without the deadline decision.

    Why: PENDING→RUNNING→DONE is the invariant both engine cores and
    the paper's correctness arguments lean on — a completion handler
    that re-pends a job, or an admission path that marks jobs RUNNING,
    silently corrupts the span accounting that every theorem bound is
    measured against.  The deadline half guards the paper's backstop
    contract: any path that starts jobs in response to a deadline event
    must attribute those starts to ``deadline-flag`` or
    ``deadline-backstop``, or ``repro obs explain --strict`` can no
    longer reconcile the trace.

    Scope: modules that define most of the
    ``_ADMITTED``/``_PENDING``/``_RUNNING``/``_DONE`` constants (the
    lifecycle half), and scheduler classes that emit at least one
    decision record (the deadline half — uninstrumented schedulers are
    out of the provenance contract).

    Offending::

        def _handle_completion(self, idx):
            table.state[idx] = _PENDING     # completion may not re-pend

    Clean::

        def _handle_completion(self, idx):
            table.state[idx] = _DONE
    """

    code = "RL014"
    name = "lifecycle-typestate"
    severity = "error"
    description = "job lifecycle transition written in an illegal phase"

    def check_program(self, program: "Program") -> Iterator[LintFinding]:
        for module in sorted(program.modules):
            fs = program.modules[module]
            if self._in_scope(fs):
                yield from self._check_lifecycle(fs)
        for cls_fq in program.scheduler_classes():
            yield from self._check_deadline_starts(program, cls_fq)

    # -- lifecycle half ------------------------------------------------------
    @staticmethod
    def _in_scope(fs: "FileSummary") -> bool:
        n = sum(1 for c in _STATE_CONSTS if c in fs.constants)
        return n >= _MIN_STATE_CONSTS

    def _check_lifecycle(self, fs: "FileSummary") -> Iterator[LintFinding]:
        for cls in fs.classes.values():
            for mname, fn in sorted(cls.methods.items()):
                phase = _phase_of(mname)
                for field, value, line, col in fn.state_writes:
                    legal = None
                    if field in _BOOL_FIELDS and value == "const":
                        legal = _BOOL_FIELDS[field]
                        written = field
                    elif isinstance(value, str) and value in _LEGAL_PHASES:
                        legal = _LEGAL_PHASES[value]
                        written = value
                    if legal is None:
                        continue
                    if phase is None:
                        continue  # no event phase claim for this method
                    if phase not in legal:
                        if fs.is_suppressed(line, self.code):
                            continue
                        yield self.program_finding(
                            fs.path,
                            line,
                            col,
                            f"lifecycle write {written!r} in {mname} "
                            f"(phase {phase!r}) — legal phases are "
                            f"{sorted(legal)}",
                            symbol=f"{cls.name}.{mname}",
                        )

    # -- deadline half -------------------------------------------------------
    def _check_deadline_starts(
        self, program: "Program", cls_fq: str
    ) -> Iterator[LintFinding]:
        cls = program.classes[cls_fq]
        emits_any = any(
            _decision_reasons(fn) for fn in cls.methods.values()
        )
        if not emits_any:
            return
        resolved = program.lookup_method(cls_fq, "on_deadline")
        if resolved is None:
            return
        # Same-class (MRO-resolved) call closure from on_deadline.
        closure: list["FunctionSummary"] = []
        seen: set[str] = set()
        stack = ["on_deadline"]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            hit = program.lookup_method(cls_fq, name)
            if hit is None:
                continue
            _owner, fn = hit
            closure.append(fn)
            for cs in fn.calls:
                if cs.callee.startswith("self.") and "." not in cs.callee[5:]:
                    stack.append(cs.callee[5:])
        if not any(_starts_jobs(fn) for fn in closure):
            return
        reasons = {
            r for fn in closure for r, _line in _decision_reasons(fn)
        }
        if reasons & _DEADLINE_REASONS:
            return
        owner, entry = resolved
        fs = program.class_file[cls_fq]
        # Anchor at the subclass itself when on_deadline is inherited.
        line = entry.lineno if owner == cls_fq else cls.lineno
        if fs.is_suppressed(line, self.code):
            return
        yield self.program_finding(
            fs.path,
            line,
            0,
            f"{cls.name} starts jobs from on_deadline without emitting a "
            f"{sorted(_DEADLINE_REASONS)} decision on any path — the "
            "deadline backstop is unattributable",
            symbol=f"{cls.name}.on_deadline",
        )
