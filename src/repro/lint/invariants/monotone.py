"""RL016: heap-push keys and engine clock writes are monotone.

The event loop's core soundness argument is that the heap only ever
contains events at or after the current clock, and the clock only moves
forward.  Both cores enforce this dynamically with raise-guards
(``if when < self._now: raise``); this rule proves it statically for
every push site whose kind slot names an event kind, by checking the
pushed key against a small proof system:

* ``now`` / ``now + <expr>`` expressions are trivially current-or-future;
* leaves raise-guarded against the clock in the pushing function (or in
  a directly-called same-class helper), including the vectorised form
  ``past = completions < now; if past.any(): raise``;
* leaves bound from a clock-anchored expression (``completion = now +
  length``);
* locals returned by a same-class helper that itself clock-guards its
  result (``whens = self._decision_times(...)``);
* the admission axioms ``arrival`` and ``deadline``: admission rejects
  ``job.arrival < now`` and the ``Job`` constructor enforces
  ``deadline >= arrival``, so both are current-or-future whenever an
  admitted job is in scope.

List-mirror aliases (``completions_l``, ``deadline_list``) normalise to
their column name before lookup.  Push sites whose kind slot is not an
event-kind name (generic queue plumbing, test doubles) are out of scope
by construction — extraction never records them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..base import ProgramRule, register
from ..findings import LintFinding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dataflow.program import Program
    from ..dataflow.summary import ClassSummary, FunctionSummary

__all__ = ["TimeMonotonicityRule"]

#: Leaves that are current-or-future by admission/constructor invariant.
_AXIOM_LEAVES = {"arrival", "deadline"}

_LIST_SUFFIXES = ("_list", "_l")


def _normalize(leaf: str) -> str:
    for suffix in _LIST_SUFFIXES:
        if leaf.endswith(suffix) and len(leaf) > len(suffix):
            return leaf[: -len(suffix)]
    return leaf


def _same_class_method(
    cls: "ClassSummary | None", callee: str
) -> "FunctionSummary | None":
    if cls is None or not callee.startswith("self."):
        return None
    leaf = callee[5:]
    if "." in leaf:
        return None
    return cls.methods.get(leaf)


@register
class TimeMonotonicityRule(ProgramRule):
    """RL016: an event is pushed with a key not provably >= the current
    clock, or the clock itself is written from an unguarded value.

    Why: a single past-dated event silently reorders the replay — the
    heap pops it "next", handlers observe a clock that jumped backwards,
    and every span/trace downstream is wrong without any exception
    firing on the fast path.  Both cores guard dynamically; this rule
    makes the guard placement itself a checked invariant, so deleting a
    guard (or adding an unguarded push) fails lint instead of corrupting
    traces at runtime.

    A push key is accepted when it is a ``now``-anchored expression, a
    leaf that is raise-guarded against the clock (scalar or vectorised
    compare-local form, in the pusher or a directly-called same-class
    helper), a local bound from a clock-guarding helper call, or one of
    the admission axioms (``arrival``, ``deadline``).  Clock writes
    (``self._now = x``) must be constants or guarded/anchored leaves.

    Offending::

        queue.push(job.arrival - 1.0, EventKind.ARRIVAL, job.id)

    Clean::

        if when < self._now:
            raise SimulationError(...)
        queue.push(when, EventKind.ASSIGN, job.id)
    """

    code = "RL016"
    name = "time-monotonicity"
    severity = "error"
    description = "heap keys and clock updates must be monotone"

    def check_program(self, program: "Program") -> Iterator[LintFinding]:
        for fqid, fn, fs, cls_name in program.all_functions():
            cls = None
            if cls_name is not None:
                cls = fs.classes.get(cls_name)
            if fn.push_keys:
                provable = self._provable_leaves(fn, cls)
                for desc, kind, line, col in fn.push_keys:
                    if self._key_ok(desc, provable):
                        continue
                    if fs.is_suppressed(line, self.code):
                        continue
                    shown = desc if isinstance(desc, str) else "<expr>"
                    yield self.program_finding(
                        fs.path,
                        line,
                        col,
                        f"push key {shown!r} for event kind {kind} is not "
                        "provably >= the current clock (no guard, anchor, "
                        "or admission axiom applies)",
                        symbol=fqid,
                    )
            for desc, line in fn.now_writes:
                if self._clock_ok(desc, fn):
                    continue
                if fs.is_suppressed(line, self.code):
                    continue
                shown = desc if isinstance(desc, str) else "<expr>"
                yield self.program_finding(
                    fs.path,
                    line,
                    0,
                    f"clock write from {shown!r} is not provably monotone "
                    "(not a constant, clock expression, or guarded leaf)",
                    symbol=fqid,
                )

    # -- proof system --------------------------------------------------------
    def _provable_leaves(
        self, fn: "FunctionSummary", cls: "ClassSummary | None"
    ) -> set[str]:
        out = set(_AXIOM_LEAVES)
        out.update(fn.now_guards)
        out.update(fn.now_anchored)
        # Guards established by directly-called same-class helpers apply
        # to the values they vet (one level deep).
        for cs in fn.calls:
            callee = _same_class_method(cls, cs.callee)
            if callee is not None:
                out.update(callee.now_guards)
        # Locals bound from a helper whose result is clock-guarded.
        for local, callee_name in fn.call_assigns:
            callee = _same_class_method(cls, callee_name)
            if callee is not None and callee.now_guards:
                out.add(local)
        return out

    @staticmethod
    def _key_ok(desc: object, provable: set[str]) -> bool:
        if desc in ("now", "now+"):
            return True
        if not isinstance(desc, str):
            return False
        return desc in provable or _normalize(desc) in provable

    @staticmethod
    def _clock_ok(desc: object, fn: "FunctionSummary") -> bool:
        if desc in ("const", "now", "now+"):
            return True
        if not isinstance(desc, str):
            return False
        if desc == "_now":
            return True  # restoring from another clock field
        ok = set(fn.now_guards) | set(fn.now_anchored)
        return desc in ok or _normalize(desc) in ok
