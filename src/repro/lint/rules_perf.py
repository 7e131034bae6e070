"""RL012 — hot-path object allocation (columnar-core discipline).

The rationale and snippets are :class:`HotPathAllocRule`'s docstring,
which ``python -m repro lint --explain RL012`` prints.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule, register
from .findings import LintFinding

__all__ = ["HOT_CORE_FRAGMENTS", "HOT_SECTION_PREFIXES", "HotPathAllocRule"]

#: The files whose hot sections RL012 polices.  The serve package rides
#: along: its per-op paths run once per protocol line, and per-job
#: object materialisation belongs at its protocol boundary
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

#: Per-job object constructors that must not run per event.
_PER_JOB_TYPES = frozenset({"Job", "JobView"})

_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp)


def _is_hot_section(name: str) -> bool:
    return name.startswith(HOT_SECTION_PREFIXES)


def _attr_on(node: ast.expr, names: set[str]) -> bool:
    """Whether ``node`` is an attribute read rooted at one of ``names``."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in names
    )


def _comp_targets(node: ast.ListComp | ast.SetComp | ast.GeneratorExp) -> set[str]:
    out: set[str] = set()
    for gen in node.generators:
        for sub in ast.walk(gen.target):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
    return out


@register
class HotPathAllocRule(Rule):
    """RL012 — per-job object allocation in an engine-core hot section.

    The columnar core's throughput rests on the hot loop never touching
    per-job Python objects: events carry row indexes, scalar reads go
    through the ``JobTable`` list mirrors, vector math through the NumPy
    columns, and ``Job``/``JobView`` objects exist only at API
    boundaries (lazily cached by ``JobTable.job`` and
    ``ColumnarCore._view``).  This rule keeps it that way: inside hot
    sections of the files in :data:`HOT_CORE_FRAGMENTS` (the engine
    core, the serving layer, the live telemetry feed) — functions named
    ``_dispatch*``, ``_handle_*``, ``_cohort_*``, ``_complete_*``,
    ``_assign_*``, ``_gather*``, ``_start_*``, ``_push_*`` — it flags

    * ``Job(...)`` / ``JobView(...)`` constructor calls, and
    * per-job attribute-gather loops: a comprehension whose element is
      an attribute read off the loop variable, or a ``for`` loop whose
      body appends such a read — both signs of walking objects where a
      column slice or list mirror belongs.

    Offending::

        def _handle_completion(self, idx):
            job = Job(id=idx, arrival=0.0, deadline=1.0)     # RL012
            deadlines = [j.deadline for j in self._pending]  # RL012

    Clean::

        def _handle_completion(self, idx):
            jid = self._table.ids_list[idx]          # list-mirror read
            deadlines = self._table.deadline[rows]   # column slice

    One-off materialisations on error paths (outside loops) pass; a
    deliberate in-loop materialisation takes an explicit
    ``# lint: ignore[RL012]``.
    """

    code = "RL012"
    name = "hot-path-object-alloc"
    description = (
        "per-job object construction or attribute-gather loop in an "
        "engine-core hot section — use JobTable row indexes, column "
        "slices, and list mirrors instead"
    )

    def applies_to(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return any(frag in normalized for frag in HOT_CORE_FRAGMENTS)

    def check(self, ctx: FileContext) -> Iterator[LintFinding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_hot_section(node.name):
                    yield from self._check_hot_section(ctx, node)

    def _check_hot_section(
        self, ctx: FileContext, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[LintFinding]:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in _PER_JOB_TYPES:
                    yield self.finding(
                        ctx,
                        node,
                        f"{func.id}(...) constructed in hot section "
                        f"{fn.name}(): hot code addresses jobs by row "
                        "index; materialise objects only at API "
                        "boundaries (JobTable.job / ColumnarCore._view)",
                        symbol=func.id,
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                if _attr_on(node.elt, _comp_targets(node)):
                    yield self.finding(
                        ctx,
                        node,
                        "per-job attribute gather in hot section "
                        f"{fn.name}(): slice the JobTable column (or "
                        "read its list mirror) instead of walking views",
                        symbol=fn.name,
                    )
            elif isinstance(node, ast.For):
                yield from self._check_for_gather(ctx, fn, node)

    def _check_for_gather(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        loop: ast.For,
    ) -> Iterator[LintFinding]:
        targets = {
            sub.id for sub in ast.walk(loop.target) if isinstance(sub, ast.Name)
        }
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and len(node.args) == 1
                and _attr_on(node.args[0], targets)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "per-job attribute gather in hot section "
                    f"{fn.name}(): slice the JobTable column (or read "
                    "its list mirror) instead of walking views",
                    symbol=fn.name,
                )
