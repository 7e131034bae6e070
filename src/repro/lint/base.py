"""Rule plumbing: file context, suppressions, and the rule registry.

A :class:`Rule` sees one parsed file at a time through a
:class:`FileContext` — the AST, the raw source lines, and the
repo-relative path — and yields :class:`~repro.lint.findings.LintFinding`
objects.  Rules self-register via the :func:`register` decorator so that
adding a rule is one new module with no runner changes.

Suppressions
------------
A finding is dropped when its source line carries either of::

    ...  # lint: ignore[RL003]
    ...  # noqa: RL003

Multiple codes may be comma-separated (``# lint: ignore[RL003,RL012]``);
a bare ``# lint: ignore`` or ``# noqa`` (no codes) suppresses every rule
on that line.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Iterable, Iterator, Type

from .findings import LintFinding

__all__ = [
    "ALL_RULES",
    "FileContext",
    "ProgramRule",
    "Rule",
    "register",
    "rule_by_code",
]

_SUPPRESS_RE = re.compile(
    r"#\s*(?:lint:\s*ignore(?:\[(?P<lint_codes>[A-Z0-9,\s]+)\])?"
    r"|noqa(?::\s*(?P<noqa_codes>[A-Z0-9,\s]+))?)"
)


class FileContext:
    """Everything a rule may inspect about one source file.

    ``path`` is the path findings report; ``scope`` is the path from the
    package root (``repro/offline/heuristics.py``), which path-scoped
    rules match whatever directory or file the run was pointed at.
    """

    def __init__(
        self, path: str, source: str, tree: ast.Module, scope: str | None = None
    ) -> None:
        self.path = path
        self.scope = path if scope is None else scope
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: line number -> set of suppressed codes ("*" = all rules)
        self.suppressions: dict[int, set[str]] = _parse_suppressions(self.lines)

    def is_suppressed(self, line: int, code: str) -> bool:
        codes = self.suppressions.get(line)
        return codes is not None and ("*" in codes or code in codes)


def _parse_suppressions(lines: list[str]) -> dict[int, set[str]]:
    out: dict[int, set[str]] = {}
    for i, text in enumerate(lines, start=1):
        if "#" not in text:
            continue
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        raw = m.group("lint_codes") or m.group("noqa_codes")
        if raw is None:
            out[i] = {"*"}
        else:
            out[i] = {c.strip() for c in raw.split(",") if c.strip()}
    return out


class Rule:
    """Base class for one static-analysis rule.

    Subclasses set the class attributes and implement :meth:`check`.
    ``applies_to`` narrows the rule to relevant files by their
    package-rooted path (e.g. RL003 only inspects theorem-certification
    modules); the default scans all files.
    """

    code: str = "RL000"
    name: str = "unnamed"
    severity: str = "error"
    description: str = ""

    def applies_to(self, path: str) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[LintFinding]:
        raise NotImplementedError  # pragma: no cover - abstract

    # -- helpers for subclasses ------------------------------------------
    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        symbol: str = "",
    ) -> LintFinding:
        return LintFinding(
            rule=self.code,
            severity=self.severity,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


class ProgramRule(Rule):
    """Base class for a *whole-program* rule (RL007, RL017–RL021).

    Unlike :class:`Rule`, which sees one file at a time, a program rule
    receives the assembled :class:`~repro.lint.dataflow.Program` — the
    cross-module symbol table, call graph, and fixpoint analyses — and
    may report findings in any scanned file.  Program rules are executed
    by the runner after the per-file phase; they are inert under
    :func:`~repro.lint.runner.lint_source` (a single in-memory string
    has no whole-program context).

    The runner drops a finding whose line carries a suppression
    (``# lint: ignore[RL007]``): each
    :class:`~repro.lint.dataflow.FileSummary` carries its file's
    suppression table.
    """

    def check(self, ctx: FileContext) -> Iterator[LintFinding]:
        return iter(())  # program rules do not run per-file

    def check_program(self, program: "object") -> Iterator[LintFinding]:
        """Yield findings over the whole program.

        ``program`` is a :class:`repro.lint.dataflow.Program`; typed as
        ``object`` here to keep :mod:`repro.lint.base` import-light (the
        dataflow package imports this module).
        """
        raise NotImplementedError  # pragma: no cover - abstract

    # -- helpers for subclasses ------------------------------------------
    def program_finding(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        symbol: str = "",
    ) -> LintFinding:
        return LintFinding(
            rule=self.code,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
            symbol=symbol,
        )


#: Registry of rule *instances*, in registration (= code) order.
ALL_RULES: list[Rule] = []


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule."""
    rule = cls()
    if any(r.code == rule.code for r in ALL_RULES):
        raise ValueError(f"duplicate lint rule code {rule.code}")
    ALL_RULES.append(rule)
    ALL_RULES.sort(key=lambda r: r.code)
    return cls


def rule_by_code(code: str) -> Rule:
    for rule in ALL_RULES:
        if rule.code == code:
            return rule
    raise KeyError(f"unknown lint rule {code!r}")


def run_rules(
    ctx: FileContext,
    rules: Iterable[Rule],
    *,
    on_suppressed: Callable[[LintFinding], None] | None = None,
) -> list[LintFinding]:
    """Run every applicable rule over one file, honouring suppressions."""
    out: list[LintFinding] = []
    for rule in rules:
        if not rule.applies_to(ctx.scope):
            continue
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding.line, finding.rule):
                if on_suppressed is not None:
                    on_suppressed(finding)
                continue
            out.append(finding)
    return out
