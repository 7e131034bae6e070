"""File discovery and rule execution.

``lint_paths`` is the programmatic entry (the CLI and tests call it);
``lint_source`` lints one in-memory source string, which is what the
rule unit tests use.  Paths in findings are reported relative to the
scan root; path-scoped rules match the path from the package root
instead (``repro/offline/heuristics.py``), so linting a subpackage or a
single file applies the same rules as linting the whole tree.

A lint run has two phases:

1. **Per-file** — parse, run the per-file rules (RL003, RL012), and
   extract a :class:`~repro.lint.dataflow.FileSummary`.  An
   :class:`~repro.lint.dataflow.AnalysisCache` replays unchanged files
   from their content hash (``LintReport.files_reanalyzed`` counts the
   misses).
2. **Whole-program** — assemble the summaries into a
   :class:`~repro.lint.dataflow.Program` and run the
   :class:`~repro.lint.base.ProgramRule` set (RL007, RL017–RL021).
   This phase consumes summaries only, so its verdicts are identical
   whether the per-file facts came from a fresh parse or a cache hit.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Iterable, Sequence

from .base import ALL_RULES, FileContext, ProgramRule, Rule, rule_by_code, run_rules
from .findings import LintFinding, LintReport

__all__ = ["default_target", "discover_files", "lint_paths", "lint_source"]

_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache", "build", "dist"}


def default_target() -> Path:
    """The installed ``repro`` package source tree (``…/src/repro``)."""
    return Path(__file__).resolve().parents[1]


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for p in paths:
        path = Path(p)
        if path.is_dir():
            for f in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in f.parts):
                    out.add(f)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _relative_to_root(file: Path, roots: Sequence[Path]) -> str:
    resolved = file.resolve()
    for root in roots:
        try:
            rel = resolved.relative_to(root.resolve())
        except ValueError:
            continue
        if root.is_dir():
            return str(Path(root.name) / rel)
        # ``root`` is the file itself (rel == "."): anchor on its parent so
        # single-file targets render as "pkg/mod.py", not ".".
        return str(Path(root.parent.name) / root.name)
    return str(file)


def _package_path(module: str, file: Path) -> str:
    """The file's path from its top-level package (``repro/core/engine.py``)."""
    stem = module.replace(".", "/")
    return f"{stem}/__init__.py" if file.name == "__init__.py" else f"{stem}.py"


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Iterable[Rule] | None = None,
) -> list[LintFinding]:
    """Lint one source string (unit-test entry point).

    ``path`` participates in rule scoping (e.g. RL003 only fires for
    paths under ``offline/``), so tests pass a representative fake path.
    Program rules are inert here: a lone source string has no
    whole-program context.
    """
    tree = ast.parse(source, filename=path)
    ctx = FileContext(path, source, tree)
    return run_rules(ctx, list(rules) if rules is not None else ALL_RULES)


def _analyze_one(rel: str, file: Path, codes: list[str]) -> dict[str, Any]:
    """Per-file phase for one file.

    Returns a pure-data record — finding dicts, the suppression count,
    and the :class:`FileSummary` dict — identical in shape to what the
    incremental cache stores, so fresh and cached files merge through
    the same code.
    """
    from .dataflow import extract_summary, module_name_for

    source = file.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(file))
    except SyntaxError as exc:
        finding = LintFinding(
            rule="RL000",
            severity="error",
            path=rel,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"syntax error: {exc.msg}",
        )
        return {"findings": [finding.to_dict()], "suppressed": 0, "summary": None}
    module = module_name_for(file)
    ctx = FileContext(rel, source, tree, scope=_package_path(module, file))
    rules = [rule_by_code(c) for c in codes]

    suppressed = 0

    def count_suppressed(_f: LintFinding) -> None:
        nonlocal suppressed
        suppressed += 1

    findings = run_rules(ctx, rules, on_suppressed=count_suppressed)
    summary = extract_summary(rel, tree, module, ctx.suppressions)
    return {
        "findings": [f.to_dict() for f in findings],
        "suppressed": suppressed,
        "summary": summary.to_dict(),
    }


def lint_paths(
    paths: Sequence[str | Path] | None = None,
    *,
    rules: Iterable[Rule] | None = None,
    cache: "Any | None" = None,
) -> LintReport:
    """Lint files/directories and return an aggregate report.

    Parameters
    ----------
    paths:
        Files or directories; defaults to the installed package tree.
    rules:
        Subset of rules to run (default: all registered rules).
    cache:
        An :class:`~repro.lint.dataflow.AnalysisCache`; unchanged files
        replay from it and ``report.files_reanalyzed`` counts the rest.
    """
    from .dataflow import FileSummary, Program
    from .dataflow.cache import file_key, ruleset_digest

    targets = [Path(p) for p in (paths if paths else [default_target()])]
    files = discover_files(targets)
    active = list(rules) if rules is not None else list(ALL_RULES)
    per_file_codes = [r.code for r in active if not isinstance(r, ProgramRule)]
    program_rules = [r for r in active if isinstance(r, ProgramRule)]
    all_codes = [r.code for r in active]
    report = LintReport()

    # -- per-file phase (cached) --------------------------------------------
    digest = ruleset_digest(active) if cache is not None else ""
    records: list[dict[str, Any]] = []
    live: set[str] = set()
    for file in files:
        rel = _relative_to_root(file, targets)
        live.add(rel)
        if cache is None:
            records.append(_analyze_one(rel, file, per_file_codes))
            report.files_reanalyzed += 1
            continue
        key = file_key(file.read_bytes(), all_codes, digest)
        entry = cache.get(rel, key)
        if entry is None:
            entry = _analyze_one(rel, file, per_file_codes)
            cache.put(rel, key, **entry)
            report.files_reanalyzed += 1
        records.append(entry)
    report.files_scanned = len(files)

    suppressed = 0
    summaries: list[FileSummary] = []
    for record in records:
        report.findings.extend(
            LintFinding.from_dict(f) for f in record["findings"]
        )
        suppressed += int(record["suppressed"])
        raw_summary = record.get("summary")
        if raw_summary is not None:
            summaries.append(FileSummary.from_dict(raw_summary))

    # -- whole-program phase ------------------------------------------------
    if program_rules and summaries:
        program = Program(summaries)
        by_path = {s.path: s for s in summaries}
        for rule in program_rules:
            for finding in rule.check_program(program):
                fs = by_path.get(finding.path)
                if fs is not None and fs.is_suppressed(finding.line, finding.rule):
                    suppressed += 1
                    continue
                report.findings.append(finding)

    if cache is not None:
        cache.prune(live)
        cache.save()

    report.suppressed = suppressed
    report.sort()
    return report
