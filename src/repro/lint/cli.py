"""``python -m repro lint`` — the CLI face of the analyzer.

Exit codes: 0 clean, 1 findings, 2 usage error.  ``--format json``
emits the machine-readable report (consumed by the lint tests).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from .base import ALL_RULES, rule_by_code
from .dataflow.cache import AnalysisCache, default_cache_path
from .runner import lint_paths

__all__ = ["add_lint_parser", "cmd_lint"]


def add_lint_parser(sub: argparse._SubParsersAction) -> None:  # type: ignore[type-arg]
    p = sub.add_parser(
        "lint",
        help="run the domain-aware static analyzer (see --list-rules)",
        description=(
            "AST-based static analysis of the properties no test or "
            "runtime check covers on every path: the non-clairvoyant "
            "contract through the whole-program call graph (RL007), "
            "float hygiene in theorem-certification code (RL003), "
            "per-job allocation in the engine's hot sections (RL012), "
            "and the serving event loop's async safety: blocking calls "
            "(RL017), orphaned tasks (RL018), unbounded channels "
            "(RL019), unshielded cleanup awaits (RL020) and the "
            "Queue.join() drain protocol (RL021)."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    p.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    p.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (e.g. RL003,RL007)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    p.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print a rule's rationale and a minimal offending snippet, "
        "then exit (e.g. --explain RL007)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="directory for the incremental analysis cache "
        "(default: ./.repro_lint_cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental analysis cache",
    )


def _explain(code: str) -> int:
    """Print a rule's documentation (``--explain RLxxx``)."""
    try:
        rule = rule_by_code(code)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    doc = inspect.getdoc(type(rule)) or "(no documentation)"
    print(f"{rule.code} {rule.name} ({rule.severity})")
    print(f"  {rule.description}")
    print()
    print(doc)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name:<34} {rule.description}")
        return 0
    if args.explain:
        return _explain(args.explain.strip())

    rules = ALL_RULES
    if args.select:
        try:
            rules = [rule_by_code(c.strip()) for c in args.select.split(",") if c.strip()]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2

    cache: AnalysisCache | None = None
    if not args.no_cache:
        cache_path = (
            Path(args.cache_dir) / "cache.json"
            if args.cache_dir is not None
            else default_cache_path()
        )
        cache = AnalysisCache(cache_path)

    report = lint_paths(args.paths, rules=rules, cache=cache)
    print(report.render_json() if args.format == "json" else report.render())
    return 0 if report.clean else 1
