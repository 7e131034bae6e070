"""``python -m repro lint`` — the CLI face of the analyzer.

Exit codes: 0 clean, 1 findings, 2 usage error.  ``--format json``
emits the machine-readable report (consumed by CI annotations and the
lint tests); ``--update-baseline`` rewrites the baseline from current
findings (the ratchet).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from .base import ALL_RULES, rule_by_code
from .baseline import Baseline, load_baseline, write_baseline
from .dataflow.cache import AnalysisCache, default_cache_path
from .runner import default_target, lint_paths

__all__ = ["add_lint_parser", "cmd_lint"]

#: Default baseline filename, looked up in the current directory.
DEFAULT_BASELINE = "lint-baseline.json"


def add_lint_parser(sub: argparse._SubParsersAction) -> None:  # type: ignore[type-arg]
    p = sub.add_parser(
        "lint",
        help="run the domain-aware static analyzer (RL001-RL016)",
        description=(
            "AST-based static analysis of reproduction invariants: "
            "clairvoyance contract (RL001), determinism (RL002), "
            "float hygiene (RL003), job immutability (RL004), "
            "reset contract (RL005), plus the "
            "whole-program dataflow rules: cross-module clairvoyance "
            "taint (RL007), pool-unsafe work (RL008), parameter domains "
            "(RL009), heap key types (RL010); hot-path output "
            "discipline (RL011: no print/logging in engine or scheduler "
            "code — use the repro.obs recorder); hot-path allocation "
            "discipline (RL012: no per-job object construction or "
            "attribute-gather loops in the engine cores' hot sections); "
            "and the invariant certifier: job-lifecycle typestate "
            "(RL014), decision-"
            "vocabulary exhaustiveness (RL015, cross-validated by "
            "'repro obs explain --strict'), and time monotonicity "
            "(RL016)."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    p.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default: text; 'sarif' emits SARIF 2.1.0 "
        "for code-scanning UIs)",
    )
    p.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            "baseline file of grandfathered findings "
            f"(default: ./{DEFAULT_BASELINE} when it exists)"
        ),
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report every finding)",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from current findings and exit 0",
    )
    p.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (e.g. RL001,RL003)",
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
        "--jobs",
        metavar="N",
        default=None,
        help="worker processes for the per-file phase "
        "('auto' = all cores; default: serial)",
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

    baseline_path: Path | None = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        elif Path(DEFAULT_BASELINE).exists():
            baseline_path = Path(DEFAULT_BASELINE)

    baseline: Baseline | None = None
    if baseline_path is not None and not args.update_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    jobs: int | None = None
    if args.jobs is not None:
        from repro.perf.parallel import resolve_workers

        try:
            jobs = resolve_workers(args.jobs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    cache: AnalysisCache | None = None
    if not args.no_cache:
        cache_path = (
            Path(args.cache_dir) / "cache.json"
            if args.cache_dir is not None
            else default_cache_path()
        )
        cache = AnalysisCache(cache_path)

    paths = args.paths if args.paths else [default_target()]

    report = lint_paths(
        paths, rules=rules, baseline=baseline, jobs=jobs, cache=cache
    )

    if args.update_baseline:
        target = baseline_path or Path(DEFAULT_BASELINE)
        write_baseline(Baseline.from_findings(report.findings), target)
        print(
            f"wrote {len(report.findings)} finding(s) to baseline {target}",
            file=sys.stderr,
        )
        return 0

    if args.format == "json":
        print(report.render_json())
    elif args.format == "sarif":
        from .sarif import render_sarif

        print(render_sarif(report, rules=rules))
    else:
        print(report.render())
    return 0 if report.clean else 1
