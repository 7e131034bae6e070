"""``python -m repro obs`` — the observability toolbelt.

Subcommands
-----------
``summarize <trace.jsonl>...``
    Span/counter/decision rollups per trace file.
``explain <trace.jsonl>``
    Human-readable narrative of why each job started when it did
    (paper-rule provenance), cross-checked against ``audit()``.
    ``--strict`` exits non-zero on unattributed starts, decision rules
    outside the closed ``DECISION_RULES`` vocabulary, or audit
    failure.
``diff <before> <after> [--threshold 0.10]``
    Compare two trace summaries *or* two ``BENCH_perf.json`` files
    (auto-detected).  Exits 1 when any quantity regressed beyond the
    threshold — the CI regression gate.
``export <trace.jsonl> [--out FILE]``
    Convert to Chrome ``trace_event`` JSON (open in ``chrome://tracing``
    or https://ui.perfetto.dev).
``top --connect HOST:PORT [--interval 2.0] [--once] [--format text|json]``
    Refreshing terminal dashboard over a running daemon's telemetry
    listener (``repro serve --telemetry``): per-tenant span, queue
    depth, decision mix, and the live competitive-ratio estimate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from .aggregate import (
    diff_bench,
    diff_summaries,
    render_diff,
    render_summary,
    summarize_trace,
)
from .chrome import export_chrome_trace
from .explain import explain_trace
from .jsonl import LoadedTrace, read_jsonl

__all__ = ["add_obs_parser", "cmd_obs"]


def add_obs_parser(sub: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    p = sub.add_parser(
        "obs",
        help="observability tooling: summarize/explain/diff/export traces",
        description=(
            "Work with repro.obs JSONL traces and BENCH_perf.json files: "
            "rollups, decision-provenance narratives, regression diffs, "
            "Chrome trace export, and a live daemon dashboard."
        ),
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    p_sum = obs_sub.add_parser("summarize", help="span/counter rollups per trace")
    p_sum.add_argument("traces", nargs="+", help="JSONL trace file(s)")
    p_sum.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )

    p_exp = obs_sub.add_parser(
        "explain", help="narrate why each job started when it did"
    )
    p_exp.add_argument("trace", help="JSONL trace file")
    p_exp.add_argument(
        "--limit", type=int, default=200, help="max jobs to narrate (default 200)"
    )
    p_exp.add_argument(
        "--strict",
        action="store_true",
        help=(
            "exit 1 on unattributed starts, out-of-vocabulary decision "
            "rules, an infeasible rebuilt schedule, or a replayed live "
            "telemetry LB that decreased or exceeded the certified reference"
        ),
    )

    p_diff = obs_sub.add_parser(
        "diff", help="compare two traces or two BENCH_perf.json files"
    )
    p_diff.add_argument("before", help="baseline trace/bench JSON file")
    p_diff.add_argument("after", help="candidate trace/bench JSON file")
    p_diff.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative regression threshold (default 0.10 = 10%%)",
    )

    p_chrome = obs_sub.add_parser(
        "export", help="convert a JSONL trace to Chrome trace_event JSON"
    )
    p_chrome.add_argument("trace", help="JSONL trace file")
    p_chrome.add_argument(
        "--out", default=None, help="output path (default: <trace>.chrome.json)"
    )

    p_top = obs_sub.add_parser(
        "top", help="live dashboard over a serve daemon's telemetry listener"
    )
    p_top.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="telemetry listener address (see `repro serve --telemetry`)",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default 2.0)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (scripts/CI)",
    )
    p_top.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="frame format: rendered table or the raw JSON snapshot",
    )


def _load(path: str) -> LoadedTrace:
    try:
        return read_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_summarize(args: argparse.Namespace) -> int:
    payloads: list[dict[str, Any]] = []
    for i, path in enumerate(args.traces):
        trace = _load(path)
        summary = summarize_trace(trace)
        if args.format == "json":
            payloads.append(
                {
                    "path": path,
                    "meta": summary.meta,
                    "records": summary.record_count,
                    "kinds": summary.kind_counts,
                    "decisions": summary.decisions,
                    "spans": summary.spans,
                    "counters": summary.counters,
                    "gauges": summary.gauges,
                    "histograms": summary.histograms,
                    "tenants": summary.tenants,
                }
            )
        else:
            if i:
                print()
            print(f"== {path}")
            print(render_summary(summary))
    if args.format == "json":
        print(json.dumps(payloads, indent=2))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    explanation = explain_trace(_load(args.trace))
    print(explanation.render(limit=args.limit))
    if args.strict and (
        not explanation.fully_attributed
        or explanation.audit_feasible is False
        or not explanation.vocabulary_clean
        or explanation.lb_monotone is False
        or explanation.lb_consistent is False
    ):
        print(
            "\nstrict: unattributed starts, out-of-vocabulary decision "
            "rules, audit failure, or a live-LB violation — see above",
            file=sys.stderr,
        )
        return 1
    return 0


def _is_bench_payload(path: str) -> dict[str, Any] | None:
    """Parse ``path`` as a BENCH_perf.json payload, or ``None``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(payload, dict) and "results" in payload:
        return payload
    return None


def _cmd_diff(args: argparse.Namespace) -> int:
    if args.threshold < 0:
        print("error: --threshold must be >= 0", file=sys.stderr)
        return 2
    bench_before = _is_bench_payload(args.before)
    bench_after = _is_bench_payload(args.after)
    if (bench_before is None) != (bench_after is None):
        print(
            "error: cannot diff a bench file against a trace file",
            file=sys.stderr,
        )
        return 2
    if bench_before is not None and bench_after is not None:
        entries = diff_bench(bench_before, bench_after, threshold=args.threshold)
    else:
        before = summarize_trace(_load(args.before))
        after = summarize_trace(_load(args.after))
        entries = diff_summaries(before, after, threshold=args.threshold)
    print(render_diff(entries, threshold=args.threshold))
    regressions = [e for e in entries if e.regressed]
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond {args.threshold:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    out = args.out or f"{args.trace}.chrome.json"
    written = export_chrome_trace(trace, out)
    print(f"wrote {written} (open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .top import CLEAR, fetch_snapshot, render_top

    if args.interval <= 0:
        print("error: --interval must be > 0", file=sys.stderr)
        return 2
    try:
        while True:
            try:
                snapshot = fetch_snapshot(args.connect)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if args.format == "json":
                print(json.dumps(snapshot, indent=2))
            else:
                prefix = "" if args.once else CLEAR
                print(prefix + render_top(snapshot))
            if args.once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_obs(args: argparse.Namespace) -> int:
    handlers = {
        "summarize": _cmd_summarize,
        "explain": _cmd_explain,
        "diff": _cmd_diff,
        "export": _cmd_export,
        "top": _cmd_top,
    }
    return handlers[args.obs_command](args)
