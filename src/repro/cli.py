"""Command-line interface: ``python -m repro`` / ``fjs``.

Subcommands
-----------
``run``       — run one scheduler on a synthetic workload (or a saved
                instance file), print metrics, optionally a Gantt chart
                and the full event trace.
``compare``   — run all applicable schedulers on a workload family and
                print the span-ratio table (vs the certified lower bound
                or, for small integral instances, the exact optimum).
``adversary`` — replay a lower-bound adversary against a scheduler and
                report the forced ratio next to the theory value.
``bounds``    — print the paper's bound landscape for given μ/α/k.
``certify``   — measure one scheduler's competitive ratio with a
                certified bracket (exact OPT when feasible).
``workload``  — generate a synthetic instance and save it as JSON.
``bench``     — time the pinned perf suite and write ``BENCH_perf.json``
                (see ``repro.perf.bench``).
``lint``      — domain-aware static analysis (clairvoyance contract,
                determinism, float hygiene; see ``repro.lint``).
``obs``       — observability tooling: summarize/explain/diff/export
                JSONL traces, and a live dashboard over a serving
                daemon (see ``repro.obs``).
``serve``     — streaming scheduling daemon: JSONL job streams in
                (stdio, Unix, or TCP socket), start-decision records
                out; multi-tenant, backpressured, checkpoint/restore
                (see ``repro.serve`` and ``docs/serving.md``).  ``REPRO_TRACE=1`` makes ``run`` (and any
                other simulation-shaped command) record a structured
                trace; ``run`` writes it to ``<scheduler>.trace.jsonl``
                under ``REPRO_TRACE_DIR`` (default: cwd).

Performance knobs honoured by ``compare``/``experiment`` (and any other
grid-shaped command): ``REPRO_WORKERS`` fans simulation cells out over a
process pool, and expensive offline references are memoized through
``repro.perf.cache`` (disable with ``REPRO_CACHE=0``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .adversaries import (
    ClairvoyantLowerBoundAdversary,
    NonClairvoyantLowerBoundAdversary,
    geometric_profile,
    paper_profile,
)
from .analysis import (
    Table,
    measure_ratio,
    batch_upper_bound,
    batchplus_ratio,
    cdb_ratio,
    clairvoyant_adversary_ratio,
    nonclairvoyant_lower_bound,
    optimal_cdb_alpha,
    optimal_profit_k,
    profit_ratio,
    render_gantt,
)
from .core import SimulationError, Trace, load_instance, save_instance, simulate
from .core.metrics import reference_ratio
from .offline import exact_optimal_span, span_lower_bound
from .schedulers import make_scheduler, scheduler_names
from .workloads import WorkloadSpec, generate, ratio_stats, run_grid

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fjs",
        description=(
            "Online Flexible Job Scheduling for Minimum Span "
            "(Ren & Tang, SPAA 2017) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scheduler on a workload")
    p_run.add_argument("scheduler", choices=scheduler_names())
    p_run.add_argument("--jobs", type=int, default=20)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--laxity-scale", type=float, default=2.0)
    p_run.add_argument("--length-high", type=float, default=10.0)
    p_run.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    p_run.add_argument("--trace", action="store_true", help="print the event trace")
    p_run.add_argument(
        "--summary", action="store_true",
        help="print the full run summary (metrics + certified ratio)",
    )
    p_run.add_argument(
        "--instance", type=str, default=None,
        help="load the instance from a JSON file instead of generating one",
    )

    p_cmp = sub.add_parser("compare", help="compare schedulers on a workload family")
    p_cmp.add_argument("--jobs", type=int, default=50)
    p_cmp.add_argument("--instances", type=int, default=5)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--laxity-scale", type=float, default=2.0)
    p_cmp.add_argument(
        "--exact",
        action="store_true",
        help="use the exact optimum (small integral instances) instead of the lower bound",
    )
    p_cmp.add_argument(
        "--matrix",
        action="store_true",
        help="also print the head-to-head win matrix",
    )

    p_adv = sub.add_parser("adversary", help="replay a lower-bound adversary")
    p_adv.add_argument(
        "setting", choices=["nonclairvoyant", "clairvoyant"], help="which construction"
    )
    p_adv.add_argument("scheduler", choices=scheduler_names())
    p_adv.add_argument("--mu", type=float, default=5.0)
    p_adv.add_argument("--k", type=int, default=4, help="iteration budget (nc)")
    p_adv.add_argument("--n", type=int, default=50, help="iteration budget (c)")
    p_adv.add_argument("--m", type=int, default=16, help="scaled profile size")
    p_adv.add_argument(
        "--paper-profile",
        action="store_true",
        help="use the doubly-exponential paper profile (k <= 2)",
    )

    p_b = sub.add_parser("bounds", help="print the paper's bound landscape")
    p_b.add_argument("--mu", type=float, default=5.0)

    p_cert = sub.add_parser(
        "certify", help="measure a scheduler's ratio with a certified bracket"
    )
    p_cert.add_argument("scheduler", choices=scheduler_names())
    p_cert.add_argument("--jobs", type=int, default=8)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--instances", type=int, default=5)
    p_cert.add_argument(
        "--instance", type=str, default=None,
        help="certify on a saved instance file instead",
    )

    p_exp = sub.add_parser(
        "experiment", help="regenerate an EXPERIMENTS.md table interactively"
    )
    p_exp.add_argument("id", help="experiment id, e.g. E4 (see DESIGN.md)")
    p_exp.add_argument(
        "--full", action="store_true", help="bench-sized parameters (slower)"
    )

    p_v = sub.add_parser(
        "verify", help="machine-check every theorem on random or saved instances"
    )
    p_v.add_argument("--jobs", type=int, default=8)
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--instances", type=int, default=3)
    p_v.add_argument(
        "--instance", type=str, default=None,
        help="verify on a saved instance file instead",
    )

    p_bench = sub.add_parser(
        "bench", help="time the pinned perf suite and write BENCH_perf.json"
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="small parameters (CI smoke): k=1 macro case, 1k-job micros",
    )
    p_bench.add_argument("--repeat", type=int, default=3, help="timed repetitions")
    p_bench.add_argument(
        "--out", type=str, default="BENCH_perf.json", help="output JSON path"
    )
    p_bench.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing output file even if its schema differs",
    )
    p_bench.add_argument(
        "--case", type=str, default=None,
        help="run only cases whose name contains this substring",
    )
    p_bench.add_argument(
        "--ratchet", action="store_true",
        help=(
            "exit non-zero when macro/e1_paper_k2_batch lands below the "
            "recorded columnar baseline minus the ratchet margin"
        ),
    )

    from .lint.cli import add_lint_parser
    from .obs.cli import add_obs_parser
    from .serve.cli import add_serve_parser

    add_lint_parser(sub)
    add_obs_parser(sub)
    add_serve_parser(sub)

    p_w = sub.add_parser("workload", help="generate and save a synthetic instance")
    p_w.add_argument("out", help="output JSON path")
    p_w.add_argument("--jobs", type=int, default=50)
    p_w.add_argument("--seed", type=int, default=0)
    p_w.add_argument("--laxity-scale", type=float, default=2.0)
    p_w.add_argument("--length-high", type=float, default=10.0)
    p_w.add_argument("--integral", action="store_true")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from .obs import TraceRecorder, get_recorder, trace_dir

    if args.instance:
        inst = load_instance(args.instance)
    else:
        spec = WorkloadSpec(
            n=args.jobs,
            laxity_scale=args.laxity_scale,
            length_high=args.length_high,
        )
        inst = generate(spec, seed=args.seed)
    sched = make_scheduler(args.scheduler)
    # The core trace wraps the ambient recorder, so REPRO_TRACE=1 still
    # gets its JSONL records alongside the printed trace.
    recorder = get_recorder()
    trace = Trace(recorder) if args.trace else None
    try:
        result = simulate(
            sched,
            inst,
            clairvoyant=type(sched).requires_clairvoyance,
            recorder=trace,
        )
    except SimulationError as exc:
        # e.g. the event budget tripped by a live-locking scheduler
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lb = span_lower_bound(inst)
    print(f"scheduler : {sched.describe()}")
    print(f"workload  : {inst.name}")
    print(f"span      : {result.span:.4f}")
    ratio = reference_ratio(result.span, lb)
    print(f"lower bnd : {lb:.4f}  (ratio <= {ratio:.4f})")
    print(f"events    : {result.events_processed}")
    if args.summary:
        from .analysis import summarize_run

        print()
        print(summarize_run(result).render())
    if args.gantt:
        print()
        print(render_gantt(result.schedule))
    if trace is not None:
        print()
        print(trace.render())
    if isinstance(recorder, TraceRecorder):
        from pathlib import Path

        out = Path(trace_dir()) / f"{args.scheduler}.trace.jsonl"
        written = recorder.write_jsonl(
            out, command="run", scheduler=args.scheduler, workload=inst.name
        )
        print(f"trace     : {written} ({len(recorder.records)} records)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .perf import cached_reference

    if args.exact:
        from .workloads import small_integral_instance

        instances = [
            small_integral_instance(min(args.jobs, 8), seed=args.seed + i)
            for i in range(args.instances)
        ]
        reference = cached_reference(exact_optimal_span)
        ref_name = "exact optimum"
    else:
        spec = WorkloadSpec(n=args.jobs, laxity_scale=args.laxity_scale)
        instances = [
            generate(spec, seed=args.seed + i) for i in range(args.instances)
        ]
        reference = cached_reference(span_lower_bound)
        ref_name = "chain lower bound"

    protos = [make_scheduler(name) for name in scheduler_names()]
    results = run_grid(protos, instances, reference)
    stats = ratio_stats(results)
    table = Table(
        ["scheduler", "mean ratio", "p95 ratio", "max ratio"],
        title=f"span ratio vs {ref_name} ({args.instances} instances × {args.jobs} jobs)",
    )
    for name in sorted(stats, key=lambda n: stats[n]["mean"]):
        s = stats[name]
        table.add(name, s["mean"], s["p95"], s["max"])
    table.print()
    if args.matrix:
        from .analysis import compare_schedulers

        print()
        print(compare_schedulers(protos, instances).render())
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    sched = make_scheduler(args.scheduler)
    if args.setting == "nonclairvoyant":
        if type(sched).requires_clairvoyance:
            print(
                f"error: {args.scheduler} requires clairvoyance; the "
                "non-clairvoyant adversary controls lengths adaptively",
                file=sys.stderr,
            )
            return 2
        profile = (
            paper_profile(args.k) if args.paper_profile else geometric_profile(args.k, args.m)
        )
        adv = NonClairvoyantLowerBoundAdversary(args.mu, profile)
        result = simulate(sched, adversary=adv, clairvoyant=False)
        witness = adv.paper_optimal_schedule(result.instance)
        counts = [it.count for it in profile.iterations]
        theory = nonclairvoyant_lower_bound(profile.k, args.mu, counts)
        print(f"adversary : §3.1 (μ={args.mu:g}, k={profile.k}, profile={counts})")
        print(f"released  : {len(result.instance)} jobs in {adv.iterations_released} iteration(s)"
              + (" + final" if adv.final_released else ""))
        print(f"online    : span {result.span:.4f}")
        print(f"witness   : span {witness.span:.4f}")
        print(f"ratio     : {result.span / witness.span:.4f}")
        print(f"theory    : forced ratio >= {theory:.4f} (→ μ={args.mu:g} as k→∞)")
    else:
        if not type(sched).requires_clairvoyance:
            print(
                "note: running a non-clairvoyant scheduler against the "
                "clairvoyant adversary (allowed; lengths are fixed)",
            )
        adv = ClairvoyantLowerBoundAdversary(args.n)
        result = simulate(
            sched, adversary=adv, clairvoyant=type(sched).requires_clairvoyance
        )
        witness = adv.paper_optimal_schedule(result.instance)
        theory = clairvoyant_adversary_ratio(args.n)
        print(f"adversary : §4.1 (n={args.n})")
        print(f"played    : {adv.iterations_played} iteration(s), "
              f"stopped early: {adv.stopped_early}")
        print(f"online    : span {result.span:.4f}")
        print(f"witness   : span {witness.span:.4f}")
        print(f"ratio     : {result.span / witness.span:.4f}")
        print(f"theory    : forced ratio >= {theory:.4f} (→ φ≈1.618 as n→∞)")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    mu = args.mu
    table = Table(["quantity", "value"], title=f"paper bound landscape (μ={mu:g})")
    table.add("non-clairvoyant LB (Thm 3.3)", mu)
    table.add("Batch upper bound (Thm 3.4)", batch_upper_bound(mu))
    table.add("Batch+ tight ratio (Thm 3.5)", batchplus_ratio(mu))
    table.add("clairvoyant LB φ (Thm 4.1)", clairvoyant_adversary_ratio(10**9))
    table.add("CDB bound at optimal α (Thm 4.4)", cdb_ratio(optimal_cdb_alpha()))
    table.add("  optimal α", optimal_cdb_alpha())
    table.add("Profit bound at optimal k (Thm 4.11)", profit_ratio(optimal_profit_k()))
    table.add("  optimal k", optimal_profit_k())
    table.print()
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    sched = make_scheduler(args.scheduler)
    if args.instance:
        instances = [load_instance(args.instance)]
    else:
        from .workloads import small_integral_instance

        instances = [
            small_integral_instance(args.jobs, seed=args.seed + i)
            for i in range(args.instances)
        ]
    table = Table(
        ["instance", "span", "ratio", "method"],
        title=f"certified competitive ratios: {sched.describe()}",
    )
    for inst in instances:
        rb = measure_ratio(sched, inst)
        table.add(inst.name, rb.span, str(rb), rb.opt.method)
    table.print()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .analysis import verify_theorems
    from .workloads import small_integral_instance

    if args.instance:
        instances = [load_instance(args.instance)]
    else:
        instances = [
            small_integral_instance(args.jobs, seed=args.seed + i)
            for i in range(args.instances)
        ]
    all_ok = True
    for inst in instances:
        report = verify_theorems(inst)
        print(report.render())
        print()
        all_ok = all_ok and report.all_passed
    print("all theorems verified" if all_ok else "THEOREM VIOLATION DETECTED")
    return 0 if all_ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import run_experiment

    try:
        print(run_experiment(args.id, quick=not args.full))
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf.bench import check_ratchet, render_records, run_bench

    try:
        records = run_bench(
            quick=args.quick,
            repeat=args.repeat,
            out=args.out,
            force=args.force,
            case=args.case,
        )
    except (FileExistsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_records(records))
    print(f"\nwrote {args.out}")
    if args.ratchet:
        try:
            verdict = check_ratchet(records)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if verdict is not None:
            print(verdict, file=sys.stderr)
            return 1
        print(
            "perf ratchet OK: macro/e1_paper_k2_batch holds the "
            "columnar baseline"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import cmd_lint

    return cmd_lint(args)


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs.cli import cmd_obs

    return cmd_obs(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import functools

    from .serve.cli import cmd_serve

    # The serve package is print-free; the CLI injects the
    # human-output channels.  In stdio mode stdout carries the JSONL
    # protocol, so human-facing lines go to stderr.
    return cmd_serve(
        args, echo=print, echo_err=functools.partial(print, file=sys.stderr)
    )


def _cmd_workload(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        n=args.jobs,
        laxity_scale=args.laxity_scale,
        length_high=args.length_high,
        integral=args.integral,
    )
    inst = generate(spec, seed=args.seed)
    save_instance(inst, args.out)
    print(f"wrote {len(inst)} jobs (μ={inst.mu:.3f}) to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "adversary": _cmd_adversary,
        "bounds": _cmd_bounds,
        "certify": _cmd_certify,
        "workload": _cmd_workload,
        "experiment": _cmd_experiment,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
        "obs": _cmd_obs,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
