"""The repo's perf trajectory: a fixed micro/macro benchmark suite.

``python -m repro bench`` (or the ``fjs-bench`` console script) times a
pinned set of cases and writes ``BENCH_perf.json`` so successive PRs can
compare like against like.  Each record follows the schema

    {"case": str, "events": int, "wall_s": float, "events_per_s": float}

and the payload carries a ``provenance`` block (git SHA,
``REPRO_WORKERS``, whether a structured recorder was armed) so a bench
number can always be traced back to the tree and configuration that
produced it.  Numbers timed with ``REPRO_TRACE=1`` are *not* comparable
to disarmed runs — the recorder adds per-event work — which is exactly
why the recorder state is part of the provenance.  An existing output
file written under a *different* schema version is never silently
overwritten: pass ``--force`` to replace it (``repro obs diff`` consumes
these files, and a silent schema change would corrupt the trend line).

Cases
-----
micro/event_queue
    Raw :class:`~repro.core.events.EventQueue` push/pop throughput —
    isolates the heap from scheduler logic.
micro/eager_uniform · micro/batch_uniform
    The simulator on a seeded synthetic workload under a trivial and a
    batching scheduler — the common-path per-event cost (40 000 jobs,
    at least ~0.3 s per repeat; 1 000 under ``--quick``).
micro/coverage_disjoint/{doubler,greedy-cover,wait-scale}
    Each coverage scheduler over N pairwise-disjoint jobs (N = 32 000;
    1 000 under ``--quick``): every arrival asks how much of its run
    the committed busy time covers and every start grows it, so the
    per-job cost must stay flat as N grows.
macro/e1_paper_k2_batch · macro/e1_paper_k2_batch_plus
    The paper's §3.1 adversary at the doubly-exponential profile, k=2:
    65 808 jobs / 263 218 events through Batch and Batch+.  These are
    the cases the columnar engine core is tracked against — both
    schedulers take the vectorised cohort-start path (``--quick``
    substitutes the k=1 profile, 16 jobs, for CI smoke runs).
macro/e5_cdb_alpha2
    CDB (clairvoyant, α=2) over the seeded E5-style synthetic workload:
    live per-job hooks on every event, pinning the *scalar* path of the
    columnar core so a gathering regression can't hide behind it.
serve/stdio_two_tenants
    Two interleaved tenant streams of JSONL ops pushed synchronously
    through the serving layer's protocol + session path (``parse_op`` →
    ``TenantSession.apply``) — the per-op cost of ``repro serve
    --stdio`` minus the event loop, counted in output records/s
    (10 000 jobs per tenant, at least ~0.3 s per repeat; 500 under
    ``--quick``).
serve/telemetry_armed
    The same two-tenant serve workload with the live telemetry plane
    armed (per-tenant span/ratio aggregation riding the record feed,
    plus periodic full snapshots) — pins the cost of ``REPRO_TELEMETRY``
    so the O(1)-amortized incremental OPT lower bound stays O(1).

Timing protocol: every case runs ``repeat`` times (default 3) after one
untimed warm-up iteration for the micro cases; the **best** wall time is
reported (standard practice for throughput benchmarking — the minimum is
the least noisy estimator of the true cost).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

__all__ = [
    "BENCH_SCHEMA",
    "E1_K2_BASELINE_EVENTS_PER_S",
    "E1_K2_COLUMNAR_BASELINE_EVENTS_PER_S",
    "RATCHET_MARGIN",
    "SERVE_STDIO_BASELINE_EVENTS_PER_S",
    "SERVE_TELEMETRY_BASELINE_EVENTS_PER_S",
    "BenchRecord",
    "bench_cases",
    "bench_provenance",
    "check_ratchet",
    "run_bench",
    "main",
]

DEFAULT_OUT = "BENCH_perf.json"

#: The payload schema identifier.  v2 added the ``provenance`` block
#: (git SHA, REPRO_WORKERS, recorder state); v1 was the bare
#: ``{case, events, wall_s, events_per_s}`` rows.
BENCH_SCHEMA = "v2:{case, events, wall_s, events_per_s} + provenance"

#: Wall-clock events/s of ``macro/e1_paper_k2_batch`` measured on the
#: pre-optimisation engine (dataclass-comparison heap, per-event getattr
#: dispatch) — the reference point for the engine-optimisation claim.
E1_K2_BASELINE_EVENTS_PER_S = 111_846.0

#: The *ratcheted* floor for ``macro/e1_paper_k2_batch`` under the
#: columnar core (the reference machine measured 613 850 ev/s; the floor
#: is set below that to absorb machine variance but far above the
#: 295 000 ev/s the object core tops out at, so any silent fallback to
#: the scalar path trips it).  CI fails the perf-ratchet job when the
#: measured rate drops more than 10% below this.
E1_K2_COLUMNAR_BASELINE_EVENTS_PER_S = 450_000.0

#: Ratcheted floor for ``serve/stdio_two_tenants`` — output records/s
#: through the synchronous protocol + session path (the reference
#: machine measured ≈85 000 rec/s; the floor absorbs machine variance
#: while still tripping on an accidental O(n²) in ``parse_op``,
#: ``TenantSession.apply``, or the record-delivery path).  Checked by
#: :func:`check_ratchet` whenever the case is part of the run.
SERVE_STDIO_BASELINE_EVENTS_PER_S = 35_000.0

#: Ratcheted floor for ``serve/telemetry_armed`` — the same two-tenant
#: protocol + session workload with the live telemetry plane armed
#: (:class:`repro.obs.live.TenantTelemetry` per session, periodic
#: aggregator snapshots).  Set below the disarmed floor by roughly the
#: tolerated telemetry overhead: a drop past it means the per-record
#: feed or the incremental OPT lower bound stopped being O(1)-amortized.
SERVE_TELEMETRY_BASELINE_EVENTS_PER_S = 32_000.0


@dataclass(frozen=True)
class BenchRecord:
    """One timed case (the ``BENCH_perf.json`` row schema)."""

    case: str
    events: int
    wall_s: float
    events_per_s: float


# --------------------------------------------------------------------- cases
def _bench_event_queue(n: int) -> int:
    """Push/pop ``n`` interleaved events; returns events processed."""
    from ..core.events import EventKind, EventQueue

    q = EventQueue()
    push = q.push
    kinds = (EventKind.ARRIVAL, EventKind.COMPLETION, EventKind.TIMER)
    for i in range(n):
        push((i * 2654435761) % 1_000_003 / 7.0, kinds[i % 3], i)
    pops = 0
    pop = q.pop_raw
    while q:
        pop()
        pops += 1
    return n + pops


def _bench_simulate(scheduler_name: str, jobs: int, seed: int) -> int:
    """Run one scheduler over a seeded synthetic workload."""
    from ..core.engine import simulate
    from ..schedulers import make_scheduler
    from ..workloads import WorkloadSpec, generate

    spec = WorkloadSpec(n=jobs, laxity_scale=2.0, length_high=10.0)
    inst = generate(spec, seed=seed)
    sched = make_scheduler(scheduler_name)
    result = simulate(
        sched, inst, clairvoyant=type(sched).requires_clairvoyance
    )
    return result.events_processed


def _bench_coverage_disjoint(scheduler_name: str, jobs: int) -> int:
    """One coverage scheduler over ``jobs`` pairwise-disjoint unit jobs."""
    from ..core.engine import simulate
    from ..core.job import Instance, Job
    from ..schedulers import make_scheduler

    inst = Instance(
        [
            Job(id=i, arrival=3.0 * i, deadline=3.0 * i + 1.0, length=1.0)
            for i in range(jobs)
        ],
        name=f"disjoint(n={jobs})",
    )
    result = simulate(make_scheduler(scheduler_name), inst, clairvoyant=True)
    return result.events_processed


def _coverage_cases(jobs: int) -> list[tuple[str, Callable[[], int]]]:
    return [
        (
            f"micro/coverage_disjoint/{name}",
            lambda n=name: _bench_coverage_disjoint(n, jobs),
        )
        for name in ("doubler", "greedy-cover", "wait-scale")
    ]


def _bench_e1_macro(k: int, scheduler: str = "batch") -> int:
    """The §3.1 adversary with the paper's doubly-exponential profile."""
    from ..adversaries import NonClairvoyantLowerBoundAdversary, paper_profile
    from ..core.engine import simulate
    from ..schedulers import Batch, BatchPlus

    sched = Batch() if scheduler == "batch" else BatchPlus()
    adv = NonClairvoyantLowerBoundAdversary(5.0, paper_profile(k))
    result = simulate(sched, adversary=adv, clairvoyant=False)
    return result.events_processed


def _bench_e5_cdb(jobs: int, seed: int, alpha: float = 2.0) -> int:
    """CDB (clairvoyant, α=2) on the seeded E5-style synthetic workload.

    CDB keeps ``on_arrival``/``on_deadline``/``on_completion`` hooks
    live, so this case pins the *scalar* (non-gathering) path of the
    columnar core — the counterweight to the batch-family macros.
    """
    from ..core.engine import simulate
    from ..schedulers import ClassifyByDurationBatchPlus
    from ..workloads import WorkloadSpec, generate

    spec = WorkloadSpec(n=jobs, laxity_scale=2.0, length_high=10.0)
    inst = generate(spec, seed=seed)
    result = simulate(
        ClassifyByDurationBatchPlus(alpha=alpha), inst, clairvoyant=True
    )
    return result.events_processed


def _bench_serve_two_tenants(
    jobs_per_tenant: int, *, telemetry: bool = False, snapshot_every: int = 0
) -> int:
    """Two interleaved tenant streams through the serving layer.

    Feeds JSONL job ops alternating between tenants ``a`` and ``b``
    through ``parse_op`` → :meth:`TenantSession.apply`, then closes
    both.  Synchronous on purpose: it times the protocol + session
    layers themselves (the work `repro serve --stdio` does per op),
    not asyncio scheduling.  Returns the output-record count.

    ``telemetry=True`` arms the live telemetry plane (a
    :class:`repro.obs.live.TenantTelemetry` per session, exactly as the
    daemon wires it), and ``snapshot_every`` additionally renders a full
    aggregator snapshot every that-many job indices — the cost a scrape
    of the daemon's ``/snapshot`` endpoint adds.
    """
    from ..obs.live import LiveAggregator
    from ..serve.protocol import parse_op
    from ..serve.session import TenantSession

    live = LiveAggregator() if telemetry else None
    sessions = {
        name: TenantSession(
            name, telemetry=live.tenant(name) if live is not None else None
        )
        for name in ("a", "b")
    }
    records = 0
    for session in sessions.values():
        records += len(session.hello())
    for i in range(jobs_per_tenant):
        arrival = float(i)
        for tenant in ("a", "b"):
            line = (
                f'{{"op": "job", "tenant": "{tenant}", "id": {i},'
                f' "arrival": {arrival}, "length": 2.0,'
                f' "deadline": {arrival + 6.0}}}'
            )
            records += len(sessions[tenant].apply(parse_op(line)))
        if live is not None and snapshot_every and i % snapshot_every == 0:
            live.snapshot()
    for tenant in ("a", "b"):
        op = parse_op(f'{{"op": "close", "tenant": "{tenant}"}}')
        records += len(sessions[tenant].apply(op))
    if live is not None:
        live.snapshot()
    return records


def bench_cases(quick: bool) -> list[tuple[str, Callable[[], int]]]:
    """The pinned suite: ``(case name, zero-arg callable -> event count)``."""
    if quick:
        return [
            ("micro/event_queue", lambda: _bench_event_queue(20_000)),
            ("micro/eager_uniform", lambda: _bench_simulate("eager", 1_000, 7)),
            ("micro/batch_uniform", lambda: _bench_simulate("batch", 1_000, 7)),
            *_coverage_cases(1_000),
            ("macro/e1_paper_k1_batch", lambda: _bench_e1_macro(1)),
            (
                "macro/e1_paper_k1_batch_plus",
                lambda: _bench_e1_macro(1, "batch+"),
            ),
            ("macro/e5_cdb_alpha2", lambda: _bench_e5_cdb(1_000, 11)),
            (
                "serve/stdio_two_tenants",
                lambda: _bench_serve_two_tenants(500),
            ),
            (
                "serve/telemetry_armed",
                lambda: _bench_serve_two_tenants(
                    500, telemetry=True, snapshot_every=100
                ),
            ),
        ]
    return [
        ("micro/event_queue", lambda: _bench_event_queue(200_000)),
        ("micro/eager_uniform", lambda: _bench_simulate("eager", 40_000, 7)),
        ("micro/batch_uniform", lambda: _bench_simulate("batch", 40_000, 7)),
        *_coverage_cases(32_000),
        ("macro/e1_paper_k2_batch", lambda: _bench_e1_macro(2)),
        (
            "macro/e1_paper_k2_batch_plus",
            lambda: _bench_e1_macro(2, "batch+"),
        ),
        ("macro/e5_cdb_alpha2", lambda: _bench_e5_cdb(5_000, 11)),
        (
            "serve/stdio_two_tenants",
            lambda: _bench_serve_two_tenants(10_000),
        ),
        (
            "serve/telemetry_armed",
            lambda: _bench_serve_two_tenants(
                10_000, telemetry=True, snapshot_every=250
            ),
        ),
    ]


# ------------------------------------------------------------------- harness
def _git_sha() -> str:
    """The current commit SHA (``"unknown"`` outside a git checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_provenance() -> dict[str, Any]:
    """The provenance block: what tree/configuration produced the numbers."""
    from ..obs.runtime import get_recorder

    return {
        "git_sha": _git_sha(),
        "workers": os.environ.get("REPRO_WORKERS", "").strip() or None,
        "recorder_armed": get_recorder().enabled,
    }


def _time_case(fn: Callable[[], int], repeat: int, warmup: bool) -> tuple[int, float]:
    """Best-of-``repeat`` wall time; returns ``(events, wall_s)``."""
    if warmup:
        fn()
    best = float("inf")
    events = 0
    for _ in range(max(repeat, 1)):
        t0 = time.perf_counter()
        events = fn()
        wall = time.perf_counter() - t0
        if wall < best:
            best = wall
    return events, best


def _check_overwrite(out: Path, force: bool) -> None:
    """Refuse to overwrite an ``out`` written under a different schema.

    A corrupt/unparseable existing file is also protected (it is not
    ours to destroy); ``force=True`` overrides in both cases.
    """
    if force or not out.exists():
        return
    try:
        existing = json.loads(out.read_text(encoding="utf-8"))
        schema = existing.get("schema") if isinstance(existing, dict) else None
    except (OSError, json.JSONDecodeError):
        schema = None
    if schema != BENCH_SCHEMA:
        raise FileExistsError(
            f"{out} exists with schema {schema!r} (current: {BENCH_SCHEMA!r}); "
            "refusing to overwrite a different-schema bench file — "
            "pass --force to replace it"
        )


def run_bench(
    *,
    quick: bool = False,
    repeat: int = 3,
    out: str | Path | None = DEFAULT_OUT,
    force: bool = False,
    case: str | None = None,
) -> list[BenchRecord]:
    """Run the suite; write ``out`` (unless ``None``); return the records.

    ``case`` restricts the run to cases whose name contains the given
    substring (the CI perf ratchet times only ``macro/e1_paper_k2_batch``
    this way instead of paying for the whole suite).

    Raises :class:`FileExistsError` when ``out`` already exists under a
    different (or unreadable) schema and ``force`` is false.  The
    overwrite check runs *before* the timing loop, so a refused write
    does not waste a full bench run.
    """
    if out is not None:
        _check_overwrite(Path(out), force)
    cases = bench_cases(quick)
    if case is not None:
        cases = [(name, fn) for name, fn in cases if case in name]
        if not cases:
            raise ValueError(f"--case {case!r} matches no bench case")
    records: list[BenchRecord] = []
    for name, fn in cases:
        warmup = name.startswith(("micro/", "serve/")) or quick
        events, wall = _time_case(fn, repeat, warmup)
        records.append(
            BenchRecord(
                case=name,
                events=events,
                wall_s=round(wall, 6),
                events_per_s=round(events / wall, 1) if wall > 0 else float("inf"),
            )
        )
    if out is not None:
        payload = {
            "schema": BENCH_SCHEMA,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": quick,
            "repeat": repeat,
            "provenance": bench_provenance(),
            "baselines": {
                "macro/e1_paper_k2_batch": E1_K2_BASELINE_EVENTS_PER_S,
                "macro/e1_paper_k2_batch/columnar_floor": (
                    E1_K2_COLUMNAR_BASELINE_EVENTS_PER_S
                ),
                "serve/stdio_two_tenants/floor": (
                    SERVE_STDIO_BASELINE_EVENTS_PER_S
                ),
                "serve/telemetry_armed/floor": (
                    SERVE_TELEMETRY_BASELINE_EVENTS_PER_S
                ),
            },
            "results": [asdict(r) for r in records],
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return records


def render_records(records: Sequence[BenchRecord]) -> str:
    """Fixed-width text table for terminal output."""
    lines = [
        f"{'case':<36} {'events':>10} {'wall_s':>10} {'events/s':>12}",
        "-" * 72,
    ]
    for r in records:
        lines.append(
            f"{r.case:<36} {r.events:>10,} {r.wall_s:>10.4f} {r.events_per_s:>12,.0f}"
        )
        if r.case == "macro/e1_paper_k2_batch":
            factor = r.events_per_s / E1_K2_BASELINE_EVENTS_PER_S
            lines.append(
                f"{'':<36} vs pre-optimisation baseline "
                f"{E1_K2_BASELINE_EVENTS_PER_S:,.0f} ev/s: {factor:.2f}x"
            )
            floor = E1_K2_COLUMNAR_BASELINE_EVENTS_PER_S
            lines.append(
                f"{'':<36} vs columnar ratchet floor "
                f"{floor:,.0f} ev/s: {r.events_per_s / floor:.2f}x"
            )
    return "\n".join(lines)


#: CI ratchet margin: fail only when the measured rate falls more than
#: this fraction below the recorded columnar floor.
RATCHET_MARGIN = 0.10


def check_ratchet(records: Sequence[BenchRecord]) -> str | None:
    """The perf-ratchet verdict.

    The primary gate is ``macro/e1_paper_k2_batch`` against
    :data:`E1_K2_COLUMNAR_BASELINE_EVENTS_PER_S`; it must be part of
    the run (:class:`ValueError` otherwise — e.g. under ``--quick``,
    which substitutes the k=1 profile).  ``serve/stdio_two_tenants``
    and ``serve/telemetry_armed`` are additionally checked against
    :data:`SERVE_STDIO_BASELINE_EVENTS_PER_S` /
    :data:`SERVE_TELEMETRY_BASELINE_EVENTS_PER_S` whenever they were
    timed (CI's narrow ``--case macro/e1_paper_k2_batch`` run skips
    them).
    Returns ``None`` on pass, a human-readable failure message when a
    measured rate falls more than :data:`RATCHET_MARGIN` below its
    floor.
    """
    target = "macro/e1_paper_k2_batch"
    record = next((r for r in records if r.case == target), None)
    if record is None:
        raise ValueError(
            f"perf ratchet needs the {target} case in the run "
            "(it is absent from --quick; drop --quick or widen --case)"
        )
    floor = E1_K2_COLUMNAR_BASELINE_EVENTS_PER_S * (1.0 - RATCHET_MARGIN)
    if record.events_per_s < floor:
        return (
            f"perf ratchet FAILED: {target} measured "
            f"{record.events_per_s:,.0f} ev/s < {floor:,.0f} ev/s "
            f"(recorded columnar baseline "
            f"{E1_K2_COLUMNAR_BASELINE_EVENTS_PER_S:,.0f} "
            f"- {RATCHET_MARGIN:.0%} margin)"
        )
    serve_floors = {
        "serve/stdio_two_tenants": SERVE_STDIO_BASELINE_EVENTS_PER_S,
        "serve/telemetry_armed": SERVE_TELEMETRY_BASELINE_EVENTS_PER_S,
    }
    for case, baseline in serve_floors.items():
        serve = next((r for r in records if r.case == case), None)
        if serve is None:
            continue
        serve_floor = baseline * (1.0 - RATCHET_MARGIN)
        if serve.events_per_s < serve_floor:
            return (
                f"perf ratchet FAILED: {serve.case} measured "
                f"{serve.events_per_s:,.0f} rec/s < {serve_floor:,.0f} rec/s "
                f"(recorded serving-layer baseline "
                f"{baseline:,.0f} "
                f"- {RATCHET_MARGIN:.0%} margin)"
            )
    return None


def main(argv: Sequence[str] | None = None) -> int:
    """``fjs-bench`` entry point (also behind ``python -m repro bench``)."""
    parser = argparse.ArgumentParser(
        prog="fjs-bench",
        description="Time the pinned micro/macro suite and write BENCH_perf.json.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small parameters (CI smoke): k=1 macro case, 1k-job micros",
    )
    parser.add_argument("--repeat", type=int, default=3, help="timed repetitions")
    parser.add_argument(
        "--out", type=str, default=DEFAULT_OUT, help="output JSON path"
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing output file even if its schema differs",
    )
    parser.add_argument(
        "--case",
        type=str,
        default=None,
        help="run only cases whose name contains this substring",
    )
    parser.add_argument(
        "--ratchet",
        action="store_true",
        help=(
            "exit non-zero when macro/e1_paper_k2_batch lands more than "
            f"{RATCHET_MARGIN:.0%} below the recorded columnar baseline "
            f"({E1_K2_COLUMNAR_BASELINE_EVENTS_PER_S:,.0f} ev/s)"
        ),
    )
    args = parser.parse_args(argv)
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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
