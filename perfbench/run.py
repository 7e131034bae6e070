"""End-to-end benchmark: the serving daemon and the paper's batch path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_burst --seed 1 --seconds 30 --trace 0

Workloads (why each exists: ``perfbench/README.md`` and BENCHMARK.json):

``serve_burst``  closed loop, 8 ``batch+`` tenants, default daemon flags.
``serve_paced``  open loop at a fixed op rate, 16 tenants over four
                 schedulers, ``--checkpoint-dir`` and ``--trace-dir``, then
                 SIGKILL and ``--restore``.
``paper_batch``  the §3.1 adversary (E1) and ratio certification of the
                 paper's five schedulers, in a fresh process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once plainly and once under ``perfbench/boot.py`` and prints the
per-layer metrics.  Every output is checked; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
phase prints ``phase <name>: <reason>`` on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import gates  # noqa: E402
from perfbench.ops import OpStream, batch_spans, make_stream, reference_replay  # noqa: E402
from perfbench.serving import (  # noqa: E402
    PHASE_TIMEOUT,
    Daemon,
    PhaseError,
    child_setup,
    close_writer,
    daemon_env,
    dump_spans,
    exchange,
    op_latencies,
    pin,
    proc_cpu_s,
    proc_hwm_mb,
    request,
    split_cpus,
    split_records,
)

# serve_burst: a round is one daemon life serving the whole op stream.
BURST_TENANTS = 8
BURST_JOBS_PER_TENANT = 2000
MIN_ROUNDS = 3
MAX_ROUNDS = 40
#: serve_burst reports these from its fastest round: the host's
#: interference only ever slows a round down, and a slow spell drags the
#: median round with it (ten-seed IQR of ops_per_s 0.17 of the median for
#: the median round, 0.07 for the fastest, on a 2-vCPU VM).
FASTEST_ROUND = ("ops_per_s", "events_per_s", "cpu_ms_per_op", "op_latency_p50_ms",
                 "op_latency_p99_ms", "rss_mb")

# serve_paced: a fixed offered load that keeps the durable daemon about a
# third busy (0.3 ms of CPU per op plus checkpoint rewrites, on a 2-core
# x86 VM), so its queues stay short and the latency tail shows stalls, not
# overload.  At 1200 ops/s the checkpoint work near the end of the stream
# brought it close to capacity.
PACED_TENANTS = 16
PACED_SCHEDULERS = ("batch+", "batch", "cdb", "profit")
PACED_RATE = 900.0
#: Share of --seconds the open-loop stream lasts; restore and the extra
#: set-up samples use the rest.  Each periodic checkpoint rewrites the
#: tenant's whole op log, so checkpoint work grows with the stream: a 21 s
#: stream at 1200 ops/s overloaded the daemon near its end (p99 30-80 ms
#: from seed to seed); 18 s at 900 ops/s stays under capacity throughout.
PACED_SHARE = 0.6
SETUP_SAMPLES = 7

# paper_batch: one fresh worker repeats its passes over the seed's
# instances for the rest of --seconds after SETUP_SAMPLES - 1 set-up-only
# spawns; each unit of work counts at its fastest pass (perfbench/paper.py).

#: A serve run is invalid when the client kept a core this busy, or (open
#: loop) sent its ops this late: the client, not the daemon, set the pace.
MAX_CLIENT_CPU_SHARE = 0.9
MAX_LAG_P99_MS = 20.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "events_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "op_latency_p50_ms": "ms",
    "rss_mb": "MB",
}

#: Measured and printed by every run but not in the result object: on a
#: 2-vCPU VM serve_paced's p99 swung 2x with the host's own speed
#: (ten-seed IQR 23-44% of the median), wider than any bound the result
#: may carry, and every workload reports the same metric set.  ``restore_s`` exists on serve_paced
#: only.
PRINTED = {"op_latency_p99_ms": "ms", "restore_s": "s", "generator.lag_p99_ms": "ms",
           "generator.cpu_share": "ratio"}

#: The same numbers under the names a workload's own vocabulary uses.
ALIASES = {
    "paper_batch": {"adversary_events_per_s": "events_per_s", "certify_cells_per_s": "ops_per_s"},
}

PER_LAYER = {
    "protocol.parse.calls": "count",
    "protocol.parse.busy_s": "s",
    "protocol.parse.errors": "count",
    "protocol.job_from_op.busy_s": "s",
    "protocol.encode.calls": "count",
    "protocol.encode.busy_s": "s",
    "protocol.encode.bytes": "B",
    "daemon.tenant_queue.wait_p50_ms": "ms",
    "daemon.tenant_queue.wait_p99_ms": "ms",
    "daemon.out_queue.wait_p50_ms": "ms",
    "daemon.out_queue.wait_p99_ms": "ms",
    "daemon.cpu_s": "s",
    "daemon.unattributed_s": "s",
    "transport.write.calls": "count",
    "transport.write.busy_s": "s",
    "transport.drain.wait_s": "s",
    "session.apply.calls": "count",
    "session.apply.busy_s": "s",
    "session.apply.self_s": "s",
    "session.records_out": "count",
    "engine.feed.busy_s": "s",
    "engine.advance.calls": "count",
    "engine.advance.busy_s": "s",
    "engine.advance.events": "count",
    "engine.finish.busy_s": "s",
    "engine.simulate.calls": "count",
    "engine.simulate.busy_s": "s",
    "engine.simulate.events": "count",
    "live.observe.calls": "count",
    "live.observe.busy_s": "s",
    "checkpoint.save.calls": "count",
    "checkpoint.save.busy_s": "s",
    "checkpoint.save.bytes": "B",
    "checkpoint.restore.busy_s": "s",
    "trace.write.calls": "count",
    "trace.write.busy_s": "s",
    "trace.write.bytes": "B",
    "runtime.gc.collections_gen2": "count",
    "runtime.gc.pause_s": "s",
    "runtime.gc.pause_max_ms": "ms",
    "offline.lower_bound.calls": "count",
    "offline.lower_bound.busy_s": "s",
    "offline.heuristic.calls": "count",
    "offline.heuristic.busy_s": "s",
    "offline.exact.calls": "count",
    "offline.exact.busy_s": "s",
    "offline.exact.fallback_ratio": "ratio",
    "certify.bracket.calls": "count",
    "certify.bracket.calls_per_instance": "ratio",
    "generator.lag_p99_ms": "ms",
    "generator.cpu_share": "ratio",
    "tracing.overhead_pct": "%",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Run:
    """Gate failures, op counts and samples gathered by one invocation."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.info: dict[str, object] = {}
        self.layers: dict[str, float] = {}
        self.phase = "setup"

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, messages: list[str]) -> None:
        self.problems.extend(messages)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


# ----------------------------------------------------------------- serving
def burst_stream(seed: int) -> OpStream:
    tenants = [(f"b{i}", "batch+") for i in range(BURST_TENANTS)]
    return make_stream(seed, tenants, BURST_JOBS_PER_TENANT, explicit_open=False)


def paced_stream(seed: int, seconds: int) -> tuple[OpStream, list[float]]:
    import numpy as np

    tenants = [
        (f"p{i:02d}", PACED_SCHEDULERS[i % len(PACED_SCHEDULERS)])
        for i in range(PACED_TENANTS)
    ]
    total = PACED_RATE * seconds * PACED_SHARE
    jobs = max(1, int((total - 2 * PACED_TENANTS) / PACED_TENANTS))
    stream = make_stream(seed, tenants, jobs, explicit_open=True)
    rng = np.random.default_rng([seed, 1])
    schedule = np.cumsum(rng.exponential(1.0 / PACED_RATE, len(stream.lines))).tolist()
    return stream, schedule


def prepare(run: Run, stream: OpStream, trace_dir: "str | None") -> dict[str, float]:
    """Reference replay and batch spans, once, before any timed window."""
    run.phase = "reference"
    reference_replay(stream, trace_dir)
    batch = batch_spans(stream)
    run.check([f"self-check: {m}" for m in gates.self_check(stream.records, batch, stream.emitted)])
    return batch


def check_served(run: Run, stream: OpStream, chunks, batch: dict[str, float]):
    """Run the record and span gates and count failed ops.

    Returns each tenant's record arrival times and the engine events the
    ``serve.closed`` records report.
    """
    lines, times, other = split_records(chunks)
    run.check(gates.records(lines, stream.records))
    closed = {}
    events = 0
    for tenant, recs in lines.items():
        for line in recs:
            if b'"kind":"serve.closed"' in line:
                record = json.loads(line)
                closed[tenant] = float(record["span"])
                events += record["events"]
    run.check(gates.spans(closed, batch))
    errors = sum(1 for recs in lines.values() for line in recs if b'"kind":"serve.error"' in line)
    errors += sum(1 for line in other if b'"kind":"serve.error"' in line)
    received = {t: len(v) for t, v in lines.items()}
    missing = 0
    cursor: dict[str, int] = {}
    for tenant, count in zip(stream.op_tenant, stream.op_records):
        cursor[tenant] = cursor.get(tenant, 0) + count
        if count and cursor[tenant] > received.get(tenant, 0):
            missing += 1
    run.attempted += len(stream.lines)
    run.failed += errors + missing
    return times, events


def record_generator(run: Run, ex, window: float) -> None:
    share = ex.client_cpu_s / max(window, 1e-9)
    lag = percentile(ex.lags, 0.99) * 1e3 if ex.lags else 0.0
    run.sample("generator.cpu_share", share)
    run.sample("generator.lag_p99_ms", lag)
    if share > MAX_CLIENT_CPU_SHARE:
        run.check([f"invalid run: client used {share:.0%} of a core (client-bound)"])
    if lag > MAX_LAG_P99_MS:
        run.check([f"invalid run: generator lag p99 {lag:.1f} ms > {MAX_LAG_P99_MS} ms"])


async def serve_round(run: Run, stream: OpStream, batch, *, name: str, flags: list[str],
                      schedule=None, traced: bool = False) -> "dict | None":
    """One daemon life: spawn, serve the stream, measure, check, kill.

    Returns the traced daemon's layer totals (``None`` untraced).
    """
    run.phase = name
    boot = [str(ROOT / "perfbench" / "boot.py"), str(run.workdir / f"{name}.spans.json"), "-m", "repro"] if traced else None
    daemon = Daemon(ROOT, run.workdir, name, flags, boot)
    spans = None
    daemon.spawn()
    try:
        reader, writer, _, ready_at = await daemon.connect(f"{name} ready")
        cpu0 = proc_cpu_s(daemon.pid)
        gc.collect()
        gc.disable()  # the client is the instrument: keep its pauses out of the window
        try:
            ex = await exchange(reader, writer, stream, phase=name, schedule=schedule)
        finally:
            gc.enable()
        cpu1 = proc_cpu_s(daemon.pid)
        hwm = proc_hwm_mb(daemon.pid)
        if traced:
            spans = await dump_spans(daemon, run.workdir / f"{name}.spans.json", name)
        await close_writer(writer)
    finally:
        daemon.kill()
    times, events = check_served(run, stream, ex.chunks, batch)
    window = ex.last_closed - ex.first_write
    lat = op_latencies(stream, ex, times)
    tag = "traced." if traced else ""
    run.sample(tag + "setup_s", ready_at - daemon.spawned_at)
    run.sample(tag + "ops_per_s", len(stream.lines) / window)
    run.sample(tag + "events_per_s", events / window)
    run.sample(tag + "cpu_ms_per_op", (cpu1 - cpu0) * 1e3 / len(stream.lines))
    run.sample(tag + "daemon.cpu_s", cpu1 - cpu0)
    run.sample(tag + "rss_mb", hwm)
    run.sample(tag + "op_latency_p50_ms", percentile(lat, 0.5) * 1e3)
    run.sample(tag + "op_latency_p99_ms", percentile(lat, 0.99) * 1e3)
    run.info["timed_ops"] = len(lat)
    if not traced:
        record_generator(run, ex, window)
    return spans


async def spawn_only(run: Run, name: str, flags: list[str]) -> None:
    """Spawn to serve.ready, then kill: one more set-up sample."""
    run.phase = name
    daemon = Daemon(ROOT, run.workdir, name, flags)
    daemon.spawn()
    try:
        _, writer, _, ready_at = await daemon.connect(f"{name} ready")
        run.sample("setup_s", ready_at - daemon.spawned_at)
        await close_writer(writer)
    finally:
        daemon.kill()


def serve_burst(run: Run) -> None:
    stream = burst_stream(run.args.seed)
    batch = prepare(run, stream, None)
    if run.args.trace:
        asyncio.run(serve_round(run, stream, batch, name="plain", flags=[]))
        spans = asyncio.run(serve_round(run, stream, batch, name="traced", flags=[], traced=True))
        layer_metrics(run, spans, None, base="cpu_ms_per_op")
        return
    deadline = time.perf_counter() + run.args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or (time.perf_counter() < deadline and rounds < MAX_ROUNDS):
        asyncio.run(serve_round(run, stream, batch, name=f"r{rounds}", flags=[]))
        rounds += 1
    fastest = max(range(rounds), key=run.samples["ops_per_s"].__getitem__)
    for name in FASTEST_ROUND:
        run.samples[name] = [run.samples[name][fastest]]
    run.info["rounds"] = rounds
    run.info["fastest_round"] = fastest


def serve_paced(run: Run) -> None:
    stream, schedule = paced_stream(run.args.seed, run.args.seconds)
    ckpt = run.workdir / "ckpt"
    trace_dir = run.workdir / "traces"
    batch = prepare(run, stream, str(trace_dir))
    flags = ["--checkpoint-dir", str(ckpt), "--trace-dir", str(trace_dir)]
    if not run.args.trace:
        for i in range(SETUP_SAMPLES - 1):
            empty = run.workdir / f"empty{i}"
            asyncio.run(spawn_only(run, f"s{i}", ["--checkpoint-dir", str(empty), "--trace-dir", str(empty)]))
    else:
        # Same directories as the traced round (serve.trace records name
        # them), emptied in between so the traced daemon starts clean.
        asyncio.run(serve_round(run, stream, batch, name="plain", flags=flags, schedule=schedule))
        shutil.rmtree(ckpt)
        shutil.rmtree(trace_dir)
    spans = asyncio.run(serve_round(run, stream, batch, name="main", flags=flags, schedule=schedule,
                                    traced=bool(run.args.trace)))
    restore_spans = asyncio.run(restore(run, stream, flags, traced=bool(run.args.trace)))
    if run.args.trace:
        layer_metrics(run, spans, restore_spans, base="cpu_ms_per_op")


async def restore(run: Run, stream: OpStream, flags: list[str], *, traced: bool) -> "dict | None":
    """Restart with --restore after the SIGKILL; time it; check stats.

    ``restore_s`` runs from the spawn to the first stats record that
    lists every tenant.
    """
    run.phase = "restore"
    boot = [str(ROOT / "perfbench" / "boot.py"), str(run.workdir / "restore.spans.json"), "-m", "repro"] if traced else None
    daemon = Daemon(ROOT, run.workdir, "restore", [*flags, "--restore"], boot)
    spans = None
    daemon.spawn()
    try:
        reader, writer, _, _ = await daemon.connect("restore ready")
        # On a socket the daemon answers serve.ready while the replay is
        # still running in a worker thread, so restore is complete only
        # once a stats op lists the restored tenants.
        deadline = time.perf_counter() + PHASE_TIMEOUT
        while True:
            stats = await request(reader, writer, {"op": "stats"}, "restore stats")
            ready_at = time.perf_counter()
            if stats.get("kind") != "serve.stats":
                raise PhaseError("restore stats", f"expected serve.stats, got {stats.get('kind')}")
            if len(stats.get("tenants", {})) >= len(stream.emitted):
                break
            if ready_at > deadline:
                raise PhaseError("restore", "tenants never came back")
            await asyncio.sleep(0.002)
        run.check(gates.stats(stats, stream.emitted))
        if traced:
            spans = await dump_spans(daemon, run.workdir / "restore.spans.json", "restore")
        await close_writer(writer)
    finally:
        daemon.kill()
    run.sample(("traced." if traced else "") + "restore_s", ready_at - daemon.spawned_at)
    return spans


# ---------------------------------------------------------------- per layer
def layer_metrics(run: Run, spans: "dict | None", extra: "dict | None", *, base: str) -> None:
    """Per-layer metrics from the traced process(es) of one workload.

    ``spans`` is the traced process under test; ``extra`` (the restored
    daemon) adds to its totals but not to the CPU accounting.
    ``daemon.unattributed_s`` is the daemon's CPU over the served window
    minus the CPU self time of every span: framing, queues and the event
    loop itself.
    """
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    dumps = [d for d in (spans, extra) if d]
    for dump in dumps:
        for name, entry in dump["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for name, value in dump["counters"].items():
            if name == "runtime.gc.pause_max_s":
                counters[name] = max(counters.get(name, 0.0), value)
            else:
                counters[name] = counters.get(name, 0.0) + value

    def layer(name: str, key: str) -> float:
        return float(layers.get(name, {}).get(key, 0.0))

    out = run.layers
    for name in PER_LAYER:
        out[name] = 0.0
    for prefix in ("protocol.parse", "protocol.encode", "transport.write", "session.apply",
                   "engine.advance", "engine.simulate", "live.observe", "checkpoint.save",
                   "trace.write", "offline.lower_bound", "offline.heuristic", "offline.exact",
                   "certify.bracket"):
        out[prefix + ".calls"] = layer(prefix, "calls")
        out[prefix + ".busy_s"] = layer(prefix, "busy_s")
    for prefix in ("protocol.job_from_op", "engine.feed", "engine.finish", "checkpoint.restore"):
        out[prefix + ".busy_s"] = layer(prefix, "busy_s")
    out["session.apply.self_s"] = layer("session.apply", "self_s")
    for name in ("protocol.parse.errors", "protocol.encode.bytes", "session.records_out",
                 "engine.advance.events", "engine.simulate.events", "checkpoint.save.bytes",
                 "trace.write.bytes", "runtime.gc.collections_gen2", "transport.drain.wait_s"):
        out[name] = counters.get(name, 0.0)
    out["runtime.gc.pause_s"] = layer("runtime.gc", "busy_s")
    out["runtime.gc.pause_max_ms"] = counters.get("runtime.gc.pause_max_s", 0.0) * 1e3
    attempts = counters.get("offline.exact.attempts", 0.0)
    out["offline.exact.fallback_ratio"] = counters.get("offline.exact.fallbacks", 0.0) / attempts if attempts else 0.0
    instances = sum(d["instances"] for d in dumps)
    out["certify.bracket.calls_per_instance"] = out["certify.bracket.calls"] / instances if instances else 0.0
    run.info["traced_spans"] = sum(d["spans"] for d in dumps)
    if "traced.daemon.cpu_s" in run.samples:  # a served workload
        out["daemon.tenant_queue.wait_p50_ms"], out["daemon.tenant_queue.wait_p99_ms"] = (
            v * 1e3 for v in spans["tenant_queue_wait_s"])
        out["daemon.out_queue.wait_p50_ms"], out["daemon.out_queue.wait_p99_ms"] = (
            v * 1e3 for v in spans["out_queue_wait_s"])
        cpu = run.samples["traced.daemon.cpu_s"][-1]
        out["daemon.cpu_s"] = cpu
        out["daemon.unattributed_s"] = cpu - spans["total_self_s"]
    for name in ("generator.lag_p99_ms", "generator.cpu_share"):
        if name in run.samples:
            out[name] = run.samples[name][-1]
    plain = run.samples.get(base)
    traced = run.samples.get("traced." + base)
    if plain and traced:
        out["tracing.overhead_pct"] = (traced[-1] / plain[-1] - 1.0) * 100.0


# ------------------------------------------------------------ paper batch
def paper_worker(run: Run, name: str, *, seconds: float = 0.0, setup_only: bool = False,
                 traced: bool = False) -> dict:
    """Run ``perfbench/paper.py`` in a fresh process; return its JSON."""
    run.phase = name
    cmd = [sys.executable]
    if traced:
        cmd += [str(ROOT / "perfbench" / "boot.py"), str(run.workdir / f"{name}.spans.json")]
    cmd += [str(ROOT / "perfbench" / "paper.py"), "--seed", str(run.args.seed), "--seconds", f"{seconds:.3f}"]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    try:
        cpus = split_cpus()
        proc = subprocess.run(cmd, cwd=ROOT, env=daemon_env(ROOT), capture_output=True,
                              timeout=seconds + PHASE_TIMEOUT, check=False,
                              preexec_fn=child_setup(cpus[1] if cpus else None))
    except subprocess.TimeoutExpired:
        raise PhaseError(name, "paper worker timed out") from None
    if proc.returncode != 0:
        raise PhaseError(name, f"paper worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    if traced:
        out["spans"] = json.loads((run.workdir / f"{name}.spans.json").read_text())
    return out


def check_paper(run: Run, out: dict) -> None:
    from repro.analysis.theory import nonclairvoyant_lower_bound

    from perfbench.paper import E1_K, E1_MU

    bound = nonclairvoyant_lower_bound(E1_K, E1_MU)
    for item in out["e1"] + out["cells"]:
        if "opt_witness" in item:
            problems = gates.e1_ratio(item["span"] / item["opt_witness"], bound, item["scheduler"])
        else:
            problems = gates.cell(item)
        problems += gates.repeats(item)
        run.failed += bool(problems)
        run.check(problems)
    run.attempted += len(out["cells"]) + len(out["e1"])


def record_paper(run: Run, out: dict, tag: str = "") -> None:
    """Each E1 run and each cell counts at its fastest pass."""
    cells = [min(c["walls"]) for c in out["cells"]]
    e1 = sum(min(e["walls"]) for e in out["e1"])
    run.sample(tag + "setup_s", out["setup_s"])
    run.sample(tag + "ops_per_s", len(cells) / sum(cells))
    run.sample(tag + "events_per_s", sum(e["events"] for e in out["e1"]) / e1)
    run.sample(tag + "cpu_ms_per_op", sum(min(c["cpus"]) for c in out["cells"]) * 1e3 / len(cells))
    run.sample(tag + "rss_mb", out["hwm_mb"])
    run.sample(tag + "work_s", e1 + sum(cells))
    run.sample(tag + "op_latency_p50_ms", percentile(cells, 0.5) * 1e3)
    run.sample(tag + "op_latency_p99_ms", percentile(cells, 0.99) * 1e3)
    run.info[tag + "timed_ops"] = len(cells)
    run.info[tag + "passes"] = out["passes"]


def paper_batch(run: Run) -> None:
    run.check([f"self-check: {m}" for m in gates.self_check()])
    if run.args.trace:
        plain = paper_worker(run, "plain")
        check_paper(run, plain)
        record_paper(run, plain)
        traced = paper_worker(run, "traced", traced=True)
        check_paper(run, traced)
        record_paper(run, traced, "traced.")
        layer_metrics(run, traced["spans"], None, base="work_s")
        return
    deadline = time.perf_counter() + run.args.seconds
    for i in range(SETUP_SAMPLES - 1):
        run.sample("setup_s", paper_worker(run, f"s{i}", setup_only=True)["setup_s"])
    out = paper_worker(run, "main", seconds=max(0.0, deadline - time.perf_counter()))
    check_paper(run, out)
    record_paper(run, out)


# -------------------------------------------------------------------- main
WORKLOADS = {"serve_burst": serve_burst, "serve_paced": serve_paced, "paper_batch": paper_batch}


def report(run: Run) -> dict:
    """Print the human table; return the result object."""
    if run.args.trace:
        metrics = {name: {"value": run.layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": run.median(name), "unit": unit} for name, unit in END_TO_END.items()}
    print(f"# {run.args.workload} seed={run.args.seed} seconds={run.args.seconds} trace={run.args.trace}")
    for key, value in sorted(run.info.items()):
        print(f"  {key:<36} {value}")
    shown = dict(metrics)
    if not run.args.trace:
        for extra, unit in PRINTED.items():
            if extra in run.samples:
                shown[extra] = {"value": run.median(extra), "unit": unit}
        shown["failed_op_ratio"] = {"value": run.failed / max(run.attempted, 1), "unit": "ratio"}
        for alias, name in ALIASES.get(run.args.workload, {}).items():
            shown[alias] = dict(metrics[name])
    for name, m in shown.items():
        samples = run.samples.get(name, [])
        spread = f"  (median of {len(samples)})" if len(samples) > 1 else ""
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{spread}")
    for problem in run.problems[:20]:
        print(f"  FAIL {problem}")
    return {"correct": not run.problems and run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"phase setup: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="w", dir=scratch))
    run = Run(args, workdir)
    # SIGTERM unwinds like an error, so every `finally` reaps its daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpus = split_cpus()
    if cpus:
        pin(0, cpus[0])
    try:
        WORKLOADS[args.workload](run)
        result = report(run)
    except PhaseError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # any other failure still names its phase
        print(f"phase {run.phase}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
