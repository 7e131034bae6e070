"""``python -m repro serve`` — argument parsing and daemon launch.

This module stays print-free (the serve package writes no stray
output): every human-facing line goes through the ``echo``
callable the top-level CLI injects, and the daemon itself only ever
speaks the JSONL protocol on its sockets.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Callable

from ..obs.live import telemetry_addr
from ..schedulers.registry import scheduler_names
from .checkpoint import verify_checkpoints
from .daemon import ServeDaemon
from .loopwatch import (
    LoopStallError,
    LoopWatch,
    loopwatch_enabled,
    stall_threshold,
    watched_run,
)
from .protocol import (
    DEFAULT_SCHEDULER,
    checkpoint_every,
    max_line_bytes,
    queue_size,
)

__all__ = ["add_serve_parser", "cmd_serve"]


def add_serve_parser(
    sub: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> argparse.ArgumentParser:
    """Register the ``serve`` subcommand on the main parser."""
    p = sub.add_parser(
        "serve",
        help="streaming scheduling daemon (JSONL job streams in, "
        "start decisions out)",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--stdio", action="store_true",
        help="serve one session over stdin/stdout (the default)",
    )
    mode.add_argument(
        "--unix", metavar="PATH", default=None,
        help="listen on a Unix domain socket",
    )
    mode.add_argument(
        "--tcp", metavar="HOST:PORT", default=None,
        help="listen on a TCP socket, e.g. 127.0.0.1:7077",
    )
    p.add_argument(
        "--scheduler", default=DEFAULT_SCHEDULER, choices=scheduler_names(),
        help="default scheduler for implicitly opened tenants",
    )
    p.add_argument(
        "--queue-size", type=int, default=None,
        help="per-tenant/output queue bound (REPRO_SERVE_QUEUE)",
    )
    p.add_argument(
        "--max-line", type=int, default=None,
        help="longest accepted input line in bytes (REPRO_SERVE_MAX_LINE)",
    )
    p.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for per-tenant checkpoints "
        "(REPRO_SERVE_CHECKPOINT_DIR; checkpointing off when unset)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=None,
        help="ops between automatic checkpoints and trace flushes, "
        "0 disables (REPRO_SERVE_CHECKPOINT_EVERY)",
    )
    p.add_argument(
        "--trace-dir", default=None,
        help="directory tenants stream obs traces into, renamed from "
        "<tenant>.trace.jsonl.part at close "
        "(reconcilable with `repro obs explain --strict`)",
    )
    p.add_argument(
        "--telemetry", metavar="HOST:PORT", default=None,
        help="read-only telemetry listener: Prometheus text on /metrics, "
        "JSON on /snapshot (REPRO_TELEMETRY_ADDR; off when unset)",
    )
    p.add_argument(
        "--no-telemetry", action="store_true",
        help="disarm the live telemetry plane entirely "
        "(equivalent to REPRO_TELEMETRY=0)",
    )
    p.add_argument(
        "--restore", action="store_true",
        help="restore every checkpointed tenant before serving",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds a graceful drain waits for stalled consumers",
    )
    p.add_argument(
        "--verify-checkpoints", action="store_true",
        help="replay every checkpoint under --checkpoint-dir over the "
        "process pool and report, instead of serving",
    )
    return p


def _parse_hostport(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port:
        raise ValueError(f"--tcp takes HOST:PORT, got {spec!r}")
    return host, int(port)


def cmd_serve(
    args: argparse.Namespace,
    echo: Callable[[str], None] | None = None,
    echo_err: Callable[[str], None] | None = None,
) -> int:
    """Run the serve daemon (or checkpoint verification) to completion.

    ``echo`` is the injected human-output channel (``print`` from the
    top-level CLI); ``None`` keeps the command silent.  In stdio mode
    stdout carries the JSONL protocol, so human-facing lines go through
    ``echo_err`` (stderr) instead.
    """
    import os

    stdio_mode = (
        not args.unix and not args.tcp and not args.verify_checkpoints
    )

    def _say(line: str) -> None:
        channel = echo_err if stdio_mode and echo_err is not None else echo
        if channel is not None:
            channel(line)

    checkpoint_dir: str | None = args.checkpoint_dir or os.environ.get(
        "REPRO_SERVE_CHECKPOINT_DIR"
    ) or None

    if args.verify_checkpoints:
        if checkpoint_dir is None:
            _say("error: --verify-checkpoints requires --checkpoint-dir")
            return 2
        try:
            summaries = verify_checkpoints(checkpoint_dir)
        except (ValueError, OSError) as exc:
            _say(f"error: {exc}")
            return 1
        for s in summaries:
            state = "closed" if s.get("closed") else "open"
            extra = f" span={s['span']:g}" if "span" in s else ""
            _say(
                f"{s['tenant']}: {state} ops={s['ops']} "
                f"emitted={s['emitted']} t={s['clock']:g}{extra}"
            )
        _say(f"verified {len(summaries)} checkpoint(s)")
        return 0

    try:
        listen = telemetry_addr(args.telemetry)
        daemon = ServeDaemon(
            scheduler=args.scheduler,
            queue_size_override=(
                queue_size(args.queue_size) if args.queue_size else None
            ),
            max_line_override=(
                max_line_bytes(args.max_line) if args.max_line else None
            ),
            checkpoint_interval=(
                checkpoint_every(args.checkpoint_every)
                if args.checkpoint_every is not None
                else None
            ),
            checkpoint_dir=checkpoint_dir,
            trace_dir=args.trace_dir,
            restore=args.restore,
            drain_timeout=args.drain_timeout,
            telemetry=False if args.no_telemetry else None,
            telemetry_listen=listen,
        )
    except ValueError as exc:
        _say(f"error: {exc}")
        return 2

    def _ready(address: str) -> None:
        _say(f"serving on {address}")
        if daemon.telemetry_address is not None:
            _say(f"telemetry on {daemon.telemetry_address}")

    daemon.on_ready = _ready

    async def _serve() -> None:
        if args.unix:
            await daemon.run_unix(args.unix)
        elif args.tcp:
            host, port = _parse_hostport(args.tcp)
            await daemon.run_tcp(host, port)
        else:
            await daemon.run_stdio()

    try:
        if loopwatch_enabled():
            # Runtime twin of lint rules RL017/RL018: every callback is
            # timed, orphaned tasks are captured, and a stall past the
            # threshold fails the process (see repro.serve.loopwatch).
            # The watch is created up front so its metrics registry can
            # merge into live telemetry snapshots mid-run.
            watch = LoopWatch(stall_threshold())
            daemon.loop_metrics = watch.metrics
            watched_run(_serve(), watch=watch)
            snap = watch.metrics.snapshot()
            _say(
                "loopwatch: "
                f"{snap['counters'].get('loopwatch.callbacks', 0):.0f} "
                "callback(s), "
                f"{snap['counters'].get('loopwatch.stalls', 0):.0f} "
                "stall(s), "
                f"{snap['counters'].get('loopwatch.orphans', 0):.0f} "
                "orphan(s)"
            )
        else:
            asyncio.run(_serve())
    except LoopStallError as exc:
        _say(f"loopwatch: {exc}")
        return 3
    except ValueError as exc:  # bad --tcp spec, unreadable checkpoint, ...
        _say(f"error: {exc}")
        return 2
    _say(
        f"drained: {len(daemon.tenants)} tenant(s), "
        f"{daemon.records_out} record(s) out, {daemon.errors} error(s)"
    )
    return 0
