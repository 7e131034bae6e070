"""Streaming scheduling daemon: ``python -m repro serve``.

Turns the discrete-event engine's incremental feed
(:meth:`repro.core.engine.Simulator.start_stream`) into a long-running
service: JSONL job-arrival streams in, start-decision records out, many
tenant scheduler instances multiplexed in one asyncio process.

Layers
------
* :mod:`repro.serve.protocol` — the line protocol (ops in, records
  out), size/queue knobs, tenant-name hygiene.
* :mod:`repro.serve.session` — :class:`TenantSession`: one tenant's
  engine + output sink (protocol records and telemetry, plus a trace
  streamed to disk under ``--trace-dir``) + the input ops its
  checkpoint journal does not hold yet.
* :mod:`repro.serve.checkpoint` — event-sourced checkpoints over the
  versioned JSONL sink; restore by deterministic replay; pool fan-out
  verification.
* :mod:`repro.serve.journal` — the one append writer the checkpoint
  journal and the streamed trace share.
* :mod:`repro.serve.daemon` — :class:`ServeDaemon`: bounded queues with
  end-to-end backpressure, graceful SIGTERM drain, periodic
  checkpoints, stdio/Unix/TCP transports.
* :mod:`repro.serve.loopwatch` — the ``REPRO_LOOPWATCH=1`` instrumented
  event loop: per-callback stall timing and orphaned-task capture, the
  runtime twin of lint rules RL017/RL018.
* :mod:`repro.serve.telemetry` — the read-only telemetry listener:
  Prometheus text and JSON snapshots of the live per-tenant
  span/ratio aggregates (:mod:`repro.obs.live`).
* :mod:`repro.serve.cli` — the ``serve`` subcommand.

See ``docs/serving.md`` for the protocol walkthrough.
"""

from .protocol import (
    DEFAULT_SCHEDULER,
    ProtocolError,
    encode_record,
    error_record,
    job_from_op,
    parse_op,
)
from .session import TenantSession
from .checkpoint import (
    checkpoint_path,
    load_checkpoint,
    restore_all,
    restore_session,
    save_checkpoint,
    verify_checkpoints,
)
from .daemon import ServeDaemon
from .telemetry import TelemetryServer
from .loopwatch import (
    InstrumentedEventLoop,
    LoopStallError,
    LoopWatch,
    loopwatch_enabled,
    watched_run,
)

__all__ = [
    "DEFAULT_SCHEDULER",
    "InstrumentedEventLoop",
    "LoopStallError",
    "LoopWatch",
    "ProtocolError",
    "ServeDaemon",
    "TelemetryServer",
    "TenantSession",
    "checkpoint_path",
    "encode_record",
    "error_record",
    "job_from_op",
    "load_checkpoint",
    "loopwatch_enabled",
    "parse_op",
    "restore_all",
    "restore_session",
    "save_checkpoint",
    "verify_checkpoints",
    "watched_run",
]
