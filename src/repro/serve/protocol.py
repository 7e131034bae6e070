"""The ``repro serve`` line protocol: JSONL ops in, JSONL records out.

Every *input* line is one JSON object carrying an ``op``:

``{"op": "open", "tenant": T, "scheduler": "batch+", "params": {...}}``
    Open a tenant stream explicitly (optional — a ``job`` op for an
    unknown tenant opens it with the default scheduler).
``{"op": "job", "tenant": T, "id": 1, "arrival": 0.0, "deadline": 2.0,
  "length": 1.0}``
    Feed one job arrival.  ``laxity`` may replace ``deadline``
    (``deadline = arrival + laxity``); ``size`` is optional.  Arrivals
    must be non-decreasing per tenant (the stream is online).
``{"op": "advance", "tenant": T, "t": 10.0}``
    Advance the tenant's logical clock to ``t``, dispatching every
    queued engine event at or before it (deadline batches fire here).
``{"op": "close", "tenant": T}``
    Drain the tenant to completion, emit its summary, write its trace.
``{"op": "checkpoint", "tenant": T?}``
    Checkpoint one tenant (or, without ``tenant``, every open one).
``{"op": "stats"}``
    Emit a daemon statistics record.
``{"op": "shutdown"}``
    Graceful drain of every tenant, then exit — the in-band twin of
    ``SIGTERM``.

Every *output* line is one JSON object with a ``kind``: ``serve.ready``,
``serve.open``, ``start``, ``decision``, ``complete``, ``serve.closed``,
``serve.checkpoint``, ``serve.stats``, ``serve.error``, ``serve.bye``.
``start``/``decision``/``complete`` carry simulation-time fields only
(never wall-clock), so the stream a restored daemon emits is
bit-identical to the one an uninterrupted daemon would have emitted.
Decision records reuse the closed rule vocabulary from
:mod:`repro.obs.records` — ``repro obs explain --strict`` reconciles the
trace a session writes with no extra translation.

Knobs (environment, overridable per-flag on the CLI):

``REPRO_SERVE_QUEUE``
    Bound on each per-tenant input queue and each connection's output
    queue (default 256).  Full queues propagate backpressure to the
    socket instead of buffering without limit.
``REPRO_SERVE_MAX_LINE``
    Longest accepted input line in bytes (default 65536).  Longer lines
    are rejected with a ``serve.error`` record; the connection survives.
``REPRO_SERVE_CHECKPOINT_EVERY``
    Ops between automatic per-tenant checkpoints (default 64; ``0``
    disables automatic checkpoints).
"""

from __future__ import annotations

import json
import os
import re
from typing import Any

from ..core.errors import InvalidJobError
from ..core.job import Job

__all__ = [
    "CHECKPOINT_EVERY_ENV",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_MAX_LINE",
    "DEFAULT_QUEUE_SIZE",
    "DEFAULT_SCHEDULER",
    "MAX_LINE_ENV",
    "OPS",
    "ProtocolError",
    "QUEUE_ENV",
    "checkpoint_every",
    "encode_record",
    "error_record",
    "job_from_op",
    "max_line_bytes",
    "parse_op",
    "queue_size",
]

#: Default scheduler for implicitly opened tenants (the paper's tight
#: non-clairvoyant algorithm).
DEFAULT_SCHEDULER = "batch+"

QUEUE_ENV = "REPRO_SERVE_QUEUE"
MAX_LINE_ENV = "REPRO_SERVE_MAX_LINE"
CHECKPOINT_EVERY_ENV = "REPRO_SERVE_CHECKPOINT_EVERY"

DEFAULT_QUEUE_SIZE = 256
DEFAULT_MAX_LINE = 65536
DEFAULT_CHECKPOINT_EVERY = 64

#: Ops that address one tenant (and therefore require a ``tenant`` field).
TENANT_OPS = frozenset({"open", "job", "advance", "close"})
#: All legal ops.
OPS = TENANT_OPS | frozenset({"checkpoint", "stats", "shutdown"})

#: Tenant names become file names (``<tenant>.trace.jsonl``,
#: ``<tenant>.ckpt.jsonl``), so they are restricted to a safe alphabet.
_TENANT_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9._-]{0,63}$")


class ProtocolError(ValueError):
    """A malformed input line or op (per-tenant when the tenant is known)."""

    def __init__(self, message: str, tenant: str | None = None) -> None:
        super().__init__(message)
        self.tenant = tenant


def _env_int(name: str, default: int, *, minimum: int = 0) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def queue_size(override: int | None = None) -> int:
    """Per-tenant/output queue bound (``REPRO_SERVE_QUEUE``)."""
    if override is not None:
        if override < 1:
            raise ValueError(f"queue size must be >= 1, got {override}")
        return override
    return _env_int(QUEUE_ENV, DEFAULT_QUEUE_SIZE, minimum=1)


def max_line_bytes(override: int | None = None) -> int:
    """Longest accepted input line (``REPRO_SERVE_MAX_LINE``)."""
    if override is not None:
        if override < 64:
            raise ValueError(f"max line must be >= 64 bytes, got {override}")
        return override
    return _env_int(MAX_LINE_ENV, DEFAULT_MAX_LINE, minimum=64)


def checkpoint_every(override: int | None = None) -> int:
    """Ops between automatic checkpoints; 0 disables
    (``REPRO_SERVE_CHECKPOINT_EVERY``)."""
    if override is not None:
        if override < 0:
            raise ValueError(f"checkpoint interval must be >= 0, got {override}")
        return override
    return _env_int(CHECKPOINT_EVERY_ENV, DEFAULT_CHECKPOINT_EVERY, minimum=0)


def parse_op(raw: "str | bytes") -> dict[str, Any]:
    """Parse and validate one input line into a normalised op dict.

    Raises :class:`ProtocolError` (tenant attached when identifiable)
    on malformed JSON, unknown ops, bad tenant names, or missing fields.
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"input line is not UTF-8: {exc}") from None
    text = raw.strip()
    if not text:
        raise ProtocolError("blank input line")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("input line is not a JSON object")
    op = obj.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {sorted(OPS)}"
        )
    tenant = obj.get("tenant")
    if tenant is not None and (
        not isinstance(tenant, str) or not _TENANT_RE.match(tenant)
    ):
        raise ProtocolError(
            f"invalid tenant name {tenant!r} (1-64 chars of [A-Za-z0-9._-], "
            "not starting with a dot)"
        )
    if op in TENANT_OPS and tenant is None:
        raise ProtocolError(f"op {op!r} requires a tenant")
    if op == "advance":
        t = obj.get("t")
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            raise ProtocolError("advance requires a numeric 't'", tenant=tenant)
    return obj


def job_from_op(op: dict[str, Any]) -> Job:
    """Build the :class:`~repro.core.job.Job` a ``job`` op describes.

    ``deadline`` may be given as an absolute time or via ``laxity``
    (relative to arrival).  Field validation (non-negative arrival,
    positive finite length, window sanity) is the Job constructor's —
    its :class:`InvalidJobError` is re-raised as :class:`ProtocolError`.
    """
    tenant = op.get("tenant")
    job_id = op.get("id")
    if not isinstance(job_id, int) or isinstance(job_id, bool):
        raise ProtocolError("job op requires an integer 'id'", tenant=tenant)

    def _num(field: str, default: "float | None" = None) -> float | None:
        value = op.get(field, default)
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(
                f"job field {field!r} must be a number, got {value!r}",
                tenant=tenant,
            )
        return float(value)

    arrival = _num("arrival")
    if arrival is None:
        raise ProtocolError("job op requires 'arrival'", tenant=tenant)
    deadline = _num("deadline")
    if deadline is None:
        laxity = _num("laxity")
        if laxity is None:
            raise ProtocolError(
                "job op requires 'deadline' or 'laxity'", tenant=tenant
            )
        deadline = arrival + laxity
    length = _num("length")
    if length is None:
        raise ProtocolError(
            "job op requires 'length' (adversary-controlled lengths are "
            "not servable)",
            tenant=tenant,
        )
    size = _num("size", 1.0)
    assert size is not None
    try:
        return Job(
            id=job_id, arrival=arrival, deadline=deadline,
            length=length, size=size,
        )
    except InvalidJobError as exc:
        raise ProtocolError(str(exc), tenant=tenant) from None


#: The compact encoder ``encode_record`` uses: the defaults of
#: ``json.dumps(..., separators=(",", ":"))``, built once.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def encode_record(record: dict[str, Any]) -> bytes:
    """One output record as a JSONL-encoded line (trailing newline)."""
    return (_ENCODE(record) + "\n").encode("utf-8")


def error_record(
    message: str, *, tenant: str | None = None, **attrs: Any
) -> dict[str, Any]:
    """A ``serve.error`` output record."""
    record: dict[str, Any] = {"kind": "serve.error", "error": message}
    if tenant is not None:
        record["tenant"] = tenant
    record.update(attrs)
    return record
