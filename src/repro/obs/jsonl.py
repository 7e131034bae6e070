"""JSONL trace sink: one JSON object per line, self-describing.

Layout of a trace file::

    {"kind": "meta", "version": 1, "tool": "repro.obs", ...caller meta}
    {"kind": "instant", "ts": ..., "name": ..., "attrs": {...}}
    {"kind": "decision", "ts": ..., "name": "<rule>", "attrs": {...}}
    ...
    {"kind": "metrics", "data": {"counters": ..., "gauges": ..., "histograms": ...}}

The first *logical* (non-blank) line is always ``meta`` (version-gated so
readers can reject foreign files), the last is always the merged
``metrics`` registry, and everything between is the record stream in
emission order.  The format round-trips losslessly through
:func:`read_jsonl` (tested in ``tests/test_obs_sinks.py``).

The versioned header + atomic-write discipline is shared with other
subsystems through the generic pair :func:`dump_jsonl` /
:func:`scan_jsonl` (:func:`parse_jsonl` for lines already read) —
``repro.serve`` checkpoint journals ride on it, which is why the writer
is hardened: a unique ``mkstemp`` temp file per writer (two
concurrent writers to the same target can never clobber each other's
half-written file), ``fsync`` before the rename (a checkpoint that
``os.replace`` has published must be durable), and a ``finally`` cleanup
so a mid-write exception never leaves a stray temp file behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .metrics import MetricsRegistry
from .records import ObsRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .recorder import TraceRecorder

__all__ = [
    "JSONL_VERSION",
    "LoadedTrace",
    "dump_jsonl",
    "parse_jsonl",
    "read_jsonl",
    "scan_jsonl",
    "write_jsonl",
]

JSONL_VERSION = 1


class LoadedTrace:
    """A trace file read back into memory: meta + records + metrics."""

    __slots__ = ("meta", "records", "metrics", "path")

    def __init__(
        self,
        meta: dict[str, Any],
        records: list[ObsRecord],
        metrics: MetricsRegistry,
        path: str = "",
    ) -> None:
        self.meta = meta
        self.records = records
        self.metrics = metrics
        self.path = path

    def by_kind(self, kind: str) -> list[ObsRecord]:
        """All records of one kind, in emission order."""
        return [r for r in self.records if r.kind == kind]

    def __len__(self) -> int:
        return len(self.records)


def dump_jsonl(
    path: "str | os.PathLike[str]",
    records: Iterable[Mapping[str, Any]],
    **meta: Any,
) -> str:
    """Atomically write a versioned JSONL file; returns the path written.

    Writes the ``meta`` header line followed by one JSON object per
    record.  Parent directories are created.  The write goes to a
    ``mkstemp`` temp file unique to this writer (concurrent writers to
    the same target cannot collide), is ``fsync``ed before the atomic
    ``os.replace``, and the temp file is removed in ``finally`` if
    anything fails mid-write — so a crashed or raced writer never leaves
    a half-file or a stray temp behind.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    header: dict[str, Any] = {"kind": "meta", "version": JSONL_VERSION}
    header.update(meta)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for record in records:
                fh.write(json.dumps(dict(record)) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass  # the normal case: os.replace already consumed it
    return str(target)


def scan_jsonl(
    path: "str | os.PathLike[str]",
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a versioned JSONL file: validated meta header + record dicts.

    The header is the first *logical* record — blank lines anywhere
    (including before the header) are skipped, so a leading newline can
    never demote the real header into the record stream.  A file with no
    records at all (empty, or blank lines only) is rejected: every
    legitimate writer emits at least the header line.
    """
    source = Path(path)
    with source.open("r", encoding="utf-8") as fh:
        return parse_jsonl(fh, source)


def parse_jsonl(
    lines: Iterable[str], source: "str | os.PathLike[str]"
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """:func:`scan_jsonl` over lines already read; ``source`` names them.

    For readers that must look at the raw lines first (the serve
    checkpoint journal drops a torn final line before parsing).
    """
    meta: dict[str, Any] | None = None
    records: list[dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}:{lineno}: invalid JSON: {exc}") from None
        if meta is None:
            if not isinstance(obj, dict) or obj.get("kind") != "meta":
                raise ValueError(
                    f"{source}: not a versioned repro JSONL file "
                    "(first line must be meta)"
                )
            version = obj.get("version")
            if version != JSONL_VERSION:
                raise ValueError(
                    f"{source}: unsupported trace version {version!r} "
                    f"(this reader speaks {JSONL_VERSION})"
                )
            meta = {k: v for k, v in obj.items() if k != "kind"}
            continue
        if not isinstance(obj, dict):
            raise ValueError(
                f"{source}:{lineno}: record is not a JSON object"
            )
        records.append(obj)
    if meta is None:
        raise ValueError(
            f"{source}: empty file is not a valid trace (missing meta header)"
        )
    return meta, records


def write_jsonl(
    recorder: "TraceRecorder", path: "str | os.PathLike[str]", **meta: Any
) -> str:
    """Write a finished recorder to ``path``; returns the path written.

    Parent directories are created; the write is atomic and crash-safe
    (see :func:`dump_jsonl`) so a crashed run never leaves a half-trace
    that a later ``repro obs summarize`` chokes on.
    """
    header_meta: dict[str, Any] = {"tool": "repro.obs"}
    header_meta.update(meta)

    def rows() -> Iterable[dict[str, Any]]:
        for record in recorder.records:
            yield record.to_dict()
        yield {"kind": "metrics", "data": recorder.metrics.to_dict()}

    return dump_jsonl(path, rows(), **header_meta)


def read_jsonl(path: "str | os.PathLike[str]") -> LoadedTrace:
    """Read a JSONL trace file back (validating the meta header)."""
    meta, rows = scan_jsonl(path)
    records: list[ObsRecord] = []
    metrics = MetricsRegistry()
    for obj in rows:
        if obj.get("kind") == "metrics":
            metrics.merge(MetricsRegistry.from_dict(obj.get("data", {})))
        else:
            records.append(ObsRecord.from_dict(obj))
    return LoadedTrace(meta, records, metrics, path=str(Path(path)))
