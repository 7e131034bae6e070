"""Event-sourced checkpoints for serve sessions.

A checkpoint is **not** pickled engine state.  It is the session's
input ops plus its emitted-output counter, kept as a versioned JSONL
journal (the format the observability traces use, see
:mod:`repro.obs.jsonl`).  Restoring replays the log through a fresh
deterministic session, suppressing the first ``emitted`` regenerated
output records — so a killed daemon resumes without re-admitting started
jobs and the records it emits after restore are bit-identical to the
ones the uninterrupted daemon would have emitted.

Layout: ``<checkpoint-dir>/<tenant>.ckpt.jsonl``, one append-only
journal per tenant::

    {"kind": "meta", "version": 1, "tool": "repro.serve", "tenant": ...,
     "scheduler": ..., "emitted": ..., "closed": ..., "clock": ..., "ops": N}
    {"kind": "op", "data": {...}}                  N op rows
    {"kind": "op", "data": {...}}                  ops logged since then
    {"kind": "mark", "ops": ..., "emitted": ..., "clock": ..., "closed": ...}
    ...                                            one block per later save

A session's first save writes the header and its whole op log
atomically (:func:`repro.obs.jsonl.dump_jsonl`: ``mkstemp``, ``fsync``,
``os.replace``).  Every later save appends the ops logged since the
previous save plus one sealing ``mark`` row in a single write, then
fsyncs (:func:`repro.serve.journal.append_jsonl`, the writer the
streamed trace shares), so a save costs the new ops, not the whole log.
The header and each mark are *seals*: :func:`load_checkpoint` returns
the state at the last one, dropping op rows after it and a torn final
line, so a crash mid-append restores the previous save.

A successful save empties the session's ``input_log``: the journal now
holds those ops, so the session keeps only the ones it lacks.  A failed
write or fsync keeps them, and the next save appends them again.  A
restored session replays every journaled op into its log, so its first
save rewrites (compacts) the file.

Verification fans out over the process pool: :func:`verify_checkpoints`
replays every checkpoint in parallel via
:class:`repro.perf.parallel.ParallelRunner` (the replay body is a
top-level picklable function), so a directory of hundreds of tenant
checkpoints validates at full core count.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..obs.jsonl import dump_jsonl, parse_jsonl
from ..obs.live import LiveAggregator
from ..perf.parallel import ParallelRunner, get_default_runner
from .journal import append_jsonl
from .session import TenantSession

__all__ = [
    "CHECKPOINT_SUFFIX",
    "checkpoint_path",
    "list_checkpoints",
    "load_checkpoint",
    "replay_summary",
    "restore_all",
    "restore_session",
    "save_checkpoint",
    "verify_checkpoints",
]

CHECKPOINT_SUFFIX = ".ckpt.jsonl"
_TOOL = "repro.serve"
#: The session counters a seal (header or ``mark`` row) records.
_SEAL_KEYS = ("ops", "emitted", "clock", "closed")


def checkpoint_path(directory: "str | Path", tenant: str) -> Path:
    """Where ``tenant``'s checkpoint lives under ``directory``."""
    return Path(directory) / f"{tenant}{CHECKPOINT_SUFFIX}"


def save_checkpoint(session: TenantSession, directory: "str | Path") -> str:
    """Durably save ``session``'s checkpoint; returns the path.

    The journal already holds every op the session no longer keeps in
    ``input_log``.  When it holds none (a session's first save, or a
    restored session's, whose replay logs every op again) the file is
    rewritten atomically; otherwise the logged ops and a sealing mark
    are appended in one fsynced write, so every save of one session
    must go to the same ``directory``.  Either way the log is emptied
    once the ops are on disk.  Raises ``RuntimeError`` on a session
    opened with ``log_ops=False``: it kept no ops to save.
    """
    log = session.input_log
    if log is None:
        raise RuntimeError(
            f"tenant {session.tenant!r} keeps no op log "
            "(the session was opened with log_ops=False)"
        )
    path = checkpoint_path(directory, session.tenant)
    if session.ops > len(log):
        rows = [{"kind": "op", "data": op} for op in log]
        rows.append(
            {
                "kind": "mark",
                "ops": session.ops,
                "emitted": session.emitted,
                "clock": session.clock,
                "closed": session.closed,
            }
        )
        append_jsonl(path, rows)
    else:
        meta, rows = session.checkpoint_state()
        dump_jsonl(path, rows, tool=_TOOL, **meta)
    log.clear()
    session.ops_since_checkpoint = 0
    return str(path)


def load_checkpoint(
    path: "str | Path",
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a checkpoint journal back as ``(meta, ops)`` at its last seal.

    ``meta`` is the header with the last mark's counters merged in;
    ``ops`` are the op rows that seal covers.  Op rows after it and a
    final line that is neither newline-terminated nor valid JSON (an
    append cut short) are dropped.  Raises ``ValueError`` on
    version/tool mismatches, bad JSON anywhere else, malformed or
    unknown rows, a mark whose op count disagrees with the rows before
    it, and fewer op rows than the header declares.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    try:
        json.loads(lines[-1])
    except ValueError:
        lines.pop()  # "" after the final newline, or a torn append
    meta, rows = parse_jsonl(lines, path)
    if meta.get("tool") != _TOOL:
        raise ValueError(
            f"{path}: not a serve checkpoint (tool={meta.get('tool')!r})"
        )
    ops: list[dict[str, Any]] = []
    seal: dict[str, Any] | None = None
    for row in rows:
        kind = row.get("kind")
        if kind == "op" and isinstance(row.get("data"), dict):
            ops.append(row["data"])
        elif kind == "mark" and all(key in row for key in _SEAL_KEYS):
            if row["ops"] != len(ops):
                raise ValueError(
                    f"{path}: mark declares {row['ops']!r} ops after "
                    f"{len(ops)} op rows"
                )
            seal = row
        else:
            raise ValueError(f"{path}: malformed checkpoint row {row!r}")
    declared = meta.get("ops")
    if isinstance(declared, int) and declared > len(ops):
        raise ValueError(
            f"{path}: truncated checkpoint (meta declares {declared} ops, "
            f"file holds {len(ops)})"
        )
    if seal is not None:
        meta.update((key, seal[key]) for key in _SEAL_KEYS)
        del ops[seal["ops"] :]
    elif isinstance(declared, int):
        del ops[declared:]
    return meta, ops


def restore_session(
    path: "str | Path",
    *,
    live: LiveAggregator | None = None,
    trace: bool = False,
) -> TenantSession:
    """Rebuild one tenant session from its checkpoint file.

    With ``live``, the replay feeds the tenant's telemetry in it; with
    ``trace``, the session keeps a trace (see :class:`TenantSession`).
    """
    meta, ops = load_checkpoint(path)
    telemetry = live.tenant(str(meta["tenant"])) if live is not None else None
    return TenantSession.restore(meta, ops, telemetry=telemetry, trace=trace)


def list_checkpoints(directory: "str | Path") -> list[Path]:
    """Every checkpoint file under ``directory``, sorted by tenant."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(root.glob(f"*{CHECKPOINT_SUFFIX}"))


def restore_all(
    directory: "str | Path",
    *,
    live: LiveAggregator | None = None,
    trace: bool = False,
) -> dict[str, TenantSession]:
    """Restore every checkpointed tenant under ``directory``
    (``live`` and ``trace`` as for :func:`restore_session`)."""
    sessions: dict[str, TenantSession] = {}
    for path in list_checkpoints(directory):
        session = restore_session(path, live=live, trace=trace)
        sessions[session.tenant] = session
    return sessions


def replay_summary(path: str) -> dict[str, Any]:
    """Replay one checkpoint and summarise the rebuilt session.

    Raises ``ValueError`` when the replayed clock, closed flag or
    emitted count differs from the checkpoint's last seal, so a stale or
    hand-edited checkpoint fails loudly instead of restoring silently
    wrong.  Top-level and string-argumented on purpose: this is the body
    :func:`verify_checkpoints` ships to pool workers, so it must stay
    picklable under the spawn start method.
    """
    meta, ops = load_checkpoint(path)
    session = TenantSession.restore(meta, ops)
    summary: dict[str, Any] = {
        "tenant": session.tenant,
        "scheduler": session.scheduler_name,
        "ops": session.ops,
        "emitted": session.emitted,
        "clock": session.clock,
        "closed": session.closed,
    }
    for key in ("clock", "closed", "emitted"):
        if key in meta and meta[key] != summary[key]:
            raise ValueError(
                f"{path}: replay diverged from checkpoint meta "
                f"({key}: meta={meta[key]!r}, replay={summary[key]!r})"
            )
    if session.result is not None:
        summary["span"] = session.result.span
        summary["jobs"] = session.jobs
    return summary


def verify_checkpoints(
    directory: "str | Path", runner: ParallelRunner | None = None
) -> list[dict[str, Any]]:
    """Replay every checkpoint under ``directory`` (pool fan-out).

    Returns one :func:`replay_summary` dict per checkpoint, in tenant
    order; each replay is cross-checked against its checkpoint's last
    seal.  A raising replay propagates (``ParallelRunner`` does not
    retry task failures serially).
    """
    paths = [str(p) for p in list_checkpoints(directory)]
    if not paths:
        return []
    active = runner if runner is not None else get_default_runner()
    return active.map(replay_summary, paths)
