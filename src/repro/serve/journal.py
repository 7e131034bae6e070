"""The one append-only JSONL writer behind checkpoints and traces.

A tenant's checkpoint journal (:mod:`repro.serve.checkpoint`) and its
streamed trace (:meth:`repro.serve.session.TenantSession.flush_trace`)
both grow by appending rows to a file the session already started.
Both go through :func:`append_jsonl`, so both get the same guarantee:
after a crash or a failed write the file ends at its last complete
line.  Whole-file writes stay with :func:`repro.obs.jsonl.dump_jsonl`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = ["append_jsonl"]


def append_jsonl(
    path: "str | os.PathLike[str]",
    rows: Iterable[Mapping[str, Any]],
    *,
    fresh: bool = False,
    sync: bool = True,
) -> None:
    """Append ``rows`` to ``path`` as JSON lines, in one write.

    One write, so a crash leaves at most one torn final line.  A write
    or fsync that fails is cut back off, so the file still ends at its
    last complete line and the caller can append the same rows again.
    ``fresh`` creates (or truncates) the file and its parent directory
    first: a stream's first write.  ``sync=False`` skips the fsync, for
    files a restore regenerates anyway.
    """
    data = memoryview("".join([json.dumps(row) + "\n" for row in rows]).encode())
    flags = os.O_WRONLY | os.O_APPEND
    if fresh:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        flags |= os.O_CREAT | os.O_TRUNC
    fd = os.open(path, flags, 0o644)
    try:
        end = os.fstat(fd).st_size
        try:
            while data:
                data = data[os.write(fd, data) :]
            if sync:
                os.fsync(fd)
        except OSError:
            os.ftruncate(fd, end)
            raise
    finally:
        os.close(fd)
