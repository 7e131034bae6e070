"""Incremental analysis cache for ``python -m repro lint``.

The per-file phase (parse → per-file rules → :class:`FileSummary`
extraction) is the expensive part of a lint run; the whole-program pass
consumes *summaries only* and is cheap to re-run.  So the cache stores,
per scanned file, a content-hash-keyed record of

* the per-file findings (as dicts, replayable without re-parsing),
* the number of findings dropped by inline suppressions,
* the :class:`FileSummary` feeding the whole-program pass.

A second run over an unchanged tree therefore re-analyzes **zero**
files while still producing byte-identical reports — including the
whole-program findings, which are recomputed from cached summaries
every run (they are inherently cross-file, so per-file keying cannot
memoise them soundly, but they cost milliseconds).

The key is ``sha256(salt · ruleset digest · file bytes)``: the salt
embeds the cache schema version, so any format change invalidates
cleanly, and the ruleset digest hashes both the active rule *codes*
(``--select RL003`` runs never replay findings from a different rule
set) and the active rules' *source text* via :func:`ruleset_digest`, so
editing a rule's logic — not just adding or removing a rule — discards
stale per-file records.  Corrupt or version-skewed cache files are
discarded silently — the cache is an accelerator, never a source of
truth.

CI persists ``.repro_lint_cache/`` between runs keyed on the source
hashes (see ``.github/workflows/ci.yml``), which keeps the lint gate
comfortably inside its wall-time budget as the tree grows.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["AnalysisCache", "default_cache_path", "file_key", "ruleset_digest"]

#: Bump when the summary schema, finding replay format, or lint scope
#: constants change (scope fragments feed rule applicability, which a
#: stale cache would otherwise keep serving from the old scope).
CACHE_VERSION = 6

#: Directory name used by the CLI default (gitignored).
CACHE_DIR_NAME = ".repro_lint_cache"


def default_cache_path() -> Path:
    """Default on-disk cache location: ``./.repro_lint_cache/cache.json``."""
    return Path(CACHE_DIR_NAME) / "cache.json"


def ruleset_digest(rules: list[Any]) -> str:
    """Digest of the active rule set: codes *and* implementation source.

    Hashing each rule class's source text (via :func:`inspect.getsource`)
    means editing a rule's logic invalidates every cached per-file record
    keyed under the old behaviour — the failure mode where a cached
    "clean" verdict survives a rule rewrite.  Rules whose source cannot
    be recovered (REPL-defined test doubles) degrade to their code alone,
    which keeps the digest total rather than raising.
    """
    h = hashlib.sha256()
    for rule in sorted(rules, key=lambda r: r.code):
        h.update(rule.code.encode())
        h.update(b"\x00")
        try:
            h.update(inspect.getsource(type(rule)).encode())
        except (OSError, TypeError):  # pragma: no cover - synthetic rules
            pass
        h.update(b"\x00")
    return h.hexdigest()


def file_key(content: bytes, rule_codes: list[str], digest: str = "") -> str:
    """Content hash keying one file's analysis record.

    Embeds the schema version, the active rule-code set, and the
    ruleset source digest so stale records can never replay across
    analyzer, selection, or rule-implementation changes.
    """
    h = hashlib.sha256()
    h.update(f"repro-lint:{CACHE_VERSION}:".encode())
    h.update(",".join(sorted(rule_codes)).encode())
    h.update(b":")
    h.update(digest.encode())
    h.update(b":")
    h.update(content)
    return h.hexdigest()


class AnalysisCache:
    """Disk-backed map ``relative path -> {key, findings, …}``.

    The cache never invalidates the report: on a key mismatch the file
    is simply re-analyzed and the record replaced.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.entries: dict[str, dict[str, Any]] = {}
        self._dirty = False
        self._load()

    # -- persistence --------------------------------------------------------
    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
            return
        entries = data.get("entries")
        if isinstance(entries, dict):
            self.entries = entries

    def save(self) -> None:
        """Atomically persist the cache (best effort; failures ignored)."""
        if not self._dirty:
            return
        payload = {"version": CACHE_VERSION, "entries": self.entries}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=".cache-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, sort_keys=True)
                os.replace(tmp, self.path)
            finally:
                if os.path.exists(tmp):  # pragma: no cover - error path
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
            self._dirty = False
        except OSError:  # pragma: no cover - read-only CI scratch etc.
            pass

    # -- record access ------------------------------------------------------
    def get(self, rel_path: str, key: str) -> dict[str, Any] | None:
        """The cached record for ``rel_path`` iff its key matches."""
        entry = self.entries.get(rel_path)
        if entry is not None and entry.get("key") == key:
            return entry
        return None

    def put(
        self,
        rel_path: str,
        key: str,
        *,
        findings: list[dict[str, Any]],
        suppressed: int,
        summary: dict[str, Any] | None,
    ) -> None:
        self.entries[rel_path] = {
            "key": key,
            "findings": findings,
            "suppressed": suppressed,
            "summary": summary,
        }
        self._dirty = True

    def prune(self, live_paths: set[str]) -> None:
        """Drop records for files no longer in the scan set."""
        dead = [p for p in self.entries if p not in live_paths]
        for p in dead:
            del self.entries[p]
            self._dirty = True
