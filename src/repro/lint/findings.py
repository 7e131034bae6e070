"""Finding and report model for the static analyzer.

Mirrors the shape of :mod:`repro.core.audit` (``Finding`` /
``AuditReport``): an immutable record per problem, a report object that
aggregates, and ``render()`` methods so the CLI prints the same style of
output for schedule audits and source audits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["LintFinding", "LintReport"]


@dataclass(frozen=True)
class LintFinding:
    """One static-analysis finding.

    Attributes
    ----------
    rule:
        Rule code (``"RL003"`` … ``"RL021"``).
    path:
        Path of the offending file as scanned (usually repo-relative).
    line, col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable explanation.
    symbol:
        The enclosing class/function (``"Batch.on_arrival"``) when known.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""

    def render(self) -> str:
        sym = f" [{self.symbol}]" if self.symbol else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule}{sym}: {self.message}"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "LintFinding":
        """Inverse of :meth:`to_dict` (cache replay, JSON round-trips)."""
        return cls(
            rule=str(data["rule"]),
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data["col"]),  # type: ignore[arg-type]
            message=str(data["message"]),
            symbol=str(data.get("symbol", "")),
        )


@dataclass
class LintReport:
    """All findings over one lint run, plus scan statistics."""

    findings: list[LintFinding] = field(default_factory=list)
    files_scanned: int = 0
    #: files whose per-file phase actually ran this invocation (cache
    #: misses); equals ``files_scanned`` when no incremental cache is used.
    files_reanalyzed: int = 0
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        """True when there is no finding (every finding gates)."""
        return not self.findings

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    def render(self) -> str:
        """Human-readable report in the ``audit`` house style."""
        lines = [f.render() for f in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_scanned} file(s)"
        )
        extras = []
        if self.files_reanalyzed != self.files_scanned:
            extras.append(f"{self.files_reanalyzed} reanalyzed")
        if self.suppressed:
            extras.append(f"{self.suppressed} suppressed")
        if extras:
            summary += f"  ({', '.join(extras)})"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        """Machine-readable report (stable key order)."""
        payload = {
            "findings": [f.to_dict() for f in self.findings],
            "files_scanned": self.files_scanned,
            "files_reanalyzed": self.files_reanalyzed,
            "suppressed": self.suppressed,
            "clean": self.clean,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
