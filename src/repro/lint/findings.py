"""Finding and severity types shared by every lint rule."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How a finding affects the exit status.

    ``ERROR`` findings fail the run (non-zero exit); ``WARNING`` findings
    are printed but do not gate.  Severities are per rule, overridable
    from ``[tool.repro-lint.severity]``.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR
    #: Optional witness path as ``(line, note)`` pairs within ``path``,
    #: or ``(line, note, step_path)`` triples when a step lives in a
    #: different file (effect rules attach cross-module call chains);
    #: the SARIF writer renders it as a ``codeFlow``.  A tuple (not a
    #: list) so the dataclass stays hashable.
    code_flow: tuple = ()

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity.value}: {self.message}"
        )

    def as_dict(self) -> dict:
        data = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity.value,
        }
        if self.code_flow:
            data["code_flow"] = [list(step) for step in self.code_flow]
        return data


@dataclass
class FileReport:
    """All findings for one source file, pre- and post-suppression."""

    path: str
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)
