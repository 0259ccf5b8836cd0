"""Diagnostic records of the static-analysis lint pass.

Every finding of :mod:`repro.check` is a :class:`Diagnostic` with a
*stable* code (``REP0xx``) so that front ends, CI gates and service
clients can match on findings without parsing prose.  Codes are never
reused or renumbered; retired checks leave a hole.  The full catalog
(with minimal triggering programs) lives in ``docs/checks.md``.

Severities are two-level: ``"error"`` findings make strict mode reject
the program before any LP work (``status="rejected"`` reports), while
``"warning"`` findings are advisory and never block analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["CODES", "CheckResult", "Diagnostic", "SEVERITIES"]

SEVERITIES = ("error", "warning")

#: code -> (severity, one-line summary).  The single source of truth
#: for which codes exist; ``docs/checks.md`` catalogs them for humans.
CODES: Dict[str, tuple] = {
    "REP001": ("error", "initial valuation references undeclared variables"),
    "REP002": ("warning", "variable read before assignment without an initial value"),
    "REP003": ("warning", "unreachable statement"),
    "REP004": ("warning", "branch edge is provably never taken"),
    "REP005": ("warning", "tick with provably zero cost"),
    "REP006": ("warning", "sampling variable has unbounded support"),
    "REP007": ("warning", "nondeterministic labels exceed the PLCS enumeration cap"),
    "REP008": ("error", "loop body changes no variable while its guard can hold"),
    "REP009": ("warning", "declared variable is never used"),
    "REP010": ("error", "invariant excludes reachable states"),
    "REP011": ("warning", "probabilistic branch with degenerate probability"),
    "REP012": ("warning", "entry loop guard is false at the initial valuation"),
    "REP013": ("warning", "invariant is weaker than the inferred octagon"),
    "REP014": ("error", "invariant contradicts the inferred reachable octagon"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, severity, message and location.

    ``label`` is the CFG label number the finding is anchored to (the
    paper's program-order numbering), ``line``/``column`` the source
    position when the program came from surface text; any of the three
    may be ``None`` for program-level findings (e.g. an ill-formed
    initial valuation).
    """

    code: str
    severity: str
    message: str
    label: Optional[int] = None
    line: Optional[int] = None
    column: Optional[int] = None

    def __post_init__(self):
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, got {self.severity!r}")

    @classmethod
    def of(cls, code: str, message: str, **where: Any) -> "Diagnostic":
        """Build a diagnostic with the catalog severity for ``code``."""
        return cls(code=code, severity=CODES[code][0], message=message, **where)

    def format(self) -> str:
        """One human-readable line (the CLI output format)."""
        place = ""
        if self.line is not None:
            place = f"{self.line}:{self.column if self.column is not None else 0}: "
        elif self.label is not None:
            place = f"label {self.label}: "
        return f"{place}{self.code} {self.severity}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "label": self.label,
            "line": self.line,
            "column": self.column,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Diagnostic":
        known = {"code", "severity", "message", "label", "line", "column"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown diagnostic field(s): {sorted(unknown)}")
        return cls(**dict(data))


@dataclass
class CheckResult:
    """The outcome of one lint pass: an ordered list of diagnostics.

    Ordering is deterministic (source position, then label, then code)
    so that reports and golden files are byte-stable.
    """

    diagnostics: List[Diagnostic]
    #: The abstract analysis of the requested invariant domain that the
    #: pass ran (interval or octagon), so the invariant generator can
    #: reuse it instead of running the same fixpoint again.
    fixpoint: Any = field(default=None, repr=False, compare=False)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings permitted)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """No findings at all."""
        return not self.diagnostics

    def codes(self) -> List[str]:
        """Distinct codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [d.to_dict() for d in self.diagnostics]

    def format_lines(self) -> List[str]:
        return [d.format() for d in self.diagnostics]


def sort_diagnostics(diagnostics: List[Diagnostic]) -> List[Diagnostic]:
    """Deterministic reading order: position, then label, then code."""

    def key(d: Diagnostic):
        return (
            d.line if d.line is not None else 10**9,
            d.column if d.column is not None else 10**9,
            d.label if d.label is not None else 10**9,
            d.code,
            d.message,
        )

    return sorted(diagnostics, key=key)
