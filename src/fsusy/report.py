"""Verification report containers and serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

PACKAGE_VERSION = "0.1.0"


@dataclass
class ReportEntry:
    """One verified identity: its residual, tolerance and verdict.

    Every entry is asserted and gates the verdict; ``informative`` stays
    False and is kept only as a key of the report schema.  Construction
    failures carry an error string and a null residual.
    """

    name: str
    statement: str
    residual: float | None
    tolerance: float
    passed: bool
    window: str
    informative: bool = False
    error: str | None = None

    @classmethod
    def check(cls, name, statement, residual, tolerance, window):
        residual = float(residual)
        return cls(name, statement, residual, float(tolerance), residual <= tolerance, window)

    @classmethod
    def exact(cls, name, statement, residual, window="full space"):
        residual = float(residual)
        return cls(name, statement, residual, 0.0, residual == 0.0, window)

    @classmethod
    def failure(cls, name, statement, error):
        return cls(name, statement, None, 0.0, False, "construction", error=str(error))


@dataclass
class VerificationReport:
    """Suite outcome: config echo, per-identity entries and overall verdict."""

    config: dict
    entries: list[ReportEntry] = field(default_factory=list)
    verdict: str = "fail"
    generated_at: str = ""
    version: str = PACKAGE_VERSION

    @classmethod
    def compile(cls, config: dict, entries: list[ReportEntry]) -> "VerificationReport":
        verdict = "pass" if all(e.passed for e in entries) else "fail"
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return cls(dict(config), list(entries), verdict, stamp)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            # every field is a scalar or a string, so a shallow copy suffices
            "entries": [dict(vars(e)) for e in self.entries],
            "verdict": self.verdict,
            "generated_at": self.generated_at,
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def summary(self) -> str:
        """Human-readable synopsis; residuals shown with 3 significant digits."""
        lines = []
        cfg = self.config
        lines.append(
            "graded system k={k} d={d_requested} (effective {d_effective}) "
            "family={family} margin={margin} tolerance={tolerance:g}".format(**cfg)
        )
        for e in self.entries:
            tag = "PASS" if e.passed else "FAIL"
            if e.error is not None:
                lines.append(f"  [{tag}] {e.name}: error: {e.error}")
            else:
                lines.append(
                    f"  [{tag}] {e.name}: residual {e.residual:.3g} "
                    f"(tolerance {e.tolerance:.3g}, {e.window})"
                )
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)
