"""Verification report containers and serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

PACKAGE_VERSION = "0.1.0"

# entries at the depth of the report's entries, items on lines of their own
_ENTRY_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


@dataclass
class ReportEntry:
    """One verified identity: its residual, tolerance and verdict.

    Every entry is asserted and gates the verdict; ``informative`` stays
    False and is kept only as a key of the report schema.  Scored entries
    come from ``wkalg.Scoring.entry``.  Construction failures, and identities
    whose products overflow, carry an error string and a null residual.
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
        """The report as ``json.dumps(self.to_dict(), indent=2)`` plus a newline.

        Each entry is a flat dict of scalars, so the whole list is encoded
        in one call of the C encoder, with the line breaks and indentation
        of an entry's items spelled into the item separator; only the
        separator between entries is then re-indented, and only the rest of
        the report goes through the indenting encoder.
        """
        report = self.to_dict()
        entries, report["entries"] = report["entries"], []
        text = json.dumps(report, indent=2)
        if entries:
            # no encoded string holds a raw line break, so "}" and a line
            # break only meet between two entries
            items = _ENTRY_ENCODER.encode(entries)[2:-2].replace(
                "},\n      {", "\n    },\n    {\n      ")
            # the only line that starts with two spaces and "entries" is the
            # key of the report's own list, which the indenting encoder
            # wrote as []
            text = text.replace('\n  "entries": []',
                                '\n  "entries": [\n    {\n      ' + items + "\n    }\n  ]", 1)
        return text + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def summary(self) -> str:
        """Human-readable synopsis; residuals shown with 3 significant digits."""
        lines = [
            "graded system k={k} d={d_requested} (effective {d_effective}) "
            "family={family} margin={margin} tolerance={tolerance:g}".format(**self.config)
        ]
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
