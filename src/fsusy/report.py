"""Verification report containers and serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

PACKAGE_VERSION = "0.1.0"

# entries at the depth of the report's entries, items on lines of their own
_ENTRY_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


# the five defining relations, of the graded and of the tensor construction
_RELATIONS = {
    "ladder_commutator": "[X-, X+] equals the sector-weighted structure values sum_s f_s(N) Pi_s",
    "number_ladder": "[N, X-] = -X- and [N, X+] = +X+",
    "grading_ladder": "K X- = q^(-1) X- K and K X+ = q^(+1) X+ K",
    "grading_number": "[K, N] = 0",
    "grading_cyclic": "K^k = 1",
}

# Every identity a report can hold, in report order: its entry name, its tier
# (None for a construction failure, which has no residual) and its statement.
# replica{s} stands for each s = 2 .. k in turn, all of one s before the next.
IDENTITIES = {
    "construction.representation": (
        None, "the graded ladder representation materializes on the truncated space"),
    "construction.window": (None, "a safe window exists below the truncation ceiling"),
    **{f"algebra.{key}": ("windowed", text) for key, text in _RELATIONS.items()},
    "fsusy.nilpotency": ("exact", "Q-^k = 0 and Q+^k = 0"),
    "fsusy.multilinear": (
        "windowed", "the k ordered products Q-^(k-1-j) Q+ Q-^j sum to Q-^(k-2) H"),
    "fsusy.hamiltonian_commutes": ("strict", "[H, Q-] = 0 and [H, Q+] = 0"),
    "fsusy.partner_diagonal": (
        "strict", "H is diagonal and its diagonal matches the closed-form partner energies"),
    "partners.level_shift": (
        "windowed", "adjacent partner ladders agree after a one-level shift (wrap pair exempt)"),
    "replica{s}.factorization": (
        None, "the partner ladder admits real square roots at every level"),
    "replica{s}.nilpotency": ("exact", "q- q- = 0 and q+ q+ = 0"),
    "replica{s}.pair_adjoint": ("exact", "q+ is the conjugate transpose of q-"),
    "replica{s}.anticommutator": ("exact", "h = q- q+ + q+ q-"),
    "replica{s}.hamiltonian_commutes": ("strict", "[h, q-] = 0 and [h, q+] = 0"),
    # X(s)- X(s)+ = H_s(N+1) on sector s-1
    "replica{s}.shift_product": (
        "windowed", "X(s)- X(s)+ equals the partner ladder shifted one level down, on sector s-1"),
    # h = H_(s-1) Pi_(s-1) + H_s Pi_s, with 0 expected at the omitted |0, s>
    "replica{s}.partner_diagonal": (
        "strict",
        "h carries the two partner ladders on its pair of sectors and vanishes elsewhere"),
    # H_(s-1) X(s)- = X(s)- H_s and H_s X(s)+ = X(s)+ H_(s-1)
    "replica{s}.intertwining": (
        "strict", "the shift operators intertwine adjacent partner ladders"),
    "fsusy.charge_sum": (
        "windowed", "H equals q(2)- q(2)+ plus the sum of q(s)+ q(s)- over all replicas"),
    "reduction.total_hamiltonian": (
        "strict", "for order 2 the replica Hamiltonian h(2) equals H entrywise"),
    "kfermion.q_commutator": ("strict", "f- f+ - q f+ f- = 1"),
    "kfermion.nilpotency": ("exact", "f-^k = 0 and f+^k = 0"),
    "kfermion.grading_spectrum": ("strict", "[f-, f+] has eigenvalue multiset {q^t : t = 0..k-1}"),
    "kfermion.pair_adjoint": ("exact", "for order 2 the pair is mutually adjoint"),
    **{f"tensor.{key}": ("windowed", text) for key, text in _RELATIONS.items()},
    "tensor.spectral_distance": (
        "windowed", "eigenvalues of X+ X- agree between the tensor and graded constructions"),
}


def identity(name: str) -> tuple[str | None, str]:
    """The tier and statement of the entry ``name``; replica s's read replica{s}'s."""
    group, key = name.split(".")
    return IDENTITIES[f"replica{{s}}.{key}" if group.startswith("replica") else name]


@dataclass
class ReportEntry:
    """One verified identity: its residual, tolerance and verdict.

    Every entry is asserted and gates the verdict; ``informative`` stays
    False and is kept only as a key of the report schema.  Every entry is
    made by ``wkalg.Scoring.entries`` from a check's record, with the
    statement and tier of its identity in ``IDENTITIES``.  Construction
    failures, and identities whose products overflow, carry an error string
    and a null residual.
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
