"""Suite orchestration and file emitters.

One RunConfig drives the whole pipeline.  ``build_system`` is the only
construction path: solve the structure function, truncate to the effective
dimension, build the graded representation, the supercharge doublet and the
replicas, recording each refused replica with its reason.  The suite then
verifies every identity on the built system and cross-checks the
tensor-product realization.  Construction failures become report entries
rather than exceptions so a run always yields a verdict.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FactorizationError, FsusyError, WindowTooSmallError
from .fock import (
    GradedBasis,
    StructureSpec,
    effective_dimension,
    solve_structure_function,
)
from .realization import (
    build_kfermion_pair,
    build_tensor_realization,
    compare_realizations,
    verify_kfermions,
)
from .replicas import (
    ReplicaDoublet,
    build_replica,
    check_isospectrality,
    k2_reduction_entry,
    verify_replica,
    verify_sum_identity,
)
from .report import ReportEntry, VerificationReport
from .system import FsusyDoublet, build_doublet, partner_consistency_entry, verify_fsusy
from .wkalg import AlgebraRep, ColumnMap, build_rep, verify_wk_relations

# asserted identities derived from exact cancellations get a tolerance this
# much tighter than the windowed ones
STRICT_FACTOR = 1e-2

DEFAULT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one run: space, structure family, outputs."""

    k: int
    d: int
    spec: StructureSpec
    margin: int
    tolerance: float = DEFAULT_TOLERANCE
    out_report: str | None = None
    out_spectrum: str | None = None
    out_operators: str | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError(f"cyclic order must be at least 2, got {self.k}")
        if self.d < 4:
            raise ConfigError(f"truncation must be at least 4 levels, got {self.d}")
        if self.margin < 1:
            raise ConfigError(f"window margin must be at least 1, got {self.margin}")
        if self.d - self.margin < 2:
            raise ConfigError(
                f"margin {self.margin} leaves no window inside {self.d} levels"
            )
        if not 0 < self.tolerance < np.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.spec.k != self.k:
            raise ConfigError(f"structure spec has order {self.spec.k}, expected {self.k}")

    @property
    def strict(self) -> float:
        return self.tolerance * STRICT_FACTOR

    def echo(self, d_effective: int | None) -> dict:
        """Config as stable JSON-ready scalars for the report header."""
        spec = self.spec
        return {
            "k": self.k,
            "d_requested": self.d,
            "d_effective": d_effective,
            "family": spec.family,
            "preset": spec.preset,
            "a": spec.a,
            "b": spec.b,
            "constants": None if spec.constants is None else list(spec.constants),
            "table_size": None if spec.table is None else len(spec.table),
            "margin": self.margin,
            "tolerance": self.tolerance,
        }


@dataclass
class GradedSystem:
    """Built operators of one run: representation, doublet, replicas by s.

    ``refused`` holds, by s, the reason each unbuilt replica was refused.
    """

    rep: AlgebraRep
    doublet: FsusyDoublet
    replicas: dict[int, ReplicaDoublet] = field(default_factory=dict)
    refused: dict[int, FactorizationError] = field(default_factory=dict)

    @property
    def d_effective(self) -> int:
        return self.rep.basis.d


def build_system(config: RunConfig) -> GradedSystem:
    """Construct everything buildable; unfactorizable replicas are refused."""
    F = solve_structure_function(config.spec, config.d)
    d_eff = effective_dimension(F, config.d)
    basis = GradedBasis(config.k, d_eff)
    rep = build_rep(config.spec, basis, F.truncate(d_eff))
    doublet = build_doublet(rep)
    system = GradedSystem(rep, doublet)
    for s in range(2, config.k + 1):
        try:
            system.replicas[s] = build_replica(doublet, s, slack=config.margin)
        except FactorizationError as exc:
            # without its traceback, which would tie this frame and the
            # whole system into a reference cycle
            system.refused[s] = exc.with_traceback(None)
    return system


def run_verification_suite(config: RunConfig) -> VerificationReport:
    """Build the system once, run every check on it and compile the report."""
    try:
        system = build_system(config)
    except FsusyError as exc:
        echo = config.echo(None)
        entries = [ReportEntry.failure(
            "construction.representation",
            "the graded ladder representation materializes on the truncated space",
            exc)]
    else:
        echo = config.echo(system.d_effective)
        entries = verify_system(system, config)
    report = VerificationReport.compile(echo, entries)
    if config.out_report:
        report.write(config.out_report)
    return report


def verify_system(system: GradedSystem, config: RunConfig) -> list[ReportEntry]:
    """Every identity check of a built system, in report order."""
    rep, doublet = system.rep, system.doublet
    margin, tol, strict = config.margin, config.tolerance, config.strict
    entries: list[ReportEntry] = []
    try:
        entries += verify_wk_relations(rep, margin, tol)
        entries += verify_fsusy(doublet, margin, tol, strict)
        entries.append(partner_consistency_entry(doublet, strict))
        entries.append(check_isospectrality(doublet, margin, tol))

        for s in range(2, config.k + 1):
            if s in system.refused:
                entries.append(ReportEntry.failure(
                    f"replica{s}.factorization",
                    "the partner ladder admits real square roots at every level",
                    system.refused[s]))
            else:
                entries += verify_replica(system.replicas[s], doublet, margin, tol, strict)
        entries.append(verify_sum_identity(doublet, system.replicas, margin, tol))
        if config.k == 2 and 2 in system.replicas:
            entries.append(k2_reduction_entry(doublet, system.replicas[2], margin, strict))

        pair = build_kfermion_pair(config.k)
        entries += verify_kfermions(pair, strict)
        try:
            tensor = build_tensor_realization(pair, rep.F)
            entries += compare_realizations(tensor, rep, margin, tol)
        except FsusyError as exc:
            entries.append(ReportEntry.failure(
                "tensor.construction",
                "the tensor-product realization materializes on the truncated space",
                exc))
    except WindowTooSmallError as exc:
        entries.append(ReportEntry.failure(
            "construction.window",
            "a safe window exists below the truncation ceiling",
            exc))
    return entries


def emit_spectrum(
    doublet: FsusyDoublet,
    replicas: dict[int, ReplicaDoublet],
    path: str,
) -> None:
    """Write partner and replica energies as CSV rows s,n,energy,replica_s.

    Partner ladder rows carry an empty replica_s; replica rows repeat the two
    ladders a replica couples, read off the built h(s) diagonal (so the
    omitted ground level shows its true entry, zero).
    """
    basis = doublet.rep.basis
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["s", "n", "energy", "replica_s"])
        for s in range(1, doublet.k + 1):
            for n in range(doublet.d):
                writer.writerow([s, n, doublet.partner(s, n), ""])
        for s in sorted(replicas):
            h = replicas[s].h.diagonal()
            for ladder in (s - 1, s):
                for n in range(doublet.d):
                    writer.writerow([ladder, n, float(h[basis.index(n, ladder)].real), s])


def write_matrix_market(path: str, op: ColumnMap) -> None:
    """Matrix Market coordinate complex general, entries in row-major order."""
    cols = np.flatnonzero(op.weight)
    cols = cols[np.argsort(op.target[cols], kind="stable")]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix coordinate complex general\n")
        fh.write(f"{op.dim} {op.dim} {cols.size}\n")
        for i, j, v in zip(op.target[cols], cols, op.weight[cols]):
            fh.write(f"{i + 1} {j + 1} {float(v.real)!r} {float(v.imag)!r}\n")


def dump_operators(system: GradedSystem, directory: str) -> list[str]:
    """One Matrix Market file per operator, named after it; returns written paths."""
    os.makedirs(directory, exist_ok=True)
    rep, doublet = system.rep, system.doublet
    ops = {"Xm": rep.Xm, "Xp": rep.Xp, "N": rep.N, "K": rep.K}
    ops.update((f"Pi_{s}", P) for s, P in enumerate(rep.projectors))
    ops.update(Qm=doublet.Qm, Qp=doublet.Qp, H=doublet.H)
    for s, rd in sorted(system.replicas.items()):
        ops.update({f"X{s}m": rd.Xsm, f"X{s}p": rd.Xsp, f"q{s}m": rd.qm,
                    f"q{s}p": rd.qp, f"h{s}": rd.h})
    written = []
    for name, op in ops.items():
        path = os.path.join(directory, f"{name}.mtx")
        write_matrix_market(path, op)
        written.append(path)
    return written
