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
import sys
from dataclasses import dataclass
from functools import cached_property

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
    ReplicaBlocks,
    ReplicaDoublet,
    build_replicas,
    check_isospectrality,
    k2_reduction_entry,
    verify_replicas,
    verify_sum_identity,
)
from .report import ReportEntry, VerificationReport
from .system import FsusyDoublet, build_doublet, partner_consistency_entry, verify_fsusy
from .wkalg import AlgebraRep, ColumnMap, Scoring, build_rep, verify_wk_relations

DEFAULT_TOLERANCE = 1e-10


def too_large(k: int, d: int) -> ConfigError:
    return ConfigError(f"the system at k={k}, d={d} is too large to allocate")


def _physical_memory() -> int:
    """Bytes of this machine's memory; the address space where that cannot be read."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        size = 0
    return size if size > 0 else sys.maxsize


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
        self.check_space(self.k, self.d, self.margin)
        if not 0 < self.tolerance < np.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.spec.k != self.k:
            raise ConfigError(f"structure spec has order {self.spec.k}, expected {self.k}")

    @staticmethod
    def check_space(k: int, d: int, margin: int) -> None:
        """Refuse an order, truncation or margin that leaves no window."""
        if k < 2:
            raise ConfigError(f"cyclic order must be at least 2, got {k}")
        if d < 4:
            raise ConfigError(f"truncation must be at least 4 levels, got {d}")
        if margin < 1:
            raise ConfigError(f"window margin must be at least 1, got {margin}")
        if d - margin < 2:
            raise ConfigError(f"margin {margin} leaves no window inside {d} levels")
        # a lower bound only: H's (k-1)^2 complex term weights over d levels
        # are made at once, and no machine holds more than its physical
        # memory (cgroup limits and the other tables are not counted), so
        # this stops a huge order before its spec is built; a system that
        # passes can still run out of memory
        if 16 * (k - 1) ** 2 * d > _physical_memory():
            raise too_large(k, d)

    @property
    def scoring(self) -> Scoring:
        return Scoring(self.margin, self.tolerance)

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
    """Built operators of one run: representation, doublet and the replicas
    on their stacked sector pairs.

    ``refused`` holds, by s, the reason each unbuilt replica was refused.
    """

    rep: AlgebraRep
    doublet: FsusyDoublet
    blocks: ReplicaBlocks
    refused: dict[int, FactorizationError]

    @property
    def d_effective(self) -> int:
        return self.rep.basis.d

    @cached_property
    def replicas(self) -> dict[int, ReplicaDoublet]:
        """Each built replica on the full space, by s, derived on first use."""
        return self.blocks.full_space()


# values that overflow float64 are refused as construction failures instead of warning
@np.errstate(over="ignore", invalid="ignore")
def build_system(config: RunConfig) -> GradedSystem:
    """Construct everything buildable; unfactorizable replicas are refused."""
    F = solve_structure_function(config.spec, config.d)
    d_eff = effective_dimension(F, config.d)
    basis = GradedBasis(config.k, d_eff)
    rep = build_rep(config.spec, basis, F.truncate(d_eff))
    doublet = build_doublet(rep)
    return GradedSystem(rep, doublet, *build_replicas(doublet, slack=config.margin))


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


# products that overflow float64 fail their entries instead of warning
@np.errstate(over="ignore", invalid="ignore")
def verify_system(system: GradedSystem, config: RunConfig) -> list[ReportEntry]:
    """Every identity check of a built system, in report order."""
    rep, doublet, scoring = system.rep, system.doublet, config.scoring
    entries: list[ReportEntry] = []
    pair = build_kfermion_pair(config.k)
    try:
        tensor = build_tensor_realization(pair, rep)
    except FsusyError as exc:
        tensor = None
        tensor_entries = [ReportEntry.failure(
            "tensor.construction",
            "the tensor-product realization materializes on the truncated space",
            exc)]
    try:
        # the graded and the tensor relations in one pass; the tensor entries
        # go last in the report, but are scored here so that the tensor
        # realization is freed before the doublet and replica checks
        algebra, relations = verify_wk_relations(rep, scoring, tensor)
        if tensor is not None:
            tensor_entries = relations + [compare_realizations(tensor, rep, scoring)]
            del tensor
        entries += algebra
        entries += verify_fsusy(doublet, scoring)
        entries.append(partner_consistency_entry(doublet, scoring))
        entries.append(check_isospectrality(doublet, scoring))

        replica_entries = verify_replicas(system.blocks, doublet, scoring)
        for s in range(2, config.k + 1):
            if s in system.refused:
                entries.append(ReportEntry.failure(
                    f"replica{s}.factorization",
                    "the partner ladder admits real square roots at every level",
                    system.refused[s]))
            else:
                entries += replica_entries[s]
        entries.append(verify_sum_identity(doublet, system.blocks, scoring))
        if config.k == 2 and 2 in system.blocks.order:
            entries.append(k2_reduction_entry(doublet, system.replicas[2], scoring))

        entries += verify_kfermions(pair, scoring)
        entries += tensor_entries
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
    omitted ground level shows its true entry, zero).  Energies are written
    as the shortest round-trip ``repr`` of their float64, signed zeros kept.
    """
    basis = doublet.rep.basis
    rows = [[s, n, energy, ""]
            for s, ladder in enumerate(doublet.partners.tolist(), start=1)
            for n, energy in enumerate(ladder)]
    for s in sorted(replicas):
        h = replicas[s].h.diagonal().real
        for ladder in (s - 1, s):
            rows += ([ladder, n, energy, s]
                     for n, energy in enumerate(h[basis.sector_mask(ladder)].tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["s", "n", "energy", "replica_s"])
        writer.writerows(rows)


def write_matrix_market(
    path: str,
    op: ColumnMap,
    text: dict[int, str] | None = None,
    index: list[str] | None = None,
) -> None:
    """Matrix Market coordinate complex general, entries in row-major order.

    Each part is the shortest round-trip ``repr`` of its float64, signed
    zeros kept, so reading the file back gives every entry exactly.  ``text``
    maps float64 bit patterns to their repr and ``index[i]`` is the text of
    the 1-based index i + 1; both may be shared by the files of one dump.
    """
    text = {} if text is None else text
    if index is None:
        index = [str(i) for i in range(1, op.dim + 1)]
    cols = np.flatnonzero(op.weight)
    cols = cols[np.argsort(op.target[cols], kind="stable")]
    bits = op.weight[cols].astype(complex, copy=False).view(np.int64).tolist()
    # keyed by bit pattern because 0.0 and -0.0 are equal values that print
    # differently
    unseen = list(set(bits).difference(text))
    text.update(zip(unseen, map(repr, np.array(unseen, dtype=np.int64).view(np.float64).tolist())))
    # one line per entry, "row col re im", as eight interleaved pieces
    line = [" "] * (8 * cols.size)
    line[0::8] = map(index.__getitem__, op.target[cols].tolist())
    line[2::8] = map(index.__getitem__, cols.tolist())
    parts = list(map(text.__getitem__, bits))
    line[4::8] = parts[0::2]
    line[6::8] = parts[1::2]
    line[7::8] = ["\n"] * cols.size
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate complex general\n"
                 f"{op.dim} {op.dim} {cols.size}\n" + "".join(line))


def named_operators(system: GradedSystem) -> dict[str, ColumnMap]:
    """Every built operator under its dump name, in dump order."""
    rep, doublet = system.rep, system.doublet
    ops = {"Xm": rep.Xm, "Xp": rep.Xp, "N": rep.N, "K": rep.K}
    ops.update((f"Pi_{s}", rep.projector(s)) for s in range(rep.basis.k))
    ops.update(Qm=doublet.Qm, Qp=doublet.Qp, H=doublet.H)
    for s, rd in sorted(system.replicas.items()):
        ops.update({f"X{s}m": rd.Xsm, f"X{s}p": rd.Xsp, f"q{s}m": rd.qm,
                    f"q{s}p": rd.qp, f"h{s}": rd.h})
    return ops


def dump_operators(system: GradedSystem, directory: str) -> list[str]:
    """One Matrix Market file per operator, named after it; returns written paths.

    A ``.mtx`` file already in the directory that this dump would not
    overwrite, say a leftover of a larger system or of a replica now refused,
    raises ConfigError before anything is written; no file is deleted.
    """
    files = {f"{name}.mtx": op for name, op in named_operators(system).items()}
    if os.path.isdir(directory):
        stale = sorted(f for f in os.listdir(directory)
                       if f.endswith(".mtx") and f not in files)
        if stale:
            raise ConfigError(
                f"{directory} already holds {', '.join(stale)}, which this dump "
                "would not overwrite; choose an empty directory or remove them")
    os.makedirs(directory, exist_ok=True)
    # every part and index is formatted once per dump, not once per file
    text: dict[int, str] = {}
    index = [str(i) for i in range(1, system.rep.basis.dim + 1)]
    written = []
    for name, op in files.items():
        path = os.path.join(directory, name)
        write_matrix_market(path, op, text, index)
        written.append(path)
    return written
