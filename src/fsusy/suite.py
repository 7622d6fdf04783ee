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
import struct
import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, FactorizationError, FsusyError, WindowTooSmallError
from .fock import (
    GradedBasis,
    StructureSpec,
    effective_dimension,
    solve_structure_function,
)
from .realization import build_kfermion_pair, build_tensor_realization, compare_realizations
from .replicas import (
    ReplicaBlocks,
    build_replicas,
    check_isospectrality,
    k2_reduction_entry,
    verify_replicas,
    verify_sum_identity,
)
from .report import ReportEntry, VerificationReport
from .system import FsusyDoublet, build_doublet, verify_fsusy
from .wkalg import AlgebraRep, Scoring, Shift, _grading, algebra_relation_residuals, build_rep

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
        # a run's peak at 16 bytes an entry: 48 (k, d) tables (verify holds up to
        # 42 at once, build plus dump 49) and 2 (k, k) grade tables (the Fourier
        # projector table of H and the dump, and its sum while it is formed);
        # the interpreter and cgroup limits are not counted
        if 16 * (48 * k * d + 2 * k * k) > _physical_memory():
            raise too_large(k, d)

    @staticmethod
    def check_sweep(a_steps: int, b_steps: int) -> None:
        """Refuse a sweep grid that cannot be listed in this machine's memory,
        counted as a lower bound: 8 bytes a step for each range's float64 array
        and, for each point, a list slot and a six-slot task tuple, 8 + 88 bytes."""
        memory = _physical_memory()
        for label, steps in (("a-range", a_steps), ("b-range", b_steps)):
            if 8 * steps > memory:
                raise ConfigError(f"--{label} step count {steps:g} is too large to allocate")
        if 96 * a_steps * b_steps > memory:
            raise ConfigError(f"a sweep grid of {a_steps} a-range by {b_steps} b-range "
                              "steps is too large to list")

    @property
    def scoring(self) -> Scoring:
        return Scoring(self.tolerance)

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


@dataclass(frozen=True)
class GradedSystem:
    """Built operators of one run: representation, doublet and the replicas
    on their stacked sector pairs.

    ``refused`` holds, by s, the reason each unbuilt replica was refused.
    """

    rep: AlgebraRep
    doublet: FsusyDoublet
    replicas: ReplicaBlocks
    refused: dict[int, FactorizationError]

    @property
    def d_effective(self) -> int:
        return self.rep.basis.d


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
        entries = config.scoring.entries({"construction.representation": exc})
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
    """Every identity check of a built system on one window, in report order."""
    rep, doublet = system.rep, system.doublet
    try:
        window = rep.basis.window(config.margin)
    except WindowTooSmallError as exc:
        return config.scoring.entries({"construction.window": exc})
    pair = build_kfermion_pair(config.k)
    try:
        tensor = build_tensor_realization(pair, rep)
    except FsusyError as exc:
        tensor, tensor_records = None, {"tensor.construction": exc}
    # the graded and the tensor relations in one pass; the tensor records go
    # last in the report, but are made here so that the tensor realization
    # is freed before the doublet and replica checks
    residuals = algebra_relation_residuals([rep] if tensor is None else [rep, tensor], window)
    records = {f"algebra.{key}": (val, window) for key, val in residuals[0].items()}
    if tensor is not None:
        tensor_records = {f"tensor.{key}": (val, window) for key, val in residuals[1].items()}
        tensor_records.update(compare_realizations(tensor, rep))
        del tensor
    records.update(verify_fsusy(doublet, window))
    records.update(check_isospectrality(doublet, window))
    replicas = verify_replicas(system.replicas, doublet, window)
    for s in range(2, config.k + 1):
        if s in system.refused:
            records[f"replica{s}.factorization"] = system.refused[s]
        else:
            records.update(replicas[s])
    records.update(verify_sum_identity(doublet, system.replicas, window))
    if config.k == 2 and 2 in system.replicas.order:
        records.update(k2_reduction_entry(doublet, system.replicas.lift("h", 2), window))
    records.update(pair.residuals)
    records.update(tensor_records)
    return config.scoring.entries(records)


def emit_spectrum(doublet: FsusyDoublet, replicas: ReplicaBlocks, path: str) -> None:
    """Write partner and replica energies as CSV rows s,n,energy,replica_s.

    Partner ladder rows carry an empty replica_s; replica rows repeat the two
    ladders a replica couples, read off the diagonal of the stacked h (so the
    omitted ground level shows its true entry, zero).  Energies are written
    as the shortest round-trip ``repr`` of their float64, signed zeros kept.
    """
    # replica s's sectors s-1 and s mod k, as rows 0 and 1 of its block
    h = replicas.h.weight.real
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["s", "n", "energy", "replica_s"])
        for s, ladder in enumerate(doublet.partners, start=1):
            writer.writerows([s, n, energy, ""] for n, energy in enumerate(ladder.tolist()))
        for s, pair in zip(replicas, h):
            for ladder, energies in zip((s - 1, s), pair.tolist()):
                writer.writerows([ladder, n, energy, s] for n, energy in enumerate(energies))


class _Reprs(dict):
    """float64 bit pattern -> shortest round-trip ``repr``, formatted on first
    lookup; by bit pattern, as 0.0 and -0.0 are equal but print differently."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = repr(struct.unpack("<d", struct.pack("<q", bits))[0])
        return text


def write_matrix_market(
    path: str,
    op: Shift,
    text: _Reprs | None = None,
    index: list[str] | None = None,
) -> None:
    """Matrix Market coordinate complex general, entries in row-major order.

    Each part is the shortest round-trip ``repr`` of its float64, signed
    zeros kept, so reading the file back gives every entry exactly.  ``text``
    maps float64 bit patterns to their repr and ``index[i]`` is the text of
    the 1-based index i + 1; both may be shared by the files of one dump.
    The entries are formatted and written 1024 at a time, so a file adds
    little to the peak.
    """
    text = _Reprs() if text is None else text
    if index is None:
        index = [str(i) for i in range(1, op.dim + 1)]
    rows, cols, weight = op.entries()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate complex general\n"
                 f"{op.dim} {op.dim} {rows.size}\n")
        for start in range(0, rows.size, 1024):
            row, col, w = (a[start:start + 1024] for a in (rows, cols, weight))
            bits = w.astype(complex, copy=False).view(np.int64).tolist()
            # one line per entry, "row col re im", as eight interleaved pieces
            line = [" "] * (8 * row.size)
            line[0::8] = map(index.__getitem__, row.tolist())
            line[2::8] = map(index.__getitem__, col.tolist())
            parts = list(map(text.__getitem__, bits))
            line[4::8] = parts[0::2]
            line[6::8] = parts[1::2]
            line[7::8] = ["\n"] * row.size
            fh.write("".join(line))


def named_operators(system: GradedSystem) -> dict[str, Callable[[], Shift]]:
    """Every built operator's dump name, in dump order, with a call that makes
    the operator; a projector or replica map is lifted only when called."""
    rep, doublet, lift = system.rep, system.doublet, system.replicas.lift
    k, d = rep.basis.k, rep.basis.d
    ops = {name: partial(getattr, rep, name) for name in ("Xm", "Xp", "N", "K")}
    # Pi_s is row s of the Fourier table, whose round-off perfbench/reference.json
    # pins, repeated over the d levels of each sector
    ops.update((f"Pi_{s}", partial(Shift.diag, np.broadcast_to(row[:, None], (k, d))))
               for s, row in enumerate(_grading(k)[1]))
    ops.update((name, partial(getattr, doublet, name)) for name in ("Qm", "Qp", "H"))
    for s in system.replicas:
        ops.update({f"X{s}m": partial(lift, "Xsm", s), f"X{s}p": partial(lift, "Xsp", s),
                    f"q{s}m": partial(lift, "qm", s), f"q{s}p": partial(lift, "qp", s),
                    f"h{s}": partial(lift, "h", s)})
    return ops


def dump_operators(system: GradedSystem, directory: str) -> list[str]:
    """One Matrix Market file per operator, named after it; returns written paths.

    A ``.mtx`` file already in the directory that this dump would not
    overwrite, say a leftover of a larger system or of a replica now refused,
    raises ConfigError before anything is written; no file is deleted.  Each
    operator is made as its file is written, so one lifted map is held at a time.
    """
    files = {f"{name}.mtx": make for name, make in named_operators(system).items()}
    if os.path.isdir(directory):
        stale = sorted(f for f in os.listdir(directory)
                       if f.endswith(".mtx") and f not in files)
        if stale:
            raise ConfigError(
                f"{directory} already holds {', '.join(stale)}, which this dump "
                "would not overwrite; choose an empty directory or remove them")
    os.makedirs(directory, exist_ok=True)
    # every part and index is formatted once per dump, not once per file
    text = _Reprs()
    index = [str(i) for i in range(1, system.rep.basis.dim + 1)]
    written = []
    for name, make in files.items():
        path = os.path.join(directory, name)
        write_matrix_market(path, make(), text, index)
        written.append(path)
    return written
