"""Graded Fock space, sector structure functions and their coupled recursion.

The space is spanned by |n, s> with level n = 0 .. d-1 and cyclic sector
s = 0 .. k-1.  A family of per-sector functions f_s drives the recursion

    F_{s+1 mod k}(n + 1) - F_s(n) = f_s(n),    F_s(0) = 0,

whose solution F fixes every ladder matrix element as sqrt(F_s(n)).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSpaceError,
    DomainError,
    InvalidOrderError,
    WindowTooSmallError,
)

# Values above -NONNEG_TOL count as nonnegative; shields exact zeros of F
# against last-bit rounding without masking real sign changes.
NONNEG_TOL = 1e-12

FAMILIES = ("constant", "affine", "table")


class Columns(NamedTuple):
    """Columns to score on and their report text.  The ``mask`` (None for all)
    broadcasts against the (..., K, d) weight tables it selects from: a (d,)
    mask picks levels, a (K, 1) one grades."""

    mask: np.ndarray | None
    text: str

    def narrow(self, keep: np.ndarray | None, note: str) -> Columns:
        """The columns ``keep`` also holds, the note appended to the text; a
        ``keep`` of None keeps them all, for a note on the expected side."""
        return Columns(self.mask if keep is None else self.mask & keep, f"{self.text}, {note}")


FULL_SPACE = Columns(None, "full space")
FULL_GRADE_SPACE = Columns(None, "full grade space")
EIGENVALUE_MULTISET = Columns(None, "eigenvalue multiset")


@dataclass(frozen=True)
class StructureSpec:
    """Family of sector functions f_s(n) defining a graded ladder algebra.

    Exactly one parameter set is populated, according to ``family``:
    per-sector constants, affine coefficients (a, b) shared by all sectors,
    or an explicit table keyed by (sector, argument).
    """

    k: int
    family: str
    constants: tuple[float, ...] | None = None
    a: float | None = None
    b: float | None = None
    table: dict[tuple[int, int], float] | None = None

    def __post_init__(self):
        if self.k < 2:
            raise InvalidOrderError(f"cyclic order must be at least 2, got {self.k}")
        if self.family == "constant":
            if self.constants is None or len(self.constants) != self.k:
                raise ConfigError("constant family needs one value per sector")
            values = self.constants
        elif self.family == "affine":
            if self.a is None or self.b is None:
                raise ConfigError("affine family needs coefficients a and b")
            values = (self.a, self.b)
        elif self.family == "table":
            if not self.table:
                raise ConfigError("table family needs a nonempty value table")
            values = self.table.values()
        else:
            raise ConfigError(f"unknown structure family {self.family!r}")
        bad = [v for v in values if not np.isfinite(v)]
        if bad:
            raise ConfigError(f"{self.family} family values must be finite, got {bad[0]}")

    @classmethod
    def constant_values(cls, k: int, values) -> "StructureSpec":
        """Per-sector constants; a scalar is broadcast to every sector."""
        if isinstance(values, (int, float)):
            values = [values] * k
        return cls(k=k, family="constant", constants=tuple(float(v) for v in values))

    @classmethod
    def affine_family(cls, k: int, a: float, b: float) -> "StructureSpec":
        """f_s(n) = a*n + b for every sector."""
        return cls(k=k, family="affine", a=float(a), b=float(b))

    @classmethod
    def from_table(cls, k: int, entries: dict[tuple[int, int], float]) -> "StructureSpec":
        table = {(int(s), int(n)): float(v) for (s, n), v in entries.items()}
        for s, _ in table:
            if not 0 <= s < k:
                raise ConfigError(f"table sector {s} outside 0..{k - 1}")
        return cls(k=k, family="table", table=table)

    def f(self, s, n):
        """Value of f_s(n); the sector index is reduced mod k.

        s and n may be integer arrays, which broadcast against each other;
        two scalars give a float.
        """
        s, n = np.mod(s, self.k), np.asarray(n)
        if self.family == "constant":
            values = np.array(self.constants)[s]
        elif self.family == "affine":
            values = self.a * n + self.b
        else:
            values = self._lookup(s, n)
        shape = np.broadcast(s, n).shape
        if values.shape != shape:
            values = np.broadcast_to(values, shape).copy()
        return float(values) if values.ndim == 0 else values

    @cached_property
    def _table_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Table keys coded as n*k + s in ascending order, and their values.

        The last code is a sentinel above every level's code.  A key whose
        argument is too large for an int64 code is left out: no space that
        fits in memory reaches that level.
        """
        top = np.iinfo(np.int64).max
        limit = top // (2 * self.k)
        pairs = sorted((n * self.k + s, v) for (s, n), v in self.table.items() if abs(n) < limit)
        codes, values = zip(*pairs, (top, np.nan))
        return np.array(codes, dtype=np.int64), np.array(values)

    def _lookup(self, s: np.ndarray, n: np.ndarray) -> np.ndarray:
        codes, values = self._table_codes
        want = n * self.k + s
        at = np.searchsorted(codes, want)
        missing = codes[at] != want
        if missing.any():
            # the first missing key in C order of the broadcast arguments
            n_i, s_i = divmod(int(want.flat[np.flatnonzero(missing)[0]]), self.k)
            raise DomainError(
                f"table spec has no value for sector {s_i} at argument n = {n_i}"
            )
        return values[at]

    @property
    def preset(self) -> str | None:
        """Shape label for affine families (metadata, never used numerically)."""
        if self.family != "affine" or self.b is None or self.b <= 0:
            return None
        if self.a == 0:
            return "harmonic"
        return "morse" if self.a < 0 else "poschl-teller"


@dataclass(frozen=True)
class GradedBasis:
    """Basis |n, s> with k sectors of d levels.

    Every operator and column set on it, and the structure function F, is a
    (k, d) table, sector s in row s and level n in column n; a per-level
    array of shape (d,) broadcasts over the sectors, and over any leading
    block axes.
    """

    k: int
    d: int

    def __post_init__(self):
        if self.k < 2:
            raise InvalidOrderError(f"cyclic order must be at least 2, got {self.k}")
        if self.d < 2:
            raise DegenerateSpaceError(f"need at least 2 levels per sector, got {self.d}")

    @property
    def dim(self) -> int:
        return self.k * self.d

    def window(self, margin: int) -> Columns:
        """Levels n <= d - 1 - margin, as a fresh (d,) mask, and their description."""
        if margin < 1:
            raise WindowTooSmallError(f"margin must be at least 1, got {margin}")
        top = self.d - 1 - margin
        if top < 1:
            raise WindowTooSmallError(
                f"margin {margin} leaves no window below the ceiling of {self.d} levels"
            )
        return Columns(np.arange(self.d) <= top, f"levels n <= {top} of {self.d} (margin {margin})")


def solve_structure_function(spec: StructureSpec, d: int) -> np.ndarray:
    """Solve the coupled recursion up from F_s(0) = 0 on d levels: the (k, d)
    table of the basis, F_s(n) at [s, n].

    Each pair (s, n+1) is reached from exactly one predecessor
    (s-1 mod k, n), so the solution is unique: along the chain that starts
    at sector c, F_(c+n mod k)(n) is the sum of f_(c+j mod k)(j) over j < n,
    added left to right to 0.0.  f is read on all d levels, f_s(d-1) too,
    which the ladder relation at the top level needs: a table without it
    fails here.
    """
    if d < 2:
        raise DegenerateSpaceError(f"need at least 2 levels per sector, got {d}")
    k = spec.k
    # values beyond float64 become inf or nan here, without a warning;
    # build_rep refuses any that the basis reads
    with np.errstate(over="ignore", invalid="ignore"):
        # f_s(n) at [n, s], so a missing table value is reported level by level
        f = spec.f(np.arange(k), np.arange(d)[:, None])
        n = np.arange(d)
        chain = (np.arange(k)[:, None] + n) % k
        # each chain's running sum starts from F_s(0) = 0.0, not from its first
        # step, so a first step of -0.0 gives F = +0.0
        steps = np.zeros((k, d))
        steps[:, 1:] = f[n[:-1], chain[:, :-1]]
        F = np.empty((k, d))
        F[chain, n] = np.cumsum(steps, axis=1)
    return F


def effective_dimension(F: np.ndarray) -> int:
    """Largest d' with F_s(n) >= 0 for every sector and level n < d' of the
    (k, d) table F.

    Negative structure values admit no real ladder matrix elements, so the
    space is truncated just below the first sign change.
    """
    negative = np.flatnonzero((F < -NONNEG_TOL).any(axis=0))
    limit = int(negative[0]) if negative.size else F.shape[1]
    if limit < 2:
        raise DegenerateSpaceError(
            f"structure values go negative at level {limit}; fewer than 2 levels survive"
        )
    return limit


def load_table_csv(path, k: int) -> StructureSpec:
    """Read a table-family spec from CSV with header s,n,f.

    Arguments n may be negative; those rows extend the table below the
    ground level, which Hamiltonian assembly requires.
    """
    entries: dict[tuple[int, int], float] = {}
    # utf-8-sig: a spreadsheet may begin the file with a byte-order mark
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["s", "n", "f"]:
            raise ConfigError(f"{path}: table CSV must begin with the header s,n,f")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ConfigError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                s, n, fval = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if (s, n) in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate entry for sector {s}, n = {n}")
            entries[(s, n)] = fval
    if not entries:
        raise ConfigError(f"{path}: table CSV has no data rows")
    return StructureSpec.from_table(k, entries)
