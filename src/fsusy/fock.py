"""Graded Fock space, sector structure functions and their coupled recursion.

The space is spanned by |n, s> with level n = 0 .. d-1 and cyclic sector
s = 0 .. k-1.  A family of per-sector functions f_s drives the recursion

    F_{s+1 mod k}(n + 1) - F_s(n) = f_s(n),    F_s(0) = 0,

whose solution F fixes every ladder matrix element as sqrt(F_s(n)).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSpaceError,
    DomainError,
    InvalidOrderError,
)

# Values above -NONNEG_TOL count as nonnegative; shields exact zeros of F
# against last-bit rounding without masking real sign changes.
NONNEG_TOL = 1e-12

FAMILIES = ("constant", "affine", "table")


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

    def f(self, s: int, n: int) -> float:
        """Value of f_s(n); the sector index is reduced mod k."""
        s = s % self.k
        if self.family == "constant":
            return self.constants[s]
        if self.family == "affine":
            return self.a * n + self.b
        try:
            return self.table[(s, n)]
        except KeyError:
            raise DomainError(
                f"table spec has no value for sector {s} at argument n = {n}"
            ) from None

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
    """Basis |n, s> with k sectors of d levels; flat index = s*d + n."""

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

    def index(self, n: int, s: int) -> int:
        if not 0 <= n < self.d:
            raise ValueError(f"level {n} outside 0..{self.d - 1}")
        return (s % self.k) * self.d + n

    def state(self, i: int) -> tuple[int, int]:
        """Inverse of index: flat index -> (n, s)."""
        if not 0 <= i < self.dim:
            raise ValueError(f"index {i} outside 0..{self.dim - 1}")
        return i % self.d, i // self.d


@dataclass(frozen=True)
class StructureFunction:
    """Solved recursion values F_s(n) for 0 <= s < k, 0 <= n <= d."""

    k: int
    d: int
    values: np.ndarray

    def value(self, s: int, n: int) -> float:
        return float(self.values[s % self.k, n])

    def truncate(self, new_d: int) -> "StructureFunction":
        if new_d > self.d:
            raise ValueError(f"cannot extend solved range {self.d} to {new_d}")
        return StructureFunction(self.k, new_d, self.values[:, : new_d + 1].copy())


def solve_structure_function(spec: StructureSpec, d: int) -> StructureFunction:
    """March the coupled recursion up from F_s(0) = 0.

    Each pair (s, n+1) is reached from exactly one predecessor
    (s-1 mod k, n), so the solution is unique.
    """
    if d < 2:
        raise DegenerateSpaceError(f"need at least 2 levels per sector, got {d}")
    values = np.zeros((spec.k, d + 1))
    for n in range(d):
        for s in range(spec.k):
            values[(s + 1) % spec.k, n + 1] = values[s, n] + spec.f(s, n)
    return StructureFunction(spec.k, d, values)


def effective_dimension(F: StructureFunction, requested_d: int) -> int:
    """Largest d' <= requested_d with F_s(n) >= 0 for every sector and n < d'.

    Negative structure values admit no real ladder matrix elements, so the
    space is truncated just below the first sign change.
    """
    if requested_d > F.d:
        raise ValueError(f"F solved to n = {F.d}, cannot scan up to {requested_d}")
    limit = requested_d
    for n in range(requested_d):
        if F.values[:, n].min() < -NONNEG_TOL:
            limit = n
            break
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
    with open(path, newline="", encoding="utf-8") as fh:
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
