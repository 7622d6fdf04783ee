"""Graded ladder algebra as graded shifts, and its relation checks.

Every operator here moves each basis state |n, s> by one fixed step, to
|n + dn, s + ds mod k>, with a weight of its own: a Shift, the step and a
(k, d) weight table.  Products, adjoints and dense entries read a table
moved by one step.  A sector projector Pi_s keeps sector s alone, so it is
the mask of that sector; only H and the dumped Pi_s read the Fourier
projector table of ``_grading``.

On the graded basis the defining relations read

    [X-, X+] = sum_s f_s(N) Pi_s        (sector-weighted commutator)
    [N, X+-] = +-X+-                    (ladder grading of the number operator)
    K X+- = q^(+-1) X+- K               (cyclic grading of the ladders)
    [K, N] = 0,  K^k = 1

Raising out of the top level n = d-1 is truncated to zero, so identities are
checked on a safe window of states at least ``margin`` levels below the
ceiling.  Every identity A = B in fsusy is scored by one scale-free residual
(``score``), the largest per-column relative deviation over its columns j:

    deviation_j(A, B) = |A_j - B_j|_1 / max(1, |A_j|_1, |B_j|_1)
    residual(A, B)    = max_j deviation_j(A, B)

with |.|_1 the column 1-norm; operands of different shifts deviate by
|A_j| + |B_j|.  The residual is 0 exactly when A and B agree on those
columns, and a relative error in one weight shows at its own size whatever
d is.  Columns are the cells of the (..., K, d) weight table and a column
set is a mask that broadcasts against it.  Block-diagonal operators (several
representations or replicas side by side) hold their blocks on leading axes
of the table and are compared once; each block's residual is the largest
over its own columns.  A check returns records, the residual and its
columns by entry name, and ``Scoring.entries`` makes every report entry
from them, with the tier and statement of ``report.IDENTITIES``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

import numpy as np

from .errors import InvalidGradingError, RepresentationError
from .fock import NONNEG_TOL, Columns, GradedBasis, StructureFunction, StructureSpec
from .qarith import primitive_root, roots
from .report import ReportEntry, identity

GRADING_TOL = 1e-12

STRICT_FACTOR = 1e-2


def _moved(table: np.ndarray, dn: int, ds: int) -> np.ndarray:
    """Cell |n, g> holds cell |n + dn, g + ds mod K> of the (..., K, d) table,
    and 0 where n + dn falls outside the d levels, however far the step reaches."""
    *_, K, d = table.shape
    r, lo = ds % K, max(0, -dn)
    hi = max(lo, min(d, d - dn))
    out = np.zeros(table.shape, dtype=table.dtype)
    into, src = out[..., lo:hi], table[..., lo + dn:hi + dn]
    # grades g < K - r read grade g + r, the others wrap to g + r - K
    into[..., :K - r, :], into[..., K - r:, :] = src[..., r:, :], src[..., :r, :]
    return out


@dataclass(frozen=True, eq=False)
class Shift:
    """Graded shift: column |n, g> goes to row |n + dn, g + ds mod K> with
    weight ``weight[..., g, n]``, of shape (..., K, d).  The K grades are
    cyclic and the d levels truncate: a column whose row level falls outside
    0 .. d-1 has no row and holds 0.  Leading axes hold blocks side by side.
    The dense matrix of ``entries`` and ``dense`` numbers its rows and
    columns in the C order of ``weight``."""

    dn: int
    ds: int
    weight: np.ndarray

    # numpy defers arithmetic to the operators below instead of densifying
    __array_ufunc__ = None

    @classmethod
    def diag(cls, values) -> Shift:
        return cls(0, 0, np.array(values, dtype=complex))

    @classmethod
    def stack(cls, ops: Sequence[Shift]) -> Shift:
        """The ops as blocks on a new leading axis; every block has one shift."""
        if any(not op._same_shift(ops[0]) for op in ops):
            raise ValueError("blocks of one operator must share one shift")
        return cls(ops[0].dn, ops[0].ds, np.stack([op.weight for op in ops]))

    @property
    def dim(self) -> int:
        return self.weight.size

    def _same_shift(self, other: Shift) -> bool:
        return self.dn == other.dn and (self.ds - other.ds) % self.weight.shape[-2] == 0

    def __matmul__(self, other: Shift) -> Shift:
        """Column |n, g> of the product is self's weight at other's row for it
        times other's weight, or 0 times it where other's column has no row."""
        diagonal = other.dn == 0 and other.ds % other.weight.shape[-2] == 0
        left = self.weight if diagonal else _moved(self.weight, other.dn, other.ds)
        return Shift(self.dn + other.dn, self.ds + other.ds, left * other.weight)

    def __pow__(self, n: int) -> Shift:
        """The n-th power by repeated squaring, about 2 log2(n) products."""
        power, square = Shift(0, 0, np.ones_like(self.weight)), self
        while n:
            if n & 1:
                power = power @ square
            n >>= 1
            if n:
                square = square @ square
        return power

    def _combine(self, other: Shift, op) -> Shift:
        if not self._same_shift(other):
            raise ValueError("operands shift their columns by different steps")
        return Shift(self.dn, self.ds, op(self.weight, other.weight))

    def __add__(self, other: Shift) -> Shift:
        return self._combine(other, np.add)

    def __sub__(self, other: Shift) -> Shift:
        return self._combine(other, np.subtract)

    def __rmul__(self, scalar) -> Shift:
        return Shift(self.dn, self.ds, scalar * self.weight)

    def adjoint(self) -> Shift:
        """The conjugate transpose: the opposite shift, each weight conjugated
        into the column of its row; a zero weight leaves +0."""
        weight = _moved(self.weight, -self.dn, -self.ds)
        return Shift(-self.dn, -self.ds, np.where(weight != 0, weight.conj(), 0))

    def support(self) -> Shift:
        """The same step with weight 1 where this one's weight is nonzero, else 0.

        A column of a product holds the product of one weight of each factor,
        so the product of the factors' supports is nonzero exactly where the
        exact product is, and it can neither overflow nor underflow."""
        return Shift(self.dn, self.ds, (self.weight != 0).astype(float))

    def masked(self, keep: np.ndarray) -> Shift:
        """Right product with the 0/1 diagonal ``keep``, broadcast against the
        weight table; dropped weights become exact zeros."""
        return Shift(self.dn, self.ds, self.weight * keep)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and weight of each nonzero dense entry, rows strictly increasing."""
        K, d = self.weight.shape[-2:]
        # cell r of the table moved back by the step holds the weight of row r
        weight = _moved(self.weight, -self.dn, -self.ds).ravel()
        rows = np.flatnonzero(weight)
        grade = rows // d % K
        return rows, rows - self.dn + ((grade - self.ds) % K - grade) * d, weight[rows]

    def dense(self) -> np.ndarray:
        rows, cols, weight = self.entries()
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[rows, cols] = weight
        return mat

    def __array__(self, dtype=None, copy=None):
        # for array consumers such as np.count_nonzero; fsusy never uses it
        return self.dense() if dtype is None else self.dense().astype(dtype)


@dataclass(frozen=True)
class AlgebraRep:
    """All operator families of one ladder representation on a graded basis.

    ``build_rep`` makes the graded Fock construction and
    ``realization.build_tensor_realization`` the k-fermion tensor one.
    """

    spec: StructureSpec
    basis: GradedBasis
    F: StructureFunction
    Xm: Shift
    Xp: Shift
    N: Shift
    K: Shift


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unfused complex product a * b, written out on the real and imaginary parts."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def build_projectors(K: np.ndarray, k: int) -> np.ndarray:
    """Resolve a unitary cyclic grading K, given by its diagonal, into projectors.

    Pi_s = (1/k) sum_t q^(-s t) K^t with q the primitive k-th root of unity;
    row s of the result is the diagonal of Pi_s.  Every step is elementwise,
    so the k distinct grade values give the same bits as the whole space.  The
    powers K^t use the unfused complex product, which rounds like the
    one-term dot of a dense matrix product, so the round-off the exported
    Pi_s and H carry (about 1e-16 outside their sectors) stays what it was.
    """
    dim = K.size
    if np.linalg.norm(np.abs(K) ** 2 - 1) > GRADING_TOL * dim:
        raise InvalidGradingError("grading operator is not unitary")
    # q ** (-s * t) of a Python complex, not roots(k): the table's last bits
    # (and numpy's power) move the exported Pi_s round-off that perfbench pins
    q = primitive_root(k)
    projectors = np.zeros((k, dim), dtype=complex)
    # one running power K^t; each row still adds its terms in order t = 0 .. k-1
    power = np.ones(dim, dtype=complex)
    for t in range(k):
        for s, acc in enumerate(projectors):
            acc += q ** (-s * t) * power
        power = _times(power, K)
    if np.linalg.norm(power - 1) > GRADING_TOL * dim:
        raise InvalidGradingError(f"grading operator is not cyclic of order {k}")
    return projectors / k


def deviation(lhs: Shift, rhs: Shift) -> np.ndarray:
    """Relative deviation of lhs = rhs in each column, as a weight table.

    Column j scores |lhs_j - rhs_j| / max(1, |lhs_j|, |rhs_j|); operands of
    different shifts put their entries in different rows and deviate by
    |lhs_j| + |rhs_j|, as they do anyway if one is 0.
    """
    a, b = np.abs(lhs.weight), np.abs(rhs.weight)
    dev = np.abs(lhs.weight - rhs.weight) if lhs._same_shift(rhs) else a + b
    np.maximum(a, b, out=a)
    dev /= np.maximum(a, 1.0, out=a)
    return dev


def score(pairs, window: np.ndarray | None = None) -> np.ndarray:
    """Residual of each block of the (..., K, d) tables: the largest deviation
    over the block's window columns (all without a window) and over the
    (lhs, rhs) pairs, each freed before a generator of pairs forms the next.

    One residual per leading index, a 0-d array for a single map.  The window
    must broadcast against the deviation table without changing its shape.
    """
    out = np.zeros(())
    for lhs, rhs in pairs:
        dev = deviation(lhs, rhs)
        del lhs, rhs
        if window is not None:
            kept = np.where(window, dev, 0.0)
            if kept.shape != dev.shape:
                raise ValueError(f"a window of shape {np.shape(window)} does not fit "
                                 f"a table of shape {dev.shape}")
            dev = kept
        out = np.maximum(out, dev.max(axis=(-2, -1), initial=0.0))
    return out


@dataclass(frozen=True)
class Scoring:
    """A run's tolerance; ``entries`` makes every report entry.

    Tiers: "exact" at 0, "strict" at ``tolerance`` * STRICT_FACTOR for the
    identities that hold by exact cancellation, "windowed" at ``tolerance``.
    """

    tolerance: float

    def entries(self, records: dict) -> list[ReportEntry]:
        """The entries of a check's records, in their order: by entry name, a
        residual and its columns, or the exception of an identity without one;
        the statement and tier are the identity's in ``report.IDENTITIES``."""
        entries = []
        for name, record in records.items():
            tier, statement = identity(name)
            entries.append(ReportEntry.failure(name, statement, record)
                           if isinstance(record, Exception)
                           else self.entry(name, statement, record[0], tier, record[1]))
        return entries

    def entry(self, name, statement, residual, tier: str, columns: Columns) -> ReportEntry:
        """The entry of an identity; a residual that is not finite is an overflow."""
        bound = float({"exact": 0.0, "windowed": self.tolerance,
                       "strict": self.tolerance * STRICT_FACTOR}[tier])
        residual = float(residual)
        if not np.isfinite(residual):
            return ReportEntry(name, statement, None, bound, False, columns.text,
                               error="the products of this identity overflow float64")
        return ReportEntry(name, statement, residual, bound, residual <= bound, columns.text)


def build_rep(spec: StructureSpec, basis: GradedBasis, F: StructureFunction) -> AlgebraRep:
    """Materialize X-, X+, N and K.

    X-|n, s> = sqrt(F_s(n)) |n-1, s-1> and X+ is its adjoint, so raising out
    of the top level is truncated to zero automatically.
    """
    k, d = basis.k, basis.d
    if F.k != k or F.d < d:
        raise RepresentationError("structure function does not cover the basis")
    # F_s(n) at [s, n]: the (sector, level) table; the first bad value in
    # sector order is reported
    values, level = F.values[:, :d], np.arange(d)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        s, n = bad[0]
        raise RepresentationError(
            f"F_{s}({n}) = {F.value(s, n)} is not finite; the structure values overflow float64"
        )
    bad = np.argwhere((level > 0) & (values < -NONNEG_TOL))
    if bad.size:
        s, n = bad[0]
        raise RepresentationError(
            f"F_{s}({n}) = {F.value(s, n):.6g} is negative; no real ladder element exists"
        )
    Xm = Shift(-1, -1, np.where(level > 0, np.sqrt(np.maximum(values, 0.0)), 0.0).astype(complex))
    grades = _grading(k)[0]
    return AlgebraRep(spec, basis, F, Xm, Xm.adjoint(), Shift.diag(np.broadcast_to(level, (k, d))),
                      Shift.diag(np.broadcast_to(grades[:, None], (k, d))))


@lru_cache(maxsize=8)
def _grading(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The grades q^s of the k sectors and their projector table, built once
    per order; both read-only.  Row s of the table holds Pi_s's value on each
    sector.

    The table is the Fourier route rather than exact 0/1 masks, and only H's
    assembly and the dump of Pi_s read it: the exported Pi_s and H carry its
    round-off (about 1e-16 outside their sectors), which
    perfbench/reference.json pins.  Everything else selects a sector exactly.
    """
    # q ** s, not roots(k): the projectors' leak, and the strict H verdicts
    # at large k, hang on the last bits of these grades
    q = primitive_root(k)
    grades = np.array([q ** s for s in range(k)])
    projectors = build_projectors(grades, k)
    grades.flags.writeable = projectors.flags.writeable = False
    return grades, projectors


def algebra_relation_residuals(
    reps: Sequence[AlgebraRep], window: Columns
) -> list[dict[str, float]]:
    """Residuals of the five defining relations of each representation on
    the window of their common basis.

    The representations share one graded basis (k sectors of d levels) and
    are scored in one pass on their direct sum, representation i as block i
    of each operator; each one's residuals are the largest deviations over
    its own columns, so they equal a pass on that representation alone.  Serves the graded Fock
    construction and the tensor-product one alike.  Each relation is
    compared in a form without cancellation, so every column is scored at
    its own scale: X- X+ against X+ X- + sum_s f_s(N) Pi_s and N X-+
    against X-+ N -+ X-+.
    """
    basis = reps[0].basis
    for rep in reps[1:]:
        if rep.basis != basis:
            raise RepresentationError(
                f"representations on {rep.basis.k} x {rep.basis.d} and "
                f"{basis.k} x {basis.d} spaces have no common window"
            )
    P = window.mask
    q = roots(basis.k)
    Xm, Xp, N, K = (Shift.stack([getattr(rep, name) for rep in reps])
                    for name in ("Xm", "Xp", "N", "K"))
    # Pi_s keeps sector s alone, so sum_s f_s(N) Pi_s is f on the (sector, level) table
    sector, level = np.arange(basis.k)[:, None], np.arange(basis.d)
    ladder = Shift.diag(np.stack([rep.spec.f(sector, level) for rep in reps]))
    # each relation's products live only while it is scored
    columns = {
        "ladder_commutator": score([(Xm @ Xp, Xp @ Xm + ladder)], P),
        "number_ladder": score(((N @ X, op(X @ N, X)) for op, X in ((sub, Xm), (add, Xp))), P),
        "grading_ladder": score(((K @ X, c * (X @ K)) for c, X in ((q[-1], Xm), (q[1], Xp))), P),
        "grading_number": score([(K @ N, N @ K)], P),
        "grading_cyclic": score([(K ** basis.k, Shift.diag(np.ones(K.weight.shape)))], P),
    }
    return [{key: float(val[i]) for key, val in columns.items()} for i in range(len(reps))]
