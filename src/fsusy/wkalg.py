"""Graded ladder algebra as column maps, and its relation checks.

Every operator here maps each basis state to at most one basis state, so it
is a ColumnMap: per column a target row and a weight.  Products are gathers,
and sector and window projectors are column masks.

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

with |.|_1 the column 1-norm.  A column whose two nonzero entries sit in
different rows deviates by |A_j| + |B_j|.  The residual is 0 exactly when
A and B agree on those columns, and a relative error in one weight shows at
its own size whatever d is.  Block-diagonal operators (several
representations or replicas side by side) are compared once, and each
block's residual is the maximum of the deviation over its own columns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

import numpy as np

from .errors import InvalidGradingError, RepresentationError
from .fock import NONNEG_TOL, Columns, GradedBasis, StructureFunction, StructureSpec
from .qarith import primitive_root
from .report import ReportEntry

GRADING_TOL = 1e-12

STRICT_FACTOR = 1e-2


@lru_cache(maxsize=4)
def _identity(dim: int) -> np.ndarray:
    """Read-only targets 0 .. dim-1, shared by the diagonal maps of that dimension."""
    target = np.arange(dim)
    target.flags.writeable = False
    return target


@dataclass(frozen=True, eq=False)
class ColumnMap:
    """Square operator with at most one nonzero entry per column.

    Column j holds ``weight[j]`` in row ``target[j]``; target -1 marks an
    empty column, whose weight is 0.
    """

    target: np.ndarray
    weight: np.ndarray

    # numpy defers arithmetic to the operators below instead of densifying
    __array_ufunc__ = None

    @classmethod
    def diag(cls, values) -> ColumnMap:
        return cls(_identity(len(values)), np.array(values, dtype=complex))

    @property
    def dim(self) -> int:
        return self.target.size

    def __matmul__(self, other: ColumnMap) -> ColumnMap:
        via = np.maximum(other.target, 0)  # an empty column reads column 0
        target = self.target[via]
        target[other.target < 0] = -1
        return ColumnMap(target, self.weight[via] * other.weight)

    def __pow__(self, n: int) -> ColumnMap:
        out = ColumnMap.diag(np.ones(self.dim))
        for _ in range(n):
            out = out @ self
        return out

    def _combine(self, other: ColumnMap, op) -> ColumnMap:
        mine, theirs = self.weight != 0, other.weight != 0
        if np.any((self.target != other.target) & mine & theirs):
            raise ValueError("operands send a column to different rows")
        return ColumnMap(np.where(mine, self.target, other.target), op(self.weight, other.weight))

    def __add__(self, other: ColumnMap) -> ColumnMap:
        return self._combine(other, np.add)

    def __sub__(self, other: ColumnMap) -> ColumnMap:
        return self._combine(other, np.subtract)

    def __rmul__(self, scalar) -> ColumnMap:
        return ColumnMap(self.target, scalar * self.weight)

    def adjoint(self) -> ColumnMap:
        cols = np.flatnonzero(self.weight)
        rows = self.target[cols]
        target = np.full(self.dim, -1)
        target[rows] = cols
        # two columns sharing a row would fill fewer rows than there are columns
        if np.count_nonzero(target >= 0) != cols.size:
            raise ValueError("two columns share a row; the adjoint is no column map")
        weight = np.zeros(self.dim, dtype=complex)
        weight[rows] = self.weight[cols].conj()
        return ColumnMap(target, weight)

    def masked(self, keep: np.ndarray) -> ColumnMap:
        """Right product with the 0/1 diagonal ``keep``; dropped weights become exact zeros."""
        return ColumnMap(self.target, self.weight * keep)

    def diagonal(self) -> np.ndarray:
        return np.where(self.target == np.arange(self.dim), self.weight, 0)

    def dense(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        cols = np.flatnonzero(self.target >= 0)
        mat[self.target[cols], cols] = self.weight[cols]
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
    Xm: ColumnMap
    Xp: ColumnMap
    N: ColumnMap
    K: ColumnMap
    projectors: np.ndarray  # (k, k): row s holds Pi_s's value on each sector

    def projector(self, s: int) -> ColumnMap:
        """Pi_s lifted to a full-space diagonal; s is cyclic, so s = k maps to 0."""
        return ColumnMap.diag(self.projectors[s % self.basis.k][self.basis.sector])


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
    powers = [np.ones(dim, dtype=complex)]
    for _ in range(k):
        powers.append(_times(powers[-1], K))
    if np.linalg.norm(powers[k] - 1) > GRADING_TOL * dim:
        raise InvalidGradingError(f"grading operator is not cyclic of order {k}")
    q = primitive_root(k)
    projectors = np.zeros((k, dim), dtype=complex)
    for s, acc in enumerate(projectors):
        for t in range(k):
            acc += q ** (-s * t) * powers[t]
    return projectors / k


def deviation(lhs: ColumnMap, rhs: ColumnMap) -> np.ndarray:
    """Relative deviation of lhs = rhs in each column.

    Column j scores |lhs_j - rhs_j| / max(1, |lhs_j|, |rhs_j|); entries in
    different rows deviate by |lhs_j| + |rhs_j|, as they do anyway if one is 0.
    """
    a, b = np.abs(lhs.weight), np.abs(rhs.weight)
    dev = np.abs(lhs.weight - rhs.weight)
    np.add(a, b, out=dev, where=lhs.target != rhs.target)
    np.maximum(a, b, out=a)
    dev /= np.maximum(a, 1.0, out=a)
    return dev


def score(pairs, window: np.ndarray | None = None, blocks: int = 1) -> np.ndarray:
    """Residual of each of ``blocks`` equal consecutive column blocks: the largest
    deviation over the block's window columns (all without a window) and over the
    (lhs, rhs) pairs, each freed before a generator of pairs forms the next."""
    out = np.zeros(blocks)
    for lhs, rhs in pairs:
        dev = deviation(lhs, rhs)
        del lhs, rhs
        if window is not None:
            dev = np.where(window, dev, 0.0)
        out = np.maximum(out, dev.reshape(blocks, -1).max(axis=1, initial=0.0))
    return out


@dataclass(frozen=True)
class Scoring:
    """A run's window margin and tolerance; ``entry`` makes every scored entry.

    Tiers: "exact" at 0, "strict" at ``tolerance`` * STRICT_FACTOR for the
    identities that hold by exact cancellation, "windowed" at ``tolerance``.
    """

    margin: int
    tolerance: float

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
    """Materialize X-, X+, N, K and the table of the sector projectors.

    X-|n, s> = sqrt(F_s(n)) |n-1, s-1> and X+ is its adjoint, so raising out
    of the top level is truncated to zero automatically.
    """
    k, level, sector = basis.k, basis.level, basis.sector
    if F.k != k or F.d < basis.d:
        raise RepresentationError("structure function does not cover the basis")
    values = F.values[sector, level]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        n, s = basis.state(int(bad[0]))
        raise RepresentationError(
            f"F_{s}({n}) = {F.value(s, n)} is not finite; the structure values overflow float64"
        )
    bad = np.flatnonzero((level > 0) & (values < -NONNEG_TOL))
    if bad.size:
        n, s = basis.state(int(bad[0]))
        raise RepresentationError(
            f"F_{s}({n}) = {F.value(s, n):.6g} is negative; no real ladder element exists"
        )
    Xm = ColumnMap(
        np.where(level > 0, basis.index(np.maximum(level - 1, 0), sector - 1), -1),
        np.where(level > 0, np.sqrt(np.maximum(values, 0.0)), 0.0).astype(complex),
    )
    grades, projectors = _grading(k)
    return AlgebraRep(spec, basis, F, Xm, Xm.adjoint(), ColumnMap.diag(level),
                      ColumnMap.diag(grades[sector]), projectors)


@lru_cache(maxsize=8)
def _grading(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The grades q^s of the k sectors and their projector table, built once
    per order; both read-only.

    The Fourier route rather than exact 0/1 masks: exported Pi_s and H carry
    its round-off (about 1e-16 outside their sectors), which
    perfbench/reference.json pins.
    """
    q = primitive_root(k)
    grades = np.array([q ** s for s in range(k)])
    projectors = build_projectors(grades, k)
    grades.flags.writeable = projectors.flags.writeable = False
    return grades, projectors


_RELATION_STATEMENTS = {
    "ladder_commutator": "[X-, X+] equals the sector-weighted structure values sum_s f_s(N) Pi_s",
    "number_ladder": "[N, X-] = -X- and [N, X+] = +X+",
    "grading_ladder": "K X- = q^(-1) X- K and K X+ = q^(+1) X+ K",
    "grading_number": "[K, N] = 0",
    "grading_cyclic": "K^k = 1",
}


def direct_sum(ops: Sequence[ColumnMap]) -> ColumnMap:
    """Block-diagonal column map of ops, the i-th acting on columns i*dim .. (i+1)*dim - 1."""
    dim = ops[0].dim
    return ColumnMap(
        np.concatenate([np.where(op.target >= 0, op.target + i * dim, -1)
                        for i, op in enumerate(ops)]),
        np.concatenate([op.weight for op in ops]),
    )


def ladder_weights(rep: AlgebraRep) -> np.ndarray:
    """Weights of the diagonal sum_s f_s(N) Pi_s.

    The k terms f_s(n) Pi_s are added to zero in order s = 0 .. k-1 on the
    (sector, level) table, each the complex product of f_s(n) and Pi_s's
    value on the sector, as the sum of k diagonal column-map products did.
    """
    basis = rep.basis
    f = rep.spec.f(np.arange(basis.k)[:, None], np.arange(basis.d))
    total = np.zeros((basis.k, basis.d), dtype=complex)
    for f_s, P in zip(f.astype(complex), rep.projectors, strict=True):
        total += f_s * P[:, None]
    return total[basis.sector, basis.level]


def algebra_relation_residuals(
    reps: Sequence[AlgebraRep], margin: int
) -> tuple[list[dict[str, float]], Columns]:
    """Windowed residuals of the five defining relations of each representation,
    and the window of their common basis.

    The representations share one graded basis (k sectors of d levels) and
    are scored in one pass on their direct sum, the basis of p k sectors in
    which representation i holds sectors i k .. i k + k - 1; each one's
    residuals are the largest deviations over its own columns, so they equal
    a pass on that representation alone.  Serves the graded Fock
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
    p = len(reps)
    window = basis.window(margin)
    P = np.tile(window.mask, p)
    q = primitive_root(basis.k)
    Xm, Xp, N, K = (direct_sum([getattr(rep, name) for rep in reps])
                    for name in ("Xm", "Xp", "N", "K"))
    ladder = ColumnMap.diag(np.concatenate([ladder_weights(r) for r in reps]))
    # each relation's products live only while it is scored
    columns = {
        "ladder_commutator": score([(Xm @ Xp, Xp @ Xm + ladder)], P, p),
        "number_ladder": score(((N @ X, op(X @ N, X)) for op, X in ((sub, Xm), (add, Xp))), P, p),
        "grading_ladder": score(((K @ X, c * (X @ K)) for c, X in ((1 / q, Xm), (q, Xp))), P, p),
        "grading_number": score([(K @ N, N @ K)], P, p),
        "grading_cyclic": score([(K ** basis.k, ColumnMap.diag(np.ones(K.dim)))], P, p),
    }
    return [{key: float(val[i]) for key, val in columns.items()} for i in range(p)], window


def verify_wk_relations(
    rep: AlgebraRep, scoring: Scoring, tensor: AlgebraRep | None = None
) -> tuple[list[ReportEntry], list[ReportEntry]]:
    """Check the five defining relations of the graded construction and,
    when given, of the tensor-product one, in one pass on both.

    Returns the algebra.* entries and the tensor.* entries (none without a
    tensor realization).
    """
    reps = [rep] if tensor is None else [rep, tensor]
    residuals, window = algebra_relation_residuals(reps, scoring.margin)
    entries = [
        [scoring.entry(f"{prefix}.{key}", _RELATION_STATEMENTS[key], val, "windowed", window)
         for key, val in values.items()]
        for prefix, values in zip(("algebra", "tensor"), residuals)
    ]
    return entries[0], (entries[1] if tensor is not None else [])
