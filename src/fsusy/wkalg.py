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
ceiling.  Every identity A = B in fsusy is scored by one scale-free residual,
the largest per-column relative deviation over the window columns j:

    residual(A, B) = max_j |A_j - B_j|_1 / max(1, |A_j|_1, |B_j|_1)

with |.|_1 the column 1-norm.  A column whose two nonzero entries sit in
different rows deviates by |A_j| + |B_j|.  The residual is 0 exactly when
A and B agree on the window, and a relative error in one weight shows at
its own size whatever d is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGradingError, RepresentationError, WindowTooSmallError
from .fock import NONNEG_TOL, GradedBasis, StructureFunction, StructureSpec
from .qarith import primitive_root
from .report import ReportEntry

GRADING_TOL = 1e-12


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
        return cls(np.arange(len(values)), np.array(values, dtype=complex))

    @property
    def dim(self) -> int:
        return self.target.size

    def __matmul__(self, other: ColumnMap) -> ColumnMap:
        has = other.target >= 0
        via = np.where(has, other.target, 0)
        return ColumnMap(np.where(has, self.target[via], -1), self.weight[via] * other.weight)

    def __pow__(self, n: int) -> ColumnMap:
        out = ColumnMap.diag(np.ones(self.dim))
        for _ in range(n):
            out = out @ self
        return out

    def _combine(self, other: ColumnMap, op) -> ColumnMap:
        mine, theirs = self.weight != 0, other.weight != 0
        both = mine & theirs
        if np.any(self.target[both] != other.target[both]):
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
        if np.unique(rows).size != rows.size:
            raise ValueError("two columns share a row; the adjoint is no column map")
        target = np.full(self.dim, -1)
        weight = np.zeros(self.dim, dtype=complex)
        target[rows] = cols
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
    """All operator families of one graded ladder representation."""

    spec: StructureSpec
    basis: GradedBasis
    F: StructureFunction
    Xm: ColumnMap
    Xp: ColumnMap
    N: ColumnMap
    K: ColumnMap
    projectors: tuple[ColumnMap, ...]

    def projector(self, s: int) -> ColumnMap:
        """Sector projector; the index is cyclic, so s = k maps to 0."""
        return self.projectors[s % self.basis.k]


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unfused complex product a * b, written out on the real and imaginary parts."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def build_projectors(K: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Resolve a unitary cyclic grading K, given by its diagonal, into projectors.

    Pi_s = (1/k) sum_t q^(-s t) K^t with q the primitive k-th root of unity;
    each Pi_s is returned as its diagonal.  The powers K^t use the unfused
    complex product, which rounds like the one-term dot of a dense matrix
    product, so the round-off the exported Pi_s and H carry (about 1e-16
    outside their sectors) stays what it was.
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
    projectors = []
    for s in range(k):
        acc = np.zeros(dim, dtype=complex)
        for t in range(k):
            acc += q ** (-s * t) * powers[t]
        projectors.append(acc / k)
    return tuple(projectors)


def sector_mask(basis: GradedBasis, s: int) -> np.ndarray:
    """Columns of sector s (cyclic index)."""
    return np.arange(basis.dim) // basis.d == s % basis.k


def window_mask(basis: GradedBasis, margin: int) -> np.ndarray:
    """Columns of levels n <= d - 1 - margin."""
    if margin < 1:
        raise WindowTooSmallError(f"margin must be at least 1, got {margin}")
    top = basis.d - 1 - margin
    if top < 1:
        raise WindowTooSmallError(
            f"margin {margin} leaves no window below the ceiling of {basis.d} levels"
        )
    return np.arange(basis.dim) % basis.d <= top


def window_description(basis: GradedBasis, margin: int) -> str:
    return f"levels n <= {basis.d - 1 - margin} of {basis.d} (margin {margin})"


def residual(lhs: ColumnMap, rhs: ColumnMap, window: np.ndarray | None = None) -> float:
    """Largest relative column deviation of lhs = rhs over the window columns.

    Column j scores |lhs_j - rhs_j| / max(1, |lhs_j|, |rhs_j|), where two
    nonzero entries in different rows deviate by |lhs_j| + |rhs_j|; without
    a window every column counts.
    """
    a, b = np.abs(lhs.weight), np.abs(rhs.weight)
    apart = (lhs.target != rhs.target) & (a > 0) & (b > 0)
    dev = np.where(apart, a + b, np.abs(lhs.weight - rhs.weight))
    dev /= np.maximum(1.0, np.maximum(a, b))
    return float((dev if window is None else dev[window]).max(initial=0.0))


def build_rep(spec: StructureSpec, basis: GradedBasis, F: StructureFunction) -> AlgebraRep:
    """Materialize X-, X+, N, K and the sector projectors.

    X-|n, s> = sqrt(F_s(n)) |n-1, s-1> and X+ is its adjoint, so raising out
    of the top level is truncated to zero automatically.
    """
    k, d = basis.k, basis.d
    if F.k != k or F.d < d:
        raise RepresentationError("structure function does not cover the basis")
    level, sector = np.arange(basis.dim) % d, np.arange(basis.dim) // d
    values = F.values[sector, level]
    bad = np.flatnonzero((level > 0) & (values < -NONNEG_TOL))
    if bad.size:
        n, s = basis.state(int(bad[0]))
        raise RepresentationError(
            f"F_{s}({n}) = {F.value(s, n):.6g} is negative; no real ladder element exists"
        )
    Xm = ColumnMap(
        np.where(level > 0, (sector - 1) % k * d + level - 1, -1),
        np.where(level > 0, np.sqrt(np.maximum(values, 0.0)), 0.0).astype(complex),
    )
    q = primitive_root(k)
    K = ColumnMap.diag(np.repeat([q ** s for s in range(k)], d))
    # the Fourier route rather than exact 0/1 masks: exported Pi_s and H carry
    # its round-off (about 1e-16 outside their sectors), which
    # perfbench/reference.json pins
    projs = tuple(ColumnMap.diag(P) for P in build_projectors(K.weight, k))
    return AlgebraRep(spec, basis, F, Xm, Xm.adjoint(), ColumnMap.diag(level), K, projs)


_RELATION_STATEMENTS = {
    "ladder_commutator": "[X-, X+] equals the sector-weighted structure values sum_s f_s(N) Pi_s",
    "number_ladder": "[N, X-] = -X- and [N, X+] = +X+",
    "grading_ladder": "K X- = q^(-1) X- K and K X+ = q^(+1) X+ K",
    "grading_number": "[K, N] = 0",
    "grading_cyclic": "K^k = 1",
}


def algebra_relation_residuals(
    spec: StructureSpec,
    basis: GradedBasis,
    Xm: ColumnMap,
    Xp: ColumnMap,
    N: ColumnMap,
    K: ColumnMap,
    projectors,
    margin: int,
) -> dict[str, float]:
    """Windowed residuals of the five defining relations.

    Shared by the graded Fock construction and the tensor-product one, which
    use the same (sector, level) index layout.
    """
    P = window_mask(basis, margin)
    q = primitive_root(basis.k)
    rhs = sum(
        (weight_diagonal(spec, basis, s) @ projectors[s] for s in range(basis.k)),
        start=ColumnMap.diag(np.zeros(basis.dim)),
    )
    eye = ColumnMap.diag(np.ones(basis.dim))
    return {
        "ladder_commutator": residual(Xm @ Xp - Xp @ Xm, rhs, P),
        "number_ladder": max(
            residual(N @ Xm - Xm @ N, -1 * Xm, P),
            residual(N @ Xp - Xp @ N, Xp, P),
        ),
        "grading_ladder": max(
            residual(K @ Xm, (1 / q) * (Xm @ K), P),
            residual(K @ Xp, q * (Xp @ K), P),
        ),
        "grading_number": residual(K @ N, N @ K, P),
        "grading_cyclic": residual(K ** basis.k, eye, P),
    }


def weight_diagonal(spec: StructureSpec, basis: GradedBasis, t: int, shift: int = 0) -> ColumnMap:
    """Diagonal f_t(N + shift): entry f_t(n + shift) at every state |n, .>."""
    vals = np.array([spec.f(t, n + shift) for n in range(basis.d)], dtype=complex)
    return ColumnMap.diag(np.tile(vals, basis.k))


def verify_wk_relations(rep: AlgebraRep, margin: int, tolerance: float = 1e-10) -> list[ReportEntry]:
    """Check all five defining relations of the representation."""
    residuals = algebra_relation_residuals(
        rep.spec, rep.basis, rep.Xm, rep.Xp, rep.N, rep.K, rep.projectors, margin,
    )
    win = window_description(rep.basis, margin)
    return [
        ReportEntry.check(f"algebra.{key}", _RELATION_STATEMENTS[key], val, tolerance, win)
        for key, val in residuals.items()
    ]
