"""Dense matrix realization of the graded ladder algebra and its relation checks.

On the graded basis the defining relations read

    [X-, X+] = sum_s f_s(N) Pi_s        (sector-weighted commutator)
    [N, X+-] = +-X+-                    (ladder grading of the number operator)
    K X+- = q^(+-1) X+- K               (cyclic grading of the ladders)
    [K, N] = 0,  K^k = 1

Raising out of the top level n = d-1 is truncated to zero, so identities are
checked on a safe window of states at least ``margin`` levels below the
ceiling: residual(A, B) = ||(A - B) P|| / max(1, ||A P||) with P the window
projector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGradingError, RepresentationError, WindowTooSmallError
from .fock import NONNEG_TOL, GradedBasis, StructureFunction, StructureSpec
from .qarith import primitive_root
from .report import ReportEntry

GRADING_TOL = 1e-12


@dataclass(frozen=True)
class OperatorMatrix:
    """A labeled dense complex operator."""

    label: str
    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class AlgebraRep:
    """All operator families of one graded ladder representation."""

    spec: StructureSpec
    basis: GradedBasis
    F: StructureFunction
    Xm: OperatorMatrix
    Xp: OperatorMatrix
    N: OperatorMatrix
    K: OperatorMatrix
    projectors: tuple[OperatorMatrix, ...]

    def projector(self, s: int) -> OperatorMatrix:
        """Sector projector; the index is cyclic, so s = k maps to 0."""
        return self.projectors[s % self.basis.k]


def build_projectors(K: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Resolve a unitary cyclic grading K into projectors.

    Pi_s = (1/k) sum_t q^(-s t) K^t with q the primitive k-th root of unity.
    """
    dim = K.shape[0]
    eye = np.eye(dim, dtype=complex)
    if np.linalg.norm(K @ K.conj().T - eye) > GRADING_TOL * dim:
        raise InvalidGradingError("grading operator is not unitary")
    powers = [eye]
    for _ in range(k):
        powers.append(powers[-1] @ K)
    if np.linalg.norm(powers[k] - eye) > GRADING_TOL * dim:
        raise InvalidGradingError(f"grading operator is not cyclic of order {k}")
    q = primitive_root(k)
    projectors = []
    for s in range(k):
        acc = np.zeros((dim, dim), dtype=complex)
        for t in range(k):
            acc += q ** (-s * t) * powers[t]
        projectors.append(acc / k)
    return tuple(projectors)


def sector_selector(basis: GradedBasis, *sectors: int) -> np.ndarray:
    """Exact 0/1 diagonal keeping the listed sectors (cyclic indices).

    Multiplying by it is the projector action with no floating residue,
    which keeps nilpotency identities exact.
    """
    keep = {s % basis.k for s in sectors}
    diag = np.zeros(basis.dim)
    for s in keep:
        diag[s * basis.d : (s + 1) * basis.d] = 1.0
    return np.diag(diag).astype(complex)


def window_projector(basis: GradedBasis, margin: int) -> np.ndarray:
    """Diagonal projector onto levels n <= d - 1 - margin."""
    if margin < 1:
        raise WindowTooSmallError(f"margin must be at least 1, got {margin}")
    top = basis.d - 1 - margin
    if top < 1:
        raise WindowTooSmallError(
            f"margin {margin} leaves no window below the ceiling of {basis.d} levels"
        )
    diag = np.zeros(basis.dim)
    for s in range(basis.k):
        diag[s * basis.d : s * basis.d + top + 1] = 1.0
    return np.diag(diag).astype(complex)


def window_description(basis: GradedBasis, margin: int) -> str:
    return f"levels n <= {basis.d - 1 - margin} of {basis.d} (margin {margin})"


def window_residual(lhs: np.ndarray, rhs: np.ndarray, window: np.ndarray) -> float:
    """Frobenius residual of lhs = rhs restricted to window columns."""
    num = np.linalg.norm((lhs - rhs) @ window)
    den = max(1.0, np.linalg.norm(lhs @ window))
    return float(num / den)


def build_rep(spec: StructureSpec, basis: GradedBasis, F: StructureFunction) -> AlgebraRep:
    """Materialize X-, X+, N, K and the sector projectors.

    X-|n, s> = sqrt(F_s(n)) |n-1, s-1> and X+ is its conjugate transpose, so
    raising out of the top level is truncated to zero automatically.
    """
    k, d = basis.k, basis.d
    if F.k != k or F.d < d:
        raise RepresentationError("structure function does not cover the basis")
    Xm = np.zeros((basis.dim, basis.dim), dtype=complex)
    for s in range(k):
        for n in range(1, d):
            v = F.value(s, n)
            if v < -NONNEG_TOL:
                raise RepresentationError(
                    f"F_{s}({n}) = {v:.6g} is negative; no real ladder element exists"
                )
            Xm[basis.index(n - 1, s - 1), basis.index(n, s)] = np.sqrt(max(v, 0.0))
    Xp = Xm.conj().T
    q = primitive_root(k)
    N = np.diag(np.array([basis.state(i)[0] for i in range(basis.dim)], dtype=complex))
    K = np.diag(np.array([q ** basis.state(i)[1] for i in range(basis.dim)]))
    projs = tuple(
        OperatorMatrix(f"Pi_{s}", P) for s, P in enumerate(build_projectors(K, k))
    )
    return AlgebraRep(
        spec, basis, F,
        OperatorMatrix("Xm", Xm), OperatorMatrix("Xp", Xp),
        OperatorMatrix("N", N), OperatorMatrix("K", K), projs,
    )


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
    Xm: np.ndarray,
    Xp: np.ndarray,
    N: np.ndarray,
    K: np.ndarray,
    projectors,
    margin: int,
) -> dict[str, float]:
    """Windowed residuals of the five defining relations.

    Shared by the graded Fock construction and the tensor-product one, which
    use the same (sector, level) index layout.
    """
    P = window_projector(basis, margin)
    q = primitive_root(basis.k)
    rhs = sum(
        (sector_weight_diagonal(spec, basis, s) @ projectors[s] for s in range(basis.k)),
        start=np.zeros_like(Xm),
    )
    eye = np.eye(basis.dim, dtype=complex)
    return {
        "ladder_commutator": window_residual(Xm @ Xp - Xp @ Xm, rhs, P),
        "number_ladder": max(
            window_residual(N @ Xm - Xm @ N, -Xm, P),
            window_residual(N @ Xp - Xp @ N, Xp, P),
        ),
        "grading_ladder": max(
            window_residual(K @ Xm, (1 / q) * (Xm @ K), P),
            window_residual(K @ Xp, q * (Xp @ K), P),
        ),
        "grading_number": window_residual(K @ N, N @ K, P),
        "grading_cyclic": window_residual(np.linalg.matrix_power(K, basis.k), eye, P),
    }


def sector_weight_diagonal(spec: StructureSpec, basis: GradedBasis, s: int) -> np.ndarray:
    """Diagonal f_s(N): entry f_s(n) at every state |n, .>."""
    vals = np.array([spec.f(s, n) for n in range(basis.d)], dtype=complex)
    return np.diag(np.tile(vals, basis.k))


def verify_wk_relations(rep: AlgebraRep, margin: int, tolerance: float = 1e-10) -> list[ReportEntry]:
    """Check all five defining relations of the representation."""
    residuals = algebra_relation_residuals(
        rep.spec, rep.basis, rep.Xm.mat, rep.Xp.mat, rep.N.mat, rep.K.mat,
        [p.mat for p in rep.projectors], margin,
    )
    win = window_description(rep.basis, margin)
    return [
        ReportEntry.check(f"algebra.{key}", _RELATION_STATEMENTS[key], val, tolerance, win)
        for key, val in residuals.items()
    ]
