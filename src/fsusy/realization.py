"""Tensor-product realization: one k-fermion pair times one deformed boson mode.

The ladder operators are assembled on the (d-level boson) x (k-grade fermion)
space as

    X- = A sum_s b(s)- Pf_s,   X+ = A^(k-1) sum_s b(s)+ Pf_s,
    A  = f- + f+^(k-1) / [k-1]_q!,   K = 1 (x) [f-, f+],   N = N_b (x) 1,

with Pf_s the fermion-grade projectors carved out of [f-, f+].  Each deformed
boson pair solves the same-sector recursion G_s(m+1) - G_s(m) = f_s(m) on its
own.  The comparison against the graded Fock construction reports whether
this convention reproduces the defining relations; for k >= 3 it decides
nothing by itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpaceError,
    InvalidOrderError,
    RepresentationError,
    WindowTooSmallError,
)
from .fock import NONNEG_TOL, GradedBasis, StructureSpec
from .qarith import primitive_root, q_factorial, q_number
from .report import ReportEntry
from .wkalg import (
    _RELATION_STATEMENTS,
    AlgebraRep,
    algebra_relation_residuals,
    build_projectors,
    window_description,
    window_residual,
)


@dataclass(frozen=True)
class KFermionPair:
    """Matrices of one k-fermion pair and their commutator grading."""

    k: int
    fm: np.ndarray
    fp: np.ndarray
    Kf: np.ndarray


@dataclass(frozen=True)
class TensorRealization:
    """Ladder, grading and number operators on the boson x fermion space.

    Index layout: |m> (x) |t| sits at m*k + t (boson level major).
    """

    k: int
    d: int
    fermions: KFermionPair
    bosons: tuple[tuple[np.ndarray, np.ndarray], ...]
    Xm: np.ndarray
    Xp: np.ndarray
    K: np.ndarray
    N: np.ndarray

    @property
    def dim(self) -> int:
        return self.k * self.d


def build_kfermion_pair(k: int) -> KFermionPair:
    """k-fermions with f+ the unit shift and f- carrying the [t]_q weights.

    f+|t> = |t+1> (dying at the top), f-|t> = [t]_q |t-1>, so both
    [f-, f+]_q = 1 and [f-, f+] = diag(q^t) hold.
    """
    if k < 2:
        raise InvalidOrderError(f"cyclic order must be at least 2, got {k}")
    q = primitive_root(k)
    fp = np.zeros((k, k), dtype=complex)
    fm = np.zeros((k, k), dtype=complex)
    for t in range(k - 1):
        fp[t + 1, t] = 1.0
        fm[t, t + 1] = q_number(t + 1, q)
    Kf = fm @ fp - fp @ fm
    return KFermionPair(k, fm, fp, Kf)


def cyclic_lowering(pair: KFermionPair) -> np.ndarray:
    """A = f- + f+^(k-1) / [k-1]_q!, mapping grade t to t-1 mod k; A^k = 1."""
    k = pair.k
    top = np.linalg.matrix_power(pair.fp, k - 1)
    return pair.fm + top / q_factorial(k - 1, primitive_root(k))


def verify_kfermions(pair: KFermionPair, strict: float = 1e-12) -> list[ReportEntry]:
    k = pair.k
    q = primitive_root(k)
    eye = np.eye(k, dtype=complex)
    entries = [
        ReportEntry.check(
            "kfermion.q_commutator", "f- f+ - q f+ f- = 1",
            float(np.linalg.norm(pair.fm @ pair.fp - q * (pair.fp @ pair.fm) - eye)),
            strict, "full grade space"),
        ReportEntry.exact(
            "kfermion.nilpotency", "f-^k = 0 and f+^k = 0",
            max(np.linalg.norm(np.linalg.matrix_power(pair.fm, k)),
                np.linalg.norm(np.linalg.matrix_power(pair.fp, k)))),
        ReportEntry.check(
            "kfermion.grading_spectrum",
            "[f-, f+] has eigenvalue multiset {q^t : t = 0..k-1}",
            spectral_distance(pair.Kf, np.diag(q ** np.arange(k))),
            strict, "eigenvalue multiset"),
    ]
    if k == 2:
        entries.append(ReportEntry.exact(
            "kfermion.pair_adjoint", "for order 2 the pair is mutually adjoint",
            np.linalg.norm(pair.fp - pair.fm.conj().T)))
    return entries


def boson_weights(spec: StructureSpec, d: int) -> np.ndarray:
    """Squared ladder weights G_s(m) of the k deformed boson pairs.

    Each sector solves G_s(m+1) - G_s(m) = f_s(m), G_s(0) = 0, alone.
    """
    steps = np.array([[spec.f(s, m) for m in range(d)] for s in range(spec.k)])
    G = np.zeros((spec.k, d))
    G[:, 1:] = np.cumsum(steps, axis=1)[:, :-1]
    bad = np.argwhere(G < -NONNEG_TOL)
    if bad.size:
        s, m = bad[0]
        raise RepresentationError(
            f"boson weight G_{s}({m}) = {G[s, m]:.6g} is negative; "
            "no real ladder element exists"
        )
    return G


def build_tensor_realization(k: int, d: int, spec: StructureSpec) -> TensorRealization:
    if spec.k != k:
        raise RepresentationError(f"structure spec has order {spec.k}, expected {k}")
    if d < 2:
        raise DegenerateSpaceError(f"need at least 2 boson levels, got {d}")
    pair = build_kfermion_pair(k)
    A = cyclic_lowering(pair)
    Ak1 = np.linalg.matrix_power(A, k - 1)
    Pf = build_projectors(pair.Kf, k)
    G = boson_weights(spec, d)
    bosons = []
    Xm = np.zeros((k * d, k * d), dtype=complex)
    Xp = np.zeros((k * d, k * d), dtype=complex)
    for s in range(k):
        bm = np.zeros((d, d), dtype=complex)
        for m in range(1, d):
            bm[m - 1, m] = np.sqrt(max(G[s, m], 0.0))
        bp = bm.conj().T
        bosons.append((bm, bp))
        Xm += np.kron(bm, A @ Pf[s])
        Xp += np.kron(bp, Ak1 @ Pf[s])
    K = np.kron(np.eye(d, dtype=complex), pair.Kf)
    N = np.kron(np.diag(np.arange(d, dtype=complex)), np.eye(k, dtype=complex))
    return TensorRealization(k, d, pair, tuple(bosons), Xm, Xp, K, N)


def spectral_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Max pair gap under a greedy nearest-first eigenvalue matching.

    Lexicographic sorting would pair conjugate eigenvalues wrongly when their
    real parts tie up to rounding; matching globally nearest pairs first is
    stable for multisets that agree up to small perturbations.
    """
    ea = np.linalg.eigvals(A)
    eb = np.linalg.eigvals(B)
    gaps = np.abs(ea[:, None] - eb[None, :])
    free_a = np.ones(ea.size, dtype=bool)
    free_b = np.ones(eb.size, dtype=bool)
    worst = 0.0
    matched = 0
    for flat in np.argsort(gaps, axis=None):
        i, j = divmod(int(flat), eb.size)
        if not (free_a[i] and free_b[j]):
            continue
        free_a[i] = free_b[j] = False
        worst = max(worst, float(gaps[i, j]))
        matched += 1
        if matched == ea.size:
            break
    return worst


def grade_permutation(k: int, d: int) -> np.ndarray:
    """Permutation from boson-major tensor layout to sector-major graded layout."""
    basis = GradedBasis(k, d)
    R = np.zeros((k * d, k * d), dtype=complex)
    for m in range(d):
        for t in range(k):
            R[basis.index(m, t), m * k + t] = 1.0
    return R


def compare_realizations(
    tensor: TensorRealization,
    rep: AlgebraRep,
    margin: int,
    tolerance: float = 1e-10,
) -> list[ReportEntry]:
    """Check the tensor operators against the defining relations and compare
    spectra with the graded Fock construction.

    Entries are informative for k >= 3 (the deformed boson convention is a
    guess there); the spectral comparison is informative always.
    """
    k, d = tensor.k, tensor.d
    if (k, d) != (rep.basis.k, rep.basis.d):
        raise RepresentationError(
            f"tensor space is {k} x {d}, graded space is {rep.basis.k} x {rep.basis.d}"
        )
    informative = k >= 3
    R = grade_permutation(k, d)
    Xm = R @ tensor.Xm @ R.T
    Xp = R @ tensor.Xp @ R.T
    N = R @ tensor.N @ R.T
    K = R @ tensor.K @ R.T
    residuals = algebra_relation_residuals(
        rep.spec, rep.basis, Xm, Xp, N, K, build_projectors(K, k), margin)
    win = window_description(rep.basis, margin)
    entries = [
        ReportEntry.check(f"tensor.{key}", _RELATION_STATEMENTS[key], val,
                          tolerance, win, informative=informative)
        for key, val in residuals.items()
    ]

    top = d - 1 - margin
    if top < 1:
        raise WindowTooSmallError(
            f"margin {margin} leaves no boson window below the ceiling of {d} levels"
        )
    W = np.diag((np.arange(d) <= top).astype(complex))
    dev = 0.0
    for s, (bm, bp) in enumerate(tensor.bosons):
        expected = np.diag(np.array([rep.spec.f(s, m) for m in range(d)], dtype=complex))
        dev = max(dev, window_residual(bm @ bp - bp @ bm, expected, W))
    entries.append(ReportEntry.check(
        "tensor.boson_commutator", "[b(s)-, b(s)+] = f_s(N_b) for every sector",
        dev, tolerance, f"boson levels m <= {top}", informative=informative))

    entries.append(ReportEntry.check(
        "tensor.spectral_distance",
        "eigenvalues of X+ X- agree between the tensor and graded constructions",
        spectral_distance(Xp @ Xm, rep.Xp.mat @ rep.Xm.mat),
        tolerance, "eigenvalue multiset", informative=True))
    return entries
