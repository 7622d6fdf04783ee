"""Tensor-product realization: one k-fermion pair times one deformed boson mode.

The ladder operators are assembled on the (d-level boson) x (k-grade fermion)
space as

    X- = A sum_s b(s)- Pf_s,   X+ = A^(k-1) sum_s b(s)+ Pf_s,
    A  = f- + f+^(k-1) / [k-1]_q!,   K = 1 (x) [f-, f+],   N = N_b (x) 1,

with Pf_s the fermion-grade projectors carved out of [f-, f+].  Each deformed
boson pair solves the same-sector recursion G_s(m+1) - G_s(m) = f_s(m) on its
own.  The k-fermion matrices are dense k x k; the operators on the whole
space are column maps in the graded layout.  The comparison against the
graded Fock construction reports whether this convention reproduces the
defining relations; for k >= 3 it decides nothing by itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpaceError,
    InvalidOrderError,
    RepresentationError,
)
from .fock import NONNEG_TOL, StructureSpec
from .qarith import primitive_root, q_factorial, q_number
from .report import ReportEntry
from .wkalg import (
    _RELATION_STATEMENTS,
    AlgebraRep,
    ColumnMap,
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

    Index layout: |m> (x) |t> sits at t*d + m, the graded layout.  ``bosons``
    holds each sector's pair (b(s)-, b(s)+) on the d boson levels.
    """

    k: int
    d: int
    fermions: KFermionPair
    bosons: tuple[tuple[ColumnMap, ColumnMap], ...]
    Xm: ColumnMap
    Xp: ColumnMap
    K: ColumnMap
    N: ColumnMap


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
        # [f-, f+] is diagonal, so its diagonal is its eigenvalue multiset
        ReportEntry.check(
            "kfermion.grading_spectrum",
            "[f-, f+] has eigenvalue multiset {q^t : t = 0..k-1}",
            np.abs(pair.Kf - np.diag(q ** np.arange(k))).max(),
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
    Pf = [np.diag(P) for P in build_projectors(np.diag(pair.Kf), k)]
    G = boson_weights(spec, d)
    m, t = np.arange(k * d) % d, np.arange(k * d) // d
    bosons = []
    wm = np.zeros(k * d, dtype=complex)
    wp = np.zeros(k * d, dtype=complex)
    for s in range(k):
        # b(s)- lowers level m to m-1; G_s(0) = 0 leaves level 0 empty
        bm = ColumnMap(np.arange(d) - 1, np.sqrt(np.maximum(G[s], 0.0)).astype(complex))
        bp = bm.adjoint()
        bosons.append((bm, bp))
        # A maps grade t to t-1 and A^(k-1) maps it to t+1, both mod k
        wm += bm.weight[m] * (A @ Pf[s])[(t - 1) % k, t]
        wp += bp.weight[m] * (Ak1 @ Pf[s])[(t + 1) % k, t]
    Xm = ColumnMap(np.where(m > 0, (t - 1) % k * d + m - 1, -1), wm)
    Xp = ColumnMap(np.where(m < d - 1, (t + 1) % k * d + m + 1, -1), wp)
    K = ColumnMap.diag(np.diag(pair.Kf)[t])
    N = ColumnMap.diag(m)
    return TensorRealization(k, d, pair, tuple(bosons), Xm, Xp, K, N)


def spectral_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest gap between two spectra, real up to round-off, paired in sorted order.

    On the real line the i-th smallest of one spectrum is paired with the
    i-th smallest of the other, the pairing with the least largest gap.
    """
    return float(np.abs(np.sort(a) - np.sort(b)).max())


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
    # Pi_s = 1 (x) Pf_s
    projectors = [ColumnMap.diag(np.repeat(P, d))
                  for P in build_projectors(np.diag(tensor.fermions.Kf), k)]
    residuals = algebra_relation_residuals(
        rep.spec, rep.basis, tensor.Xm, tensor.Xp, tensor.N, tensor.K, projectors, margin)
    win = window_description(rep.basis, margin)
    entries = [
        ReportEntry.check(f"tensor.{key}", _RELATION_STATEMENTS[key], val,
                          tolerance, win, informative=informative)
        for key, val in residuals.items()
    ]

    # the graded window above already refused a margin that leaves no levels
    top = d - 1 - margin
    W = np.arange(d) <= top
    dev = 0.0
    for s, (bm, bp) in enumerate(tensor.bosons):
        expected = ColumnMap.diag([rep.spec.f(s, m) for m in range(d)])
        dev = max(dev, window_residual(bm @ bp - bp @ bm, expected, W))
    entries.append(ReportEntry.check(
        "tensor.boson_commutator", "[b(s)-, b(s)+] = f_s(N_b) for every sector",
        dev, tolerance, f"boson levels m <= {top}", informative=informative))

    entries.append(ReportEntry.check(
        "tensor.spectral_distance",
        "eigenvalues of X+ X- agree between the tensor and graded constructions",
        spectral_distance((tensor.Xp @ tensor.Xm).diagonal(), (rep.Xp @ rep.Xm).diagonal()),
        tolerance, "eigenvalue multiset", informative=True))
    return entries
