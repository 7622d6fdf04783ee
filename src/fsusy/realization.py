"""Tensor-product realization: one k-fermion pair times one deformed boson mode.

The ladder operators are assembled on the (d-level boson) x (k-grade fermion)
space as

    X- = A sum_s b(s)- Pf_s,   X+ = A^(k-1) sum_s b(s+1)+ Pf_s,
    A  = f- + f+^(k-1) / [k-1]_q!,   K = 1 (x) [f-, f+],   N = N_b (x) 1,

with Pf_s the fermion-grade projectors resolved from [f-, f+] and
b(s)-|m> = sqrt(F_s(m)) |m-1>, b(s)+ its adjoint, where F is the graded
structure function of the Fock construction.

Why this closes the algebra: A maps grade t to t-1 with weight a_t
(a_t = [t]_q for t >= 1, a_0 = 1/[k-1]_q!).  The a_t multiply to 1 around
the cycle, so A^k = 1 and A^(k-1) = A^(-1) maps t to t+1 with weight
1/a_(t+1).  On |m> (x) |t> therefore

    X+ X- = (sqrt(F_t(m)) a_t) (sqrt(F_t(m)) / a_t)                 = F_t(m),
    X- X+ = (sqrt(F_(t+1)(m+1)) / a_(t+1)) (sqrt(F_(t+1)(m+1)) a_(t+1)) = F_(t+1)(m+1),

and the coupled recursion F_(t+1)(m+1) - F_t(m) = f_t(m) gives
[X-, X+] = sum_t f_t(N) Pf_t, the graded relation.  That is why X+ on grade t
uses b(t+1)+, the ladder of its target grade.  The weights are shared with
the graded route; what this route checks independently is the fermion
algebra: A, A^(k-1) and the Pf_s resolved from [f-, f+].

Every operator, the k x k fermions included, is a ColumnMap; on the whole
space |m> (x) |t> sits at t*d + m, the graded layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrderError, RepresentationError
from .fock import StructureFunction
from .qarith import primitive_root, q_factorial, q_number
from .report import ReportEntry
from .wkalg import (
    _RELATION_STATEMENTS,
    AlgebraRep,
    ColumnMap,
    algebra_relation_residuals,
    build_projectors,
    residual,
    window_description,
)


@dataclass(frozen=True)
class KFermionPair:
    """Operators of one k-fermion pair on the k grades and their commutator grading."""

    k: int
    fm: ColumnMap
    fp: ColumnMap
    Kf: ColumnMap


@dataclass(frozen=True)
class TensorRealization:
    """Ladder, grading, number and sector operators on the boson x fermion space.

    Index layout: |m> (x) |t> sits at t*d + m, the graded layout.
    ``projectors`` holds 1 (x) Pf_s for every grade s.
    """

    k: int
    d: int
    Xm: ColumnMap
    Xp: ColumnMap
    K: ColumnMap
    N: ColumnMap
    projectors: tuple[ColumnMap, ...]


def build_kfermion_pair(k: int) -> KFermionPair:
    """k-fermions with f+ the unit shift and f- carrying the [t]_q weights.

    f+|t> = |t+1> (dying at the top), f-|t> = [t]_q |t-1>, so both
    [f-, f+]_q = 1 and [f-, f+] = diag(q^t) hold.
    """
    if k < 2:
        raise InvalidOrderError(f"cyclic order must be at least 2, got {k}")
    q = primitive_root(k)
    t = np.arange(k)
    fp = ColumnMap(np.where(t < k - 1, t + 1, -1), (t < k - 1).astype(complex))
    fm = ColumnMap(t - 1, np.array([q_number(int(j), q) for j in t]))
    return KFermionPair(k, fm, fp, fm @ fp - fp @ fm)


def cyclic_lowering(pair: KFermionPair) -> ColumnMap:
    """A = f- + f+^(k-1) / [k-1]_q!, mapping grade t to t-1 mod k; A^k = 1."""
    k = pair.k
    return pair.fm + (1 / q_factorial(k - 1, primitive_root(k))) * pair.fp ** (k - 1)


def verify_kfermions(pair: KFermionPair, strict: float = 1e-12) -> list[ReportEntry]:
    k, fm, fp = pair.k, pair.fm, pair.fp
    q = primitive_root(k)
    zero = ColumnMap.diag(np.zeros(k))
    entries = [
        ReportEntry.check(
            "kfermion.q_commutator", "f- f+ - q f+ f- = 1",
            residual(fm @ fp - q * (fp @ fm), ColumnMap.diag(np.ones(k))),
            strict, "full grade space"),
        ReportEntry.exact(
            "kfermion.nilpotency", "f-^k = 0 and f+^k = 0",
            max(residual(fm ** k, zero), residual(fp ** k, zero))),
        # [f-, f+] is diagonal, so its diagonal is its eigenvalue multiset
        ReportEntry.check(
            "kfermion.grading_spectrum",
            "[f-, f+] has eigenvalue multiset {q^t : t = 0..k-1}",
            residual(pair.Kf, ColumnMap.diag(q ** np.arange(k))),
            strict, "eigenvalue multiset"),
    ]
    if k == 2:
        entries.append(ReportEntry.exact(
            "kfermion.pair_adjoint", "for order 2 the pair is mutually adjoint",
            residual(fp, fm.adjoint())))
    return entries


def _kron(b: ColumnMap, f: ColumnMap) -> ColumnMap:
    """b (x) f for a boson operator b and a fermion operator f, in the graded layout."""
    d = b.dim
    m, t = np.arange(f.dim * d) % d, np.arange(f.dim * d) // d
    empty = (b.target[m] < 0) | (f.target[t] < 0)
    return ColumnMap(np.where(empty, -1, f.target[t] * d + b.target[m]), b.weight[m] * f.weight[t])


def build_tensor_realization(pair: KFermionPair, F: StructureFunction) -> TensorRealization:
    """The operators of the module docstring on F's d levels times the pair's k grades."""
    k, d = pair.k, F.d
    if F.k != k:
        raise RepresentationError(f"structure function has order {F.k}, fermion pair {k}")
    one = ColumnMap.diag(np.ones(d))
    Pf = [ColumnMap.diag(P) for P in build_projectors(pair.Kf.diagonal(), k)]
    # b(s)- lowers level m to m-1; F_s(0) = 0 leaves level 0 empty
    bm = [ColumnMap(np.arange(d) - 1, np.sqrt(np.maximum(F.values[s, :d], 0.0)).astype(complex))
          for s in range(k)]
    zero = ColumnMap.diag(np.zeros(k * d))
    A = cyclic_lowering(pair)
    Ak1 = A ** (k - 1)
    # A and A^(k-1) act on the fermions only, so X- = sum_s b(s)- (x) A Pf_s
    Xm = sum((_kron(bm[s], A @ Pf[s]) for s in range(k)), start=zero)
    Xp = sum((_kron(bm[(s + 1) % k].adjoint(), Ak1 @ Pf[s]) for s in range(k)), start=zero)
    N = _kron(ColumnMap.diag(np.arange(d)), ColumnMap.diag(np.ones(k)))
    projectors = tuple(_kron(one, P) for P in Pf)
    return TensorRealization(k, d, Xm, Xp, _kron(one, pair.Kf), N, projectors)


def compare_realizations(
    tensor: TensorRealization,
    rep: AlgebraRep,
    margin: int,
    tolerance: float = 1e-10,
) -> list[ReportEntry]:
    """Check the tensor operators against the defining relations and compare
    spectra with the graded Fock construction."""
    k, d = tensor.k, tensor.d
    if (k, d) != (rep.basis.k, rep.basis.d):
        raise RepresentationError(
            f"tensor space is {k} x {d}, graded space is {rep.basis.k} x {rep.basis.d}"
        )
    residuals = algebra_relation_residuals(
        rep.spec, rep.basis, tensor.Xm, tensor.Xp, tensor.N, tensor.K, tensor.projectors, margin)
    win = window_description(rep.basis, margin)
    entries = [
        ReportEntry.check(f"tensor.{key}", _RELATION_STATEMENTS[key], val, tolerance, win)
        for key, val in residuals.items()
    ]
    # both products are diagonal, so their diagonals are their spectra, real
    # up to round-off; sorted, the i-th smallest of one pairs with the i-th
    # smallest of the other
    spectra = [ColumnMap.diag(np.sort((Xp @ Xm).diagonal()))
               for Xp, Xm in ((tensor.Xp, tensor.Xm), (rep.Xp, rep.Xm))]
    entries.append(ReportEntry.check(
        "tensor.spectral_distance",
        "eigenvalues of X+ X- agree between the tensor and graded constructions",
        residual(*spectra), tolerance, "eigenvalue multiset"))
    return entries
