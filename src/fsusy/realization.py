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

Every operator, the k x k fermions included, is a ColumnMap, and the whole
realization is an AlgebraRep on the graded basis: |m> (x) |t> is the state
|m, t> of level m in sector t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import InvalidOrderError, RepresentationError
from .fock import EIGENVALUE_MULTISET, FULL_GRADE_SPACE, FULL_SPACE, GradedBasis
from .qarith import primitive_root, q_factorial, q_number
from .report import ReportEntry
from .wkalg import AlgebraRep, ColumnMap, Scoring, build_projectors, score


@dataclass(frozen=True)
class KFermionPair:
    """Operators of one k-fermion pair on the k grades and their commutator grading.

    What depends on the pair alone is derived on first use and kept with it:
    the tensor's fermion factors ``A``, ``Ak1`` and ``Pf`` and the residuals
    of its checks.  A pair made by ``dataclasses.replace`` is a new object
    and derives its own.
    """

    k: int
    fm: ColumnMap
    fp: ColumnMap
    Kf: ColumnMap

    @cached_property
    def A(self) -> ColumnMap:
        """A = f- + f+^(k-1) / [k-1]_q!, mapping grade t to t-1 mod k; A^k = 1."""
        k = self.k
        scale = 1 / q_factorial(k - 1, primitive_root(k))
        return _frozen(self.fm + scale * self.fp ** (k - 1))

    @cached_property
    def Ak1(self) -> ColumnMap:
        """A^(k-1) = A^(-1), mapping grade t to t+1 mod k."""
        return _frozen(self.A ** (self.k - 1))

    @cached_property
    def Pf(self) -> np.ndarray:
        """The grade projectors resolved from [f-, f+]: row s the diagonal of Pf_s."""
        Pf = build_projectors(self.Kf.diagonal(), self.k)
        Pf.flags.writeable = False
        return Pf

    @cached_property
    def residuals(self) -> MappingProxyType:
        """Residual of each kfermion.* identity, by the name of its entry."""
        k, fm, fp = self.k, self.fm, self.fp
        q = primitive_root(k)
        zero = ColumnMap.diag(np.zeros(k))
        residuals = {
            "q_commutator": score([(fm @ fp - q * (fp @ fm), ColumnMap.diag(np.ones(k)))]),
            "nilpotency": score([(fm ** k, zero), (fp ** k, zero)]),
            # [f-, f+] is diagonal, so its diagonal is its eigenvalue multiset
            "grading_spectrum": score([(self.Kf, ColumnMap.diag(q ** np.arange(k)))]),
        }
        if k == 2:
            residuals["pair_adjoint"] = score([(fp, fm.adjoint())])
        return MappingProxyType({name: float(val[0]) for name, val in residuals.items()})


def _frozen(op: ColumnMap) -> ColumnMap:
    op.target.flags.writeable = op.weight.flags.writeable = False
    return op


@lru_cache(maxsize=8)
def build_kfermion_pair(k: int) -> KFermionPair:
    """k-fermions with f+ the unit shift and f- carrying the [t]_q weights,
    built once per order; every array is read-only.

    f+|t> = |t+1> (dying at the top), f-|t> = [t]_q |t-1>, so both
    [f-, f+]_q = 1 and [f-, f+] = diag(q^t) hold.
    """
    if k < 2:
        raise InvalidOrderError(f"cyclic order must be at least 2, got {k}")
    q = primitive_root(k)
    t = np.arange(k)
    fp = ColumnMap(np.where(t < k - 1, t + 1, -1), (t < k - 1).astype(complex))
    fm = ColumnMap(t - 1, np.array([q_number(int(j), q) for j in t]))
    return KFermionPair(k, *map(_frozen, (fm, fp, fm @ fp - fp @ fm)))


# the statement and tier of every kfermion.* identity, in report order
_KFERMION_IDENTITIES = {
    "q_commutator": ("f- f+ - q f+ f- = 1", "strict", FULL_GRADE_SPACE),
    "nilpotency": ("f-^k = 0 and f+^k = 0", "exact", FULL_SPACE),
    "grading_spectrum": ("[f-, f+] has eigenvalue multiset {q^t : t = 0..k-1}",
                         "strict", EIGENVALUE_MULTISET),
    "pair_adjoint": ("for order 2 the pair is mutually adjoint", "exact", FULL_SPACE),
}


def verify_kfermions(pair: KFermionPair, scoring: Scoring) -> list[ReportEntry]:
    """The kfermion.* entries of the pair's residuals, scored afresh on every call."""
    entries = []
    for name, residual in pair.residuals.items():
        statement, tier, columns = _KFERMION_IDENTITIES[name]
        entries.append(scoring.entry(f"kfermion.{name}", statement, residual, tier, columns))
    return entries


def _graded_sum(basis: GradedBasis, bosons: np.ndarray, to_level: np.ndarray,
                fermions: np.ndarray, to_grade: np.ndarray) -> ColumnMap:
    """sum_s bosons[s] (x) fermions[s] for boson weights on the d levels
    (rows of a (k, d) array) and fermion weights on the k grades (rows of a
    (k, k) array), filled once per grade block.

    Column |m, t> adds the k products bosons[s, m] * fermions[s, t] to zero
    in order s = 0 .. k-1, as a sum of k Kronecker products would.  Every
    boson sends level m to ``to_level[m]`` and every fermion grade t to
    ``to_grade[t]`` (-1 for none), so each column has one target.
    """
    weight = np.zeros((basis.k, basis.d), dtype=complex)
    for b, f in zip(bosons, fermions, strict=True):
        weight += b * f[:, None]
    to_level, to_grade = to_level[basis.level], to_grade[basis.sector]
    target = np.where((to_level >= 0) & (to_grade >= 0),
                      basis.index(np.maximum(to_level, 0), to_grade), -1)
    return ColumnMap(target, weight[basis.sector, basis.level])


def build_tensor_realization(pair: KFermionPair, rep: AlgebraRep) -> AlgebraRep:
    """The operators of the module docstring on rep's graded basis, levels times grades."""
    basis, k = rep.basis, pair.k
    if basis.k != k:
        raise RepresentationError(f"graded space has order {basis.k}, fermion pair {k}")
    d, F = basis.d, rep.F
    # the diagonal of Pf_s as row s: its value on each grade, which is the sector
    Pf, A, Ak1 = pair.Pf, pair.A, pair.Ak1
    # b(s)- lowers level m to m-1 with weight sqrt(F_s(m)); F_s(0) = 0 leaves
    # level 0 empty.  b(s+1)+ at [s, m] is the adjoint of row s+1: it raises
    # m to m+1 with the conjugate weight of level m+1, where that weight is
    # nonzero
    bm = np.sqrt(np.maximum(F.values[:, :d], 0.0)).astype(complex)
    raised = np.roll(bm, -1, axis=0)[:, 1:]
    bp = np.zeros((k, d), dtype=complex)
    bp[:, :-1] = np.where(raised != 0, raised.conj(), 0)
    up = np.append(np.where((raised != 0).any(axis=0), np.arange(1, d), -1), -1)
    # A Pf_s and A^(k-1) Pf_s keep the targets of A and A^(k-1); X- is
    # sum_s b(s)- (x) A Pf_s
    Xm = _graded_sum(basis, bm, np.arange(d) - 1, A.weight * Pf, A.target)
    Xp = _graded_sum(basis, bp, up, Ak1.weight * Pf, Ak1.target)
    # 1 (x) K_f and 1 (x) Pf_s repeat each grade's value over its d levels;
    # N_b (x) 1 is the graded N itself
    K = ColumnMap.diag(pair.Kf.diagonal()[basis.sector])
    return AlgebraRep(rep.spec, basis, F, Xm, Xp, rep.N, K, Pf)


def compare_realizations(tensor: AlgebraRep, rep: AlgebraRep, scoring: Scoring) -> ReportEntry:
    """Compare the spectra of X+ X- between the tensor and the graded construction.

    Their defining relations are checked together by
    ``wkalg.verify_wk_relations``.
    """
    if tensor.basis != rep.basis:
        raise RepresentationError(
            f"tensor space is {tensor.basis.k} x {tensor.basis.d}, "
            f"graded space is {rep.basis.k} x {rep.basis.d}"
        )
    # both products are diagonal, so their diagonals are their spectra, real
    # up to round-off; sorted, the i-th smallest of one pairs with the i-th
    # smallest of the other
    spectra = [ColumnMap.diag(np.sort((Xp @ Xm).diagonal()))
               for Xp, Xm in ((tensor.Xp, tensor.Xm), (rep.Xp, rep.Xm))]
    return scoring.entry(
        "tensor.spectral_distance",
        "eigenvalues of X+ X- agree between the tensor and graded constructions",
        score([spectra])[0], "windowed", EIGENVALUE_MULTISET)
