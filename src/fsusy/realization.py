"""Tensor-product realization: one k-fermion pair times one deformed boson mode.

The ladder operators are assembled on the (d-level boson) x (k-grade fermion)
space as

    X- = A sum_s b(s)- Pf_s,   X+ = A^(k-1) sum_s b(s+1)+ Pf_s,
    A  = f- + f+^(k-1) / [k-1]_q!,   K = 1 (x) [f-, f+],   N = N_b (x) 1,

with Pf_s the projector onto fermion grade s and b(s)-|m> = sqrt(F_s(m)) |m-1>,
b(s)+ its adjoint, where F is the graded structure function of the Fock
construction.  Pf_s keeps grade s alone, so each sum is one broadcast
product: the boson weights on the (grade, level) table times the grade
weights of A or A^(k-1).

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
algebra: A and A^(k-1), formed from f- and f+ alone, and [f-, f+] through K.

Every operator is a graded shift, the fermions on k grades of one level,
and the whole realization is an AlgebraRep on the graded basis: |m> (x) |t>
is the state |m, t> of level m in sector t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import RepresentationError
from .fock import EIGENVALUE_MULTISET, FULL_GRADE_SPACE, FULL_SPACE
from .qarith import q_factorial, q_numbers, roots
from .wkalg import AlgebraRep, Shift, score


@dataclass(frozen=True)
class KFermionPair:
    """Operators of one k-fermion pair on the k grades and their commutator grading.

    What depends on the pair alone is derived on first use and kept with it:
    the tensor's fermion factors ``A`` and ``Ak1`` and the records
    of its checks.  A pair made by ``dataclasses.replace`` is a new object
    and derives its own.
    """

    k: int
    fm: Shift
    fp: Shift
    Kf: Shift

    @cached_property
    def A(self) -> Shift:
        """A = f- + f+^(k-1) / [k-1]_q!, mapping grade t to t-1 mod k; A^k = 1."""
        k = self.k
        scale = 1 / q_factorial(k - 1, k)
        return _frozen(self.fm + scale * self.fp ** (k - 1))

    @cached_property
    def Ak1(self) -> Shift:
        """A^(k-1) = A^(-1), mapping grade t to t+1 mod k."""
        return _frozen(self.A ** (self.k - 1))

    @cached_property
    def residuals(self) -> MappingProxyType:
        """Record of each kfermion.* identity, residual and columns, by the
        name of its entry."""
        k, fm, fp = self.k, self.fm, self.fp
        q = roots(k)
        zero = Shift.diag(np.zeros((k, 1)))
        # the nilpotency on the supports of the factors: f-^k itself forms
        # [k-1]_q! before [0]_q = 0 and overflows from k = 204 on
        records = {
            "kfermion.q_commutator": (
                score([(fm @ fp - q[1] * (fp @ fm), Shift.diag(np.ones((k, 1))))]), FULL_GRADE_SPACE),
            "kfermion.nilpotency": (score((f.support() ** k, zero) for f in (fm, fp)), FULL_SPACE),
            # [f-, f+] is diagonal, so its diagonal is its eigenvalue multiset
            "kfermion.grading_spectrum": (
                score([(self.Kf, Shift.diag(q[:, None]))]), EIGENVALUE_MULTISET),
        }
        if k == 2:
            records["kfermion.pair_adjoint"] = (score([(fp, fm.adjoint())]), FULL_SPACE)
        return MappingProxyType({name: (float(val), cols) for name, (val, cols) in records.items()})


def _frozen(op: Shift) -> Shift:
    op.weight.flags.writeable = False
    return op


@lru_cache(maxsize=8)
def build_kfermion_pair(k: int) -> KFermionPair:
    """k-fermions with f+ the unit shift and f- carrying the [t]_q weights
    of ``qarith.q_numbers``, built once per order; every array is read-only.

    f+|t> = |t+1> (dying at the top), f-|t> = [t]_q |t-1>, so both
    [f-, f+]_q = 1 and [f-, f+] = diag(q^t) hold.  As shifts on the cyclic
    grades, f+ holds weight 0 at t = k-1 and f- at t = 0.
    """
    fm = Shift(0, -1, q_numbers(k)[:k, None])
    fp = Shift(0, 1, (np.arange(k) < k - 1).astype(complex)[:, None])
    return KFermionPair(k, *map(_frozen, (fm, fp, fm @ fp - fp @ fm)))


def _check_representable(k: int, F: np.ndarray) -> None:
    """Refuse an order whose A, A^(k-1) or X+ (for structure values F) leaves
    float64's normal range, before any is formed: |[k-1]_q!| = k / (2 sin(pi/k))^(k-1),
    as prod_{t=1..k-1} sin(pi t/k) = k / 2^(k-1), so a_0 = 1/[k-1]_q! is
    subnormal from k = 204 on, and X+ holds [k-1]_q! times sqrt(F)."""
    x = (math.log(k) - (k - 1) * math.log(2 * math.sin(math.pi / k))) / math.log(10)
    text = lambda x: f"{10 ** (x % 1):.2g}e{math.floor(x):+03d}"  # 10^x, also beyond float64
    if -x < math.log10(np.finfo(float).tiny):
        raise RepresentationError(f"1/[k-1]_q! = {text(-x)} is below float64's normal range "
                                  f"at k = {k}")
    root = math.sqrt(max(float(F.max()), 0.0))
    if root > 0 and x + math.log10(root) > math.log10(np.finfo(float).max):
        raise RepresentationError(f"[k-1]_q! = {text(x)} times the largest sqrt(F) = "
                                  f"{root:.3g} overflows float64 at k = {k}")


def build_tensor_realization(pair: KFermionPair, rep: AlgebraRep) -> AlgebraRep:
    """The operators of the module docstring on rep's graded basis, levels times grades."""
    basis, k = rep.basis, pair.k
    if basis.k != k:
        raise RepresentationError(f"graded space has order {basis.k}, fermion pair {k}")
    d, F = basis.d, rep.F
    _check_representable(k, F.values[:, :d])
    # b(s)- lowers level m to m-1 with weight sqrt(F_s(m)); F_s(0) = 0 leaves
    # level 0 empty.  b(s+1)+ at [s, m], raising m to m+1, is the adjoint of row s+1
    bm = np.sqrt(np.maximum(F.values[:, :d], 0.0)).astype(complex)
    bp = Shift(-1, -1, bm).adjoint().weight
    # A and A^(k-1) step the grade by -1 and +1, b(s)-+ the level; their
    # (k, 1) grade weights broadcast over the d levels
    Xm = Shift(-1, -1, bm * pair.A.weight)
    Xp = Shift(1, 1, bp * pair.Ak1.weight)
    # 1 (x) K_f repeats each grade's value over its d levels; N_b (x) 1 is the
    # graded N itself
    K = Shift.diag(np.broadcast_to(pair.Kf.weight, (k, d)))
    return AlgebraRep(rep.spec, basis, F, Xm, Xp, rep.N, K)


def compare_realizations(tensor: AlgebraRep, rep: AlgebraRep) -> dict:
    """Record of the spectra of X+ X- compared between the tensor and the
    graded construction.

    Their defining relations are checked together by
    ``wkalg.algebra_relation_residuals``.
    """
    if tensor.basis != rep.basis:
        raise RepresentationError(
            f"tensor space is {tensor.basis.k} x {tensor.basis.d}, "
            f"graded space is {rep.basis.k} x {rep.basis.d}"
        )
    # both products are diagonal, so their diagonals are their spectra, real
    # up to round-off; sorted, the i-th smallest of one pairs with the i-th
    # smallest of the other
    products = [(Xp @ Xm).weight for Xp, Xm in ((tensor.Xp, tensor.Xm), (rep.Xp, rep.Xm))]
    spectra = [Shift.diag(np.sort(w, axis=None).reshape(w.shape)) for w in products]
    return {"tensor.spectral_distance": (score([spectra]), EIGENVALUE_MULTISET)}
