"""Tensor-product realization: one k-fermion pair times one deformed boson mode.

The ladder operators are assembled on the (d-level boson) x (k-grade fermion)
space as

    X- = A sum_s b(s)- Pf_s,   X+ = A^(k-1) sum_s b(s+1)+ Pf_s,
    A  = f- + f+^(k-1) / [k-1]_q!,   K = 1 (x) [f-, f+],   N = N_b (x) 1,

with Pf_s the projector onto fermion grade s and b(s)-|m> = sqrt(F_s(m)) |m-1>,
b(s)+ its adjoint, where F is the graded structure function of the Fock
construction.  Pf_s keeps grade s alone, so each sum is one broadcast
product: the boson weights on the (grade, level) table times the grade
weights of A or A^(k-1).  Those boson weights are the graded X-+'s own:
sum_s b(s)- Pf_s is X-'s table and sum_s b(s+1)+ Pf_s is X+'s, so the
tensor takes them from the graded construction rather than from F again.

Why the pair's basis is free: the k-fermion relations [f-, f+]_q = 1,
f-^k = f+^k = 0 and [f-, f+] = q^N are polynomials in f-+, so they hold for
S f-+ S^(-1) with any invertible diagonal S, and A, formed from f-+ alone,
becomes S A S^(-1), which leaves the tensor's relations and spectra as they
were.  The textbook pair (f+ the unit raising shift, f-|t> = [t]_q |t-1>)
conjugated by S = diag([t]_q!) is the pair built here: f-|t> = |t-1> and
f+|t> = [t+1]_q |t+1>, 0 at t = 0 and t = k-1 respectively.  Its
f+^(k-1) / [k-1]_q! has the one column |0> -> |k-1> of weight
[1]_q ... [k-1]_q / [k-1]_q! = 1, the (k-1)-th power of f+ [N+1]_q^(-1),
whose weights are [t+1]_q / [t+1]_q; so [k-1]_q!, which overflows float64
from k = 204 on, is never formed.  A is then the unit cyclic shift: it maps
grade t to t-1 with weight a_t = 1 for every t, A^k = 1, and
A^(k-1) = A^(-1) maps t to t+1 with weight 1.  On |m> (x) |t> therefore

    X+ X- = sqrt(F_t(m))^2 = F_t(m),   X- X+ = sqrt(F_(t+1)(m+1))^2 = F_(t+1)(m+1),

and the coupled recursion F_(t+1)(m+1) - F_t(m) = f_t(m) gives
[X-, X+] = sum_t f_t(N) Pf_t, the graded relation.  That is why X+ on grade t
uses b(t+1)+, the ladder of its target grade.  The boson weights are the
graded route's; what this route checks independently is the fermion
algebra: A and A^(k-1), formed from f- and f+ alone, and [f-, f+] through K.

Every operator is a graded shift, the fermions on k grades of one level,
and the whole realization is an AlgebraRep on the graded basis: |m> (x) |t>
is the state |m, t> of level m in sector t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import RepresentationError
from .fock import EIGENVALUE_MULTISET, FULL_GRADE_SPACE, FULL_SPACE
from .qarith import q_numbers, roots
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
        """A = f- + (f+ [N+1]_q^(-1))^(k-1), the unit shift from grade t to
        t-1 mod k; A^k = 1."""
        # [N+1]_q is the diagonal f- f+, and it is divided only where f+ is
        # nonzero: at the top grade both are 0
        fp, step = self.fp.weight, np.zeros_like(self.fp.weight)
        np.divide(fp, (self.fm @ self.fp).weight, out=step, where=fp != 0)
        return _frozen(self.fm + Shift(0, 1, step) ** (self.k - 1))

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
        # the nilpotency on the supports of the factors: f+^k itself forms
        # [k-1]_q! before its 0 at the top grade and overflows from k = 204 on
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
    """k-fermions f-|t> = |t-1> and f+|t> = [t+1]_q |t+1> (``qarith.q_numbers``),
    built once per order; every array is read-only.  [f-, f+]_q = 1 and
    [f-, f+] = diag(q^t) hold.  As shifts on the cyclic grades, f- holds
    weight 0 at t = 0 and f+ at t = k-1, exactly, where [k]_q is 0 only up to
    round-off."""
    fm = Shift(0, -1, (np.arange(k) > 0).astype(complex)[:, None])
    fp = Shift(0, 1, np.append(q_numbers(k)[1:k], 0)[:, None])
    return KFermionPair(k, *map(_frozen, (fm, fp, fm @ fp - fp @ fm)))


def build_tensor_realization(pair: KFermionPair, rep: AlgebraRep) -> AlgebraRep:
    """The operators of the module docstring on rep's graded basis, levels times grades."""
    basis, k = rep.basis, pair.k
    if basis.k != k:
        raise RepresentationError(f"graded space has order {basis.k}, fermion pair {k}")
    # the boson weights sqrt(F_s(m)) of b(s)- and sqrt(F_(s+1)(m+1)) of
    # b(s+1)+ at [s, m] are the graded X-+'s own; A and A^(k-1) step the
    # grade by -1 and +1, and their (k, 1) grade weights broadcast over the d levels
    Xm = Shift(-1, -1, rep.Xm.weight * pair.A.weight)
    Xp = Shift(1, 1, rep.Xp.weight * pair.Ak1.weight)
    # 1 (x) K_f repeats each grade's value over its d levels; N_b (x) 1 is the
    # graded N itself
    K = Shift.diag(np.broadcast_to(pair.Kf.weight, rep.F.shape))
    return AlgebraRep(rep.spec, basis, rep.F, Xm, Xp, rep.N, K)


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
