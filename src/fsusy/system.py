"""Order-k supersymmetric doublet: supercharges, Hamiltonian and partners.

The supercharges

    Q- = X- (1 - Pi_1),    Q+ = X+ (1 - Pi_0)

are nilpotent of order k, and the Hamiltonian is assembled as

    H = (k-1) X+ X- - sum_{s=3..k} sum_{t=2..s-1} (t-1) f_t(N-s+t) Pi_s
                    - sum_{s=1..k-1} sum_{t=s..k-1} (t-k) f_t(N-s+t) Pi_s

with Pi_k read as Pi_0.  H is diagonal in the graded basis; its diagonal in
sector s is the partner energy ladder H_s(n), which this module also
evaluates in closed form so that the two routes can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import RepresentationError
from .fock import FULL_SPACE, Columns, StructureSpec
from .wkalg import AlgebraRep, Shift, _grading, score


@dataclass(frozen=True)
class FsusyDoublet:
    """A Hamiltonian with its order-k supercharges and partner table.

    ``partners[s - 1, n]`` holds H_s(n) for partner index s = 1 .. k; the
    index s = k belongs to sector 0.
    """

    rep: AlgebraRep
    Qm: Shift
    Qp: Shift
    H: Shift
    partners: np.ndarray

    @property
    def k(self) -> int:
        return self.rep.basis.k

    @property
    def d(self) -> int:
        return self.rep.basis.d


def build_hamiltonian_operator(rep: AlgebraRep) -> Shift:
    """Assemble H term by term from its defining expression.

    Every term after (k-1) X+ X- is a diagonal; each is formed on its own,
    from f_t evaluated once per t, and subtracted on the (sector, level)
    table in the order of the expression, as ((c f_t(n + t - s)) Pi_s).
    """
    basis, spec = rep.basis, rep.spec
    k, d = basis.k, basis.d
    H = (k - 1) * (rep.Xp @ rep.Xm).weight
    terms = chain(((s, t, t - 1) for s in range(3, k + 1) for t in range(2, s)),
                  ((s, t, t - k) for s in range(1, k) for t in range(s, k)))
    # f_t once per t, on the levels n + t - s its terms read: t - k .. t + d - 2,
    # and 0 .. d - 1 for f_1, which s = 1 alone reads
    low = {t: t - k if t > 1 else 0 for t in range(1, k)}
    f = {t: spec.f(t, np.arange(lo, t + d - 1)).astype(complex) for t, lo in low.items()}
    # the Fourier table, whose round-off in the exported H perfbench/reference.json pins
    projectors = _grading(k)[1]
    for s, t, c in terms:
        start = t - s - low[t]
        H -= c * f[t][start:start + d] * projectors[s % k][:, None]
    return Shift.diag(H)


def partner_value(spec: StructureSpec, F: np.ndarray, s: int, n: int) -> float:
    """Closed-form partner energy H_s(n) for partner index 1 <= s <= k and
    level n of the (k, d) table F.

    H_s(n) = (k-1) F_s(n) - sum_{t=2..k-1} (t-1) f_t(n-s+t)
                          + (k-1) sum_{t=s..k-1} f_t(n-s+t)

    with F_s read at sector s mod k.
    """
    k, d = F.shape
    if not 1 <= s <= k:
        raise ValueError(f"partner index {s} outside 1..{k}")
    if not 0 <= n < d:
        raise ValueError(f"level {n} outside 0..{d - 1}")
    # explicit left-to-right sums from 0.0: sum() of floats is compensated
    # from Python 3.12 on, which would round differently
    mid = 0.0
    for t in range(2, k):
        mid += (t - 1) * spec.f(t, n - s + t)
    tail = 0.0
    for t in range(s, k):
        tail += spec.f(t, n - s + t)
    return (k - 1) * float(F[s % k, n]) - mid + (k - 1) * tail


def partner_table(spec: StructureSpec, F: np.ndarray) -> np.ndarray:
    """partner_value at every partner index s = 1 .. k (rows) and level n < d
    of the (k, d) table F.

    Each term is added in partner_value's order, from a 0.0 start as its
    sums make, so the table equals the closed form bit for bit.
    """
    k, d = F.shape
    s = np.arange(1, k + 1)[:, None]
    n = np.arange(d)
    mid, tail = np.zeros((k, d)), np.zeros((k, d))
    # f_t enters the tail of rows s <= t only; f_1 that of s = 1 alone
    tail[0] += spec.f(1, n)
    for t in range(2, k):
        ft = spec.f(t, n - s + t)
        mid += (t - 1) * ft
        tail[:t] += ft[:t]
    return (k - 1) * F[s[:, 0] % k] - mid + (k - 1) * tail


def build_doublet(rep: AlgebraRep) -> FsusyDoublet:
    """Supercharges, H and the partner table; a partner energy that is not
    finite is refused at its first (s, n) in row order, before H is built."""
    partners = partner_table(rep.spec, rep.F)
    bad = np.argwhere(~np.isfinite(partners))
    if bad.size:
        s, n = bad[0]
        raise RepresentationError(f"H_{s + 1}({n}) = {partners[s, n]} is not finite; "
                                  "the partner energies overflow float64")
    # Q- = X- (1 - Pi_1) and Q+ = X+ (1 - Pi_0) with exact 0/1 sector masks,
    # which keep the order-k nilpotency exact in floating point
    sector = np.arange(rep.basis.k)[:, None]
    return FsusyDoublet(rep, rep.Xm.masked(sector != 1), rep.Xp.masked(sector != 0),
                        build_hamiltonian_operator(rep), partners)


def verify_fsusy(doublet: FsusyDoublet, window: Columns) -> dict:
    """Records of nilpotency, the order-k multilinear relation, [H, Q+-] = 0
    and diag(H) against the partner formula.

    The sum S_m = sum_{j<m} Q-^(m-1-j) Q+ Q-^j of m ordered products obeys
    S_1 = Q+ and S_(m+1) = Q- S_m + Q+ Q-^m: Q- raises each term's first power
    by one, and Q+ Q-^m is the new term j = m.  So S_k, the multilinear sum,
    needs only S_m and the running power Q-^m, which passes Q-^(k-2).
    Q-^k and Q+^k are decided on the supports of their factors.  H from
    operator assembly and the closed-form partner energies evaluate
    independent expressions; their agreement pins the sector convention of
    the closed form.
    """
    k = doublet.k
    Qm, Qp, H = doublet.Qm, doublet.Qp, doublet.H
    total, power, rhs = Qp, Qm, H
    for m in range(1, k):
        power = power @ Qm if m > 1 else power
        rhs = power @ H if m == k - 2 else rhs
        total = Qm @ total + Qp @ power
    zero = Shift.diag(np.zeros((k, doublet.d)))
    # partner-table prediction: H_s(n) at |n, s mod k>, so sector 0 reads row k - 1
    expected = Shift.diag(doublet.partners[np.arange(k) - 1])
    return {
        "fsusy.nilpotency": (score((Q.support() ** k, zero) for Q in (Qm, Qp)), FULL_SPACE),
        "fsusy.multilinear": (score([(total, rhs)], window.mask), window),
        "fsusy.hamiltonian_commutes": (
            score(((H @ Q, Q @ H) for Q in (Qm, Qp)), window.mask), window),
        "fsusy.partner_diagonal": (score([(H, expected)]), FULL_SPACE),
    }
