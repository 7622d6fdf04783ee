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

import numpy as np

from .fock import StructureFunction, StructureSpec
from .report import ReportEntry
from .wkalg import (
    AlgebraRep,
    ColumnMap,
    residual,
    sector_mask,
    weight_diagonal,
    window_description,
    window_mask,
)


@dataclass(frozen=True)
class FsusyDoublet:
    """A Hamiltonian with its order-k supercharges and partner table.

    ``partners[s - 1, n]`` holds H_s(n) for partner index s = 1 .. k; the
    index s = k belongs to sector 0.
    """

    rep: AlgebraRep
    Qm: ColumnMap
    Qp: ColumnMap
    H: ColumnMap
    partners: np.ndarray

    @property
    def k(self) -> int:
        return self.rep.basis.k

    @property
    def d(self) -> int:
        return self.rep.basis.d

    def partner(self, s: int, n: int) -> float:
        if not 1 <= s <= self.k:
            raise ValueError(f"partner index {s} outside 1..{self.k}")
        return float(self.partners[s - 1, n])

    def partner_diagonal(self, s: int) -> ColumnMap:
        """H_s(N) as a full-space diagonal: value H_s(n) at every |n, .>."""
        return ColumnMap.diag(np.tile(self.partners[s - 1], self.k))


def build_supercharges(rep: AlgebraRep) -> tuple[ColumnMap, ColumnMap]:
    # exact 0/1 masks equal right-multiplication by (1 - Pi_s) and keep the
    # order-k nilpotency exact in floating point
    return (
        rep.Xm.masked(~sector_mask(rep.basis, 1)),
        rep.Xp.masked(~sector_mask(rep.basis, 0)),
    )


def build_hamiltonian_operator(rep: AlgebraRep) -> ColumnMap:
    """Assemble H term by term from its defining expression."""
    basis, spec = rep.basis, rep.spec
    k = basis.k
    H = (k - 1) * (rep.Xp @ rep.Xm)
    for s in range(3, k + 1):
        for t in range(2, s):
            H -= (t - 1) * weight_diagonal(spec, basis, t, t - s) @ rep.projector(s)
    for s in range(1, k):
        for t in range(s, k):
            H -= (t - k) * weight_diagonal(spec, basis, t, t - s) @ rep.projector(s)
    return H


def partner_value(spec: StructureSpec, F: StructureFunction, s: int, n: int) -> float:
    """Closed-form partner energy H_s(n) for partner index 1 <= s <= k.

    H_s(n) = (k-1) F_s(n) - sum_{t=2..k-1} (t-1) f_t(n-s+t)
                          + (k-1) sum_{t=s..k-1} f_t(n-s+t)

    with F_s read at sector s mod k.
    """
    k = spec.k
    if not 1 <= s <= k:
        raise ValueError(f"partner index {s} outside 1..{k}")
    base = (k - 1) * F.value(s % k, n)
    mid = sum((t - 1) * spec.f(t, n - s + t) for t in range(2, k))
    tail = (k - 1) * sum(spec.f(t, n - s + t) for t in range(s, k))
    return base - mid + tail


def build_doublet(rep: AlgebraRep) -> FsusyDoublet:
    Qm, Qp = build_supercharges(rep)
    H = build_hamiltonian_operator(rep)
    d = rep.basis.d
    partners = np.array(
        [[partner_value(rep.spec, rep.F, s, n) for n in range(d)]
         for s in range(1, rep.basis.k + 1)]
    )
    return FsusyDoublet(rep, Qm, Qp, H, partners)


def verify_fsusy(
    doublet: FsusyDoublet,
    margin: int,
    tolerance: float = 1e-10,
    strict: float = 1e-12,
) -> list[ReportEntry]:
    """Check nilpotency, the order-k multilinear relation and [H, Q+-] = 0."""
    basis = doublet.rep.basis
    k = basis.k
    P = window_mask(basis, margin)
    win = window_description(basis, margin)
    Qm, Qp, H = doublet.Qm, doublet.Qp, doublet.H

    zero = ColumnMap.diag(np.zeros(basis.dim))
    nil = max(residual(Qm ** k, zero), residual(Qp ** k, zero))
    terms = [Qm ** (k - 1 - j) @ Qp @ Qm ** j for j in range(k)]
    multilinear = residual(sum(terms[1:], start=terms[0]), Qm ** (k - 2) @ H, P)
    commutation = max(residual(H @ Qm, Qm @ H, P), residual(H @ Qp, Qp @ H, P))
    return [
        ReportEntry.exact(
            "fsusy.nilpotency", "Q-^k = 0 and Q+^k = 0", nil),
        ReportEntry.check(
            "fsusy.multilinear",
            "the k ordered products Q-^(k-1-j) Q+ Q-^j sum to Q-^(k-2) H",
            multilinear, tolerance, win),
        ReportEntry.check(
            "fsusy.hamiltonian_commutes", "[H, Q-] = 0 and [H, Q+] = 0",
            commutation, strict, win),
    ]


def partner_consistency_entry(doublet: FsusyDoublet, strict: float = 1e-12) -> ReportEntry:
    """Compare diag(H) from operator assembly against the partner formula.

    The two routes evaluate independent expressions; their agreement pins the
    sector convention of the closed form.
    """
    # partner-table prediction: H_s(n) at |n, s mod k>
    expected = ColumnMap.diag(np.roll(doublet.partners, 1, axis=0).ravel())
    return ReportEntry.check(
        "fsusy.partner_diagonal",
        "H is diagonal and its diagonal matches the closed-form partner energies",
        residual(doublet.H, expected), strict, "full space",
    )
