"""Ordinary SUSY replicas carved out of an order-k doublet.

For each s = 2 .. k the shift operators

    X(s)- = sum_{n=1..d-1} sqrt(H_s(n)) |n-1, s-1><n, s|
    X(s)+ = conjugate transpose of X(s)-

factorize the partner ladder modulo the omitted ground level |0, s>, and

    q(s)- = X(s)- Pi_s,   q(s)+ = X(s)+ Pi_(s-1),
    h(s)  = X(s)- X(s)+ Pi_(s-1) + X(s)+ X(s)- Pi_s

is an ordinary (k = 2 style) supersymmetric doublet.  Partner energies are
tied level to level by H_(s-1)(n-1) = H_s(n); the wrap-around pair
(s = 1 against s = k) obeys no such identity and is deliberately not checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError, FsusyError
from .fock import NONNEG_TOL
from .report import ReportEntry
from .system import FsusyDoublet
from .wkalg import ColumnMap, residual


@dataclass(frozen=True)
class ReplicaDoublet:
    """One ordinary SUSY replica: shift operators, charges and Hamiltonian."""

    s: int
    Xsm: ColumnMap
    Xsp: ColumnMap
    qm: ColumnMap
    qp: ColumnMap
    h: ColumnMap


def build_shift_operators(
    doublet: FsusyDoublet, s: int, slack: int = 0
) -> tuple[ColumnMap, ColumnMap]:
    """Factorize partner ladder s into lowering/raising shift operators.

    Negative H_s(n) admits no real square root.  Within the top ``slack``
    levels such values are truncation junk and the corresponding terms are
    dropped; anywhere else they abort with the offending (s, n).
    """
    basis = doublet.rep.basis
    k, d = basis.k, basis.d
    if not 2 <= s <= k:
        raise FsusyError(f"replica index {s} outside 2..{k}")
    n = np.arange(1, d)
    v = doublet.partners[s - 1, 1:]
    negative = v < -NONNEG_TOL
    refused = np.flatnonzero(negative & (n <= d - 1 - slack))
    if refused.size:
        first = refused[0]
        raise FactorizationError(s, int(n[first]), float(v[first]))
    # the remaining negative values sit in the top slack levels and are dropped
    keep = n[~negative]
    target = np.full(basis.dim, -1)
    weight = np.zeros(basis.dim, dtype=complex)
    cols = basis.index(keep, s)
    target[cols] = basis.index(keep - 1, s - 1)
    weight[cols] = np.sqrt(np.maximum(v[keep - 1], 0.0))
    Xsm = ColumnMap(target, weight)
    return Xsm, Xsm.adjoint()


def build_replica(doublet: FsusyDoublet, s: int, slack: int = 0) -> ReplicaDoublet:
    Xsm, Xsp = build_shift_operators(doublet, s, slack)
    basis = doublet.rep.basis
    lo, hi = basis.sector_mask(s - 1), basis.sector_mask(s)
    h = (Xsm @ Xsp).masked(lo) + (Xsp @ Xsm).masked(hi)
    return ReplicaDoublet(s, Xsm, Xsp, Xsm.masked(hi), Xsp.masked(lo), h)


def verify_replica(
    rd: ReplicaDoublet,
    doublet: FsusyDoublet,
    margin: int,
    tolerance: float = 1e-10,
    strict: float = 1e-12,
) -> list[ReportEntry]:
    """Check the ordinary SUSY axioms and both factorization identities."""
    basis = doublet.rep.basis
    s = rd.s
    P, win = basis.window(margin)
    qm, qp, h = rd.qm, rd.qp, rd.h
    zero = ColumnMap.diag(np.zeros(basis.dim))
    entries = []

    nil = max(residual(qm @ qm, zero), residual(qp @ qp, zero))
    entries.append(ReportEntry.exact(
        f"replica{s}.nilpotency", "q- q- = 0 and q+ q+ = 0", nil))
    entries.append(ReportEntry.exact(
        f"replica{s}.pair_adjoint", "q+ is the conjugate transpose of q-",
        residual(qp, qm.adjoint())))
    entries.append(ReportEntry.exact(
        f"replica{s}.anticommutator", "h = q- q+ + q+ q-",
        residual(h, qm @ qp + qp @ qm)))
    entries.append(ReportEntry.check(
        f"replica{s}.hamiltonian_commutes", "[h, q-] = 0 and [h, q+] = 0",
        max(residual(h @ qm, qm @ h), residual(h @ qp, qp @ h)),
        strict, "full space"))

    # product identity: X(s)- X(s)+ = H_s(N+1) on sector s-1
    shifted = ColumnMap.diag(np.append(doublet.partners[s - 1, 1:], 0.0)[basis.level])
    entries.append(ReportEntry.check(
        f"replica{s}.shift_product",
        "X(s)- X(s)+ equals the partner ladder shifted one level down, on sector s-1",
        residual(rd.Xsm @ rd.Xsp, shifted, P & basis.sector_mask(s - 1)),
        tolerance, win + f", sector {s - 1}"))

    # diagonal identity: h = H_(s-1) Pi_(s-1) + H_s Pi_s away from the
    # omitted ground level |0, s> (its expected entry is zero by construction)
    lo, hi = basis.sector_mask(s - 1), basis.sector_mask(s)
    hi[basis.index(0, s)] = False
    expected = doublet.partner_diagonal(s - 1).masked(lo) + doublet.partner_diagonal(s).masked(hi)
    entries.append(ReportEntry.check(
        f"replica{s}.partner_diagonal",
        "h carries the two partner ladders on its pair of sectors and vanishes elsewhere",
        residual(h, expected, P), strict,
        win + f", omitting ground level of sector {s % basis.k}"))

    # intertwining: H_(s-1) X(s)- = X(s)- H_s and H_s X(s)+ = X(s)+ H_(s-1)
    Dlo = doublet.partner_diagonal(s - 1)
    Dhi = doublet.partner_diagonal(s)
    inter = max(residual(Dlo @ rd.Xsm, rd.Xsm @ Dhi, P), residual(Dhi @ rd.Xsp, rd.Xsp @ Dlo, P))
    entries.append(ReportEntry.check(
        f"replica{s}.intertwining",
        "the shift operators intertwine adjacent partner ladders",
        inter, strict, win))
    return entries


def check_isospectrality(
    doublet: FsusyDoublet, margin: int, tolerance: float = 1e-10
) -> ReportEntry:
    """Level-shift identity H_(s-1)(n-1) = H_s(n) for s = 2 .. k.

    Stated on values rather than eigenvalue multisets because truncation and
    the omitted ground levels fray the edges of a multiset comparison.
    """
    top = doublet.d - 1 - margin
    # H_(s-1)(n-1) against H_s(n), s = 2 .. k and n = 1 .. top
    lower = ColumnMap.diag(doublet.partners[:-1, :top].ravel())
    upper = ColumnMap.diag(doublet.partners[1:, 1:top + 1].ravel())
    return ReportEntry.check(
        "partners.level_shift",
        "adjacent partner ladders agree after a one-level shift (wrap pair exempt)",
        residual(lower, upper), tolerance, f"levels 1 <= n <= {top}",
    )


def verify_sum_identity(
    doublet: FsusyDoublet,
    replicas: dict[int, ReplicaDoublet],
    margin: int,
    tolerance: float = 1e-10,
) -> ReportEntry:
    """Reassemble H from the replica charges:

        H = q(2)- q(2)+ + sum_{s=2..k} q(s)+ q(s)-

    checked away from the k-1 omitted ground levels, whose energies the
    right-hand side cannot see.  Without every replica the sum cannot be
    formed, and the entry fails naming the missing ones.
    """
    basis = doublet.rep.basis
    k = basis.k
    name = "fsusy.charge_sum"
    statement = "H equals q(2)- q(2)+ plus the sum of q(s)+ q(s)- over all replicas"
    missing = [s for s in range(2, k + 1) if s not in replicas]
    if missing:
        return ReportEntry.failure(
            name, statement, f"replicas {missing} could not be factorized")
    rhs = replicas[2].qm @ replicas[2].qp
    for s in range(2, k + 1):
        rhs = rhs + replicas[s].qp @ replicas[s].qm
    P, win = basis.window(margin)
    for s in range(2, k + 1):
        P[basis.index(0, s)] = False
    return ReportEntry.check(
        name, statement, residual(doublet.H, rhs, P), tolerance,
        win + ", omitting replica ground levels",
    )


def k2_reduction_entry(
    doublet: FsusyDoublet,
    rd: ReplicaDoublet,
    margin: int,
    strict: float = 1e-12,
) -> ReportEntry:
    """For k = 2 the single replica reproduces H entrywise."""
    if doublet.k != 2 or rd.s != 2:
        raise FsusyError("the reduction check applies to the k = 2 replica only")
    P, win = doublet.rep.basis.window(margin)
    return ReportEntry.check(
        "reduction.total_hamiltonian",
        "for order 2 the replica Hamiltonian h(2) equals H entrywise",
        residual(rd.h, doublet.H, P), strict, win,
    )
