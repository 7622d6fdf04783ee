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
from .wkalg import (
    OperatorMatrix,
    sector_selector,
    window_description,
    window_projector,
    window_residual,
)


@dataclass(frozen=True)
class ReplicaDoublet:
    """One ordinary SUSY replica: shift operators, charges and Hamiltonian."""

    s: int
    Xsm: OperatorMatrix
    Xsp: OperatorMatrix
    qm: OperatorMatrix
    qp: OperatorMatrix
    h: OperatorMatrix


def build_shift_operators(
    doublet: FsusyDoublet, s: int, slack: int = 0
) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Factorize partner ladder s into lowering/raising shift operators.

    Negative H_s(n) admits no real square root.  Within the top ``slack``
    levels such values are truncation junk and the corresponding terms are
    dropped; anywhere else they abort with the offending (s, n).
    """
    basis = doublet.rep.basis
    k, d = basis.k, basis.d
    if not 2 <= s <= k:
        raise FsusyError(f"replica index {s} outside 2..{k}")
    Xsm = np.zeros((basis.dim, basis.dim), dtype=complex)
    for n in range(1, d):
        v = doublet.partner(s, n)
        if v < -NONNEG_TOL:
            if n > d - 1 - slack:
                continue
            raise FactorizationError(s, n, v)
        Xsm[basis.index(n - 1, s - 1), basis.index(n, s)] = np.sqrt(max(v, 0.0))
    return (
        OperatorMatrix(f"X{s}m", Xsm),
        OperatorMatrix(f"X{s}p", Xsm.conj().T),
    )


def build_replica(doublet: FsusyDoublet, s: int, slack: int = 0) -> ReplicaDoublet:
    Xsm, Xsp = build_shift_operators(doublet, s, slack)
    basis = doublet.rep.basis
    lo = sector_selector(basis, s - 1)
    hi = sector_selector(basis, s)
    qm = Xsm.mat @ hi
    qp = Xsp.mat @ lo
    h = Xsm.mat @ Xsp.mat @ lo + Xsp.mat @ Xsm.mat @ hi
    return ReplicaDoublet(
        s, Xsm, Xsp,
        OperatorMatrix(f"q{s}m", qm), OperatorMatrix(f"q{s}p", qp),
        OperatorMatrix(f"h{s}", h),
    )


def verify_replica(
    rd: ReplicaDoublet,
    doublet: FsusyDoublet,
    margin: int,
    tolerance: float = 1e-10,
    strict: float = 1e-12,
) -> list[ReportEntry]:
    """Check the ordinary SUSY axioms and both factorization identities."""
    basis = doublet.rep.basis
    s, d = rd.s, basis.d
    P = window_projector(basis, margin)
    win = window_description(basis, margin)
    qm, qp, h = rd.qm.mat, rd.qp.mat, rd.h.mat
    entries = []

    nil = max(np.linalg.norm(qm @ qm), np.linalg.norm(qp @ qp))
    entries.append(ReportEntry.exact(
        f"replica{s}.nilpotency", "q- q- = 0 and q+ q+ = 0", nil))
    entries.append(ReportEntry.exact(
        f"replica{s}.pair_adjoint", "q+ is the conjugate transpose of q-",
        np.linalg.norm(qp - qm.conj().T)))
    entries.append(ReportEntry.exact(
        f"replica{s}.anticommutator", "h = q- q+ + q+ q-",
        np.linalg.norm(h - (qm @ qp + qp @ qm))))
    entries.append(ReportEntry.check(
        f"replica{s}.hamiltonian_commutes", "[h, q-] = 0 and [h, q+] = 0",
        max(np.linalg.norm(h @ qm - qm @ h), np.linalg.norm(h @ qp - qp @ h)),
        strict, "full space"))

    # product identity: X(s)- X(s)+ = H_s(N+1) on sector s-1
    lo_window = P @ sector_selector(basis, s - 1)
    shifted = np.zeros(basis.dim, dtype=complex)
    for n in range(d - 1):
        shifted[basis.index(n, s - 1)] = doublet.partner(s, n + 1)
    entries.append(ReportEntry.check(
        f"replica{s}.shift_product",
        "X(s)- X(s)+ equals the partner ladder shifted one level down, on sector s-1",
        window_residual(rd.Xsm.mat @ rd.Xsp.mat, np.diag(shifted), lo_window),
        tolerance, win + f", sector {s - 1}"))

    # diagonal identity: h = H_(s-1) Pi_(s-1) + H_s Pi_s away from the
    # omitted ground level |0, s> (its expected entry is zero by construction)
    expected = np.zeros(basis.dim, dtype=complex)
    for n in range(d):
        expected[basis.index(n, s - 1)] = doublet.partner(s - 1, n)
        expected[basis.index(n, s)] = doublet.partner(s, n)
    expected[basis.index(0, s)] = 0.0
    dev = np.abs((rd.h.mat - np.diag(expected)) @ P).max()
    entries.append(ReportEntry.check(
        f"replica{s}.partner_diagonal",
        "h carries the two partner ladders on its pair of sectors and vanishes elsewhere",
        dev, strict, win + f", omitting ground level of sector {s % basis.k}"))

    # intertwining: H_(s-1) X(s)- = X(s)- H_s and H_s X(s)+ = X(s)+ H_(s-1)
    Dlo = doublet.partner_diagonal(s - 1)
    Dhi = doublet.partner_diagonal(s)
    inter = max(
        window_residual(Dlo @ rd.Xsm.mat, rd.Xsm.mat @ Dhi, P),
        window_residual(Dhi @ rd.Xsp.mat, rd.Xsp.mat @ Dlo, P),
    )
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
    dev = 0.0
    for s in range(2, doublet.k + 1):
        for n in range(1, top + 1):
            dev = max(dev, abs(doublet.partner(s - 1, n - 1) - doublet.partner(s, n)))
    return ReportEntry.check(
        "partners.level_shift",
        "adjacent partner ladders agree after a one-level shift (wrap pair exempt)",
        dev, tolerance, f"levels 1 <= n <= {top}, absolute deviation",
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
    rhs = replicas[2].qm.mat @ replicas[2].qp.mat
    for s in range(2, k + 1):
        rhs = rhs + replicas[s].qp.mat @ replicas[s].qm.mat
    P = window_projector(basis, margin)
    for s in range(2, k + 1):
        P[basis.index(0, s % k), basis.index(0, s % k)] = 0.0
    return ReportEntry.check(
        name, statement,
        window_residual(doublet.H.mat, rhs, P),
        tolerance,
        window_description(basis, margin) + ", omitting replica ground levels",
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
    basis = doublet.rep.basis
    P = window_projector(basis, margin)
    dev = np.abs((rd.h.mat - doublet.H.mat) @ P).max()
    return ReportEntry.check(
        "reduction.total_hamiltonian",
        "for order 2 the replica Hamiltonian h(2) equals H entrywise",
        dev, strict, window_description(basis, margin),
    )
