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
from .fock import FULL_SPACE, NONNEG_TOL, Columns, GradedBasis
from .system import FsusyDoublet
from .wkalg import Shift, score


@dataclass(frozen=True)
class ReplicaBlocks:
    """Every built replica side by side on the direct sum of their sector pairs.

    Each of the fields Xsm, Xsp, qm, qp and h is one graded shift on an
    (m, 2, d) table for m replicas: replica ``order[i]`` = s is block i, with
    grade 0 its sector s-1 and grade 1 its sector s mod k, so a product never
    leaves its replica.  With no replica built the tables are empty.

    Iterating runs over the built s in ascending order; ``lift`` gives one
    field of one replica on the full space.
    """

    basis: GradedBasis
    order: tuple[int, ...]
    Xsm: Shift
    Xsp: Shift
    qm: Shift
    qp: Shift
    h: Shift

    def lift(self, name: str, s: int) -> Shift:
        """Field ``name`` of replica s on the full space, formed on each call;
        an s that was not built raises KeyError."""
        if s not in self.order:
            raise KeyError(s)
        block = getattr(self, name)
        weight = np.zeros((self.basis.k, self.basis.d), dtype=complex)
        weight[[s - 1, s % self.basis.k]] = block.weight[self.order.index(s)]
        # the steps of the stack are the replica's steps on the full space
        return Shift(block.dn, block.ds, weight)

    def __iter__(self):
        return iter(self.order)


def build_replicas(
    doublet: FsusyDoublet, slack: int = 0
) -> tuple[ReplicaBlocks, dict[int, FactorizationError]]:
    """Factorize every partner ladder s = 2 .. k at once: the replicas on
    their stacked sector pairs, and the refused ones by s.

    Negative H_s(n) admits no real square root.  Within the top ``slack``
    levels such values are truncation junk and their terms are dropped;
    anywhere else the replica is refused at its first offending (s, n).
    """
    basis = doublet.rep.basis
    d = basis.d
    n = np.arange(1, d)
    # H_s(n) at [s - 2, n - 1]
    v = doublet.partners[1:, 1:]
    negative = v < -NONNEG_TOL
    offending = negative & (n <= d - 1 - slack)
    refused = {}
    for row in np.flatnonzero(offending.any(axis=1)):
        first = np.argmax(offending[row])
        refused[int(row) + 2] = FactorizationError(int(row) + 2, int(n[first]), float(v[row, first]))
    built = np.flatnonzero(~offending.any(axis=1))
    m = built.size
    # X(s)- sends |n, s>, grade 1 of block i, to |n-1, s-1>, its grade 0; the
    # negative values left sit in the top slack levels and are dropped
    weight = np.zeros((m, 2, d), dtype=complex)
    weight[:, 1, 1:] = np.where(~negative[built], np.sqrt(np.maximum(v[built], 0.0)), 0.0)
    Xsm = Shift(-1, -1, weight)
    Xsp = Xsm.adjoint()
    high = (np.arange(2) == 1)[:, None]
    h = (Xsm @ Xsp).masked(~high) + (Xsp @ Xsm).masked(high)
    blocks = ReplicaBlocks(basis, tuple(int(r) + 2 for r in built),
                           Xsm, Xsp, Xsm.masked(high), Xsp.masked(~high), h)
    return blocks, refused


def verify_replicas(
    blocks: ReplicaBlocks, doublet: FsusyDoublet, window: Columns
) -> dict[int, dict]:
    """Records of the ordinary SUSY axioms and both factorization identities
    of every replica, by s.

    Each identity is evaluated once on the stacked replicas; each replica's
    residual over its own columns of the stack equals its full-space one.
    """
    if not blocks.order:
        return {}
    basis = doublet.rep.basis
    # on the (m, 2, d) stack the window's level mask broadcasts as it is, and
    # sector s-1 is each replica's lower grade
    lower = (np.arange(2) == 0)[:, None]

    Xsm, Xsp, qm, qp, h = blocks.Xsm, blocks.Xsp, blocks.qm, blocks.qp, blocks.h
    zero = Shift.diag(np.zeros(h.weight.shape))

    # the two partner ladders of each replica: H_(s-1) on sector s-1 and
    # H_s on sector s, as rows s-2 and s-1 of the partner table
    order = np.array(blocks.order)
    D = Shift.diag(doublet.partners[np.stack([order - 2, order - 1], axis=1)])
    # H_s(n + 1) on both sectors of replica s, 0 at the top level
    up = np.append(doublet.partners[order - 1, 1:], np.zeros((order.size, 1)), axis=1)

    # each identity's products live only while it is scored; the
    # nilpotency is decided on the supports of the factors
    residuals = {
        "nilpotency": score((q @ q, zero) for q in (qm.support(), qp.support())),
        "pair_adjoint": score([(qp, qm.adjoint())]),
        "anticommutator": score([(h, qm @ qp + qp @ qm)]),
        "hamiltonian_commutes": score(((h @ q, q @ h) for q in (qm, qp))),
        "shift_product": score(
            [(Xsm @ Xsp, Shift.diag(np.broadcast_to(up[:, None], h.weight.shape)))],
            window.mask & lower),
        "partner_diagonal": score(
            [(h, D.masked(lower | (np.arange(basis.d) > 0)))], window.mask),
        "intertwining": score(((D @ X, X @ D) for X in (Xsm, Xsp)), window.mask),
    }
    records = {}
    for i, s in enumerate(blocks.order):
        # each replica's column set of every identity, on the graded basis;
        # only its text is reported
        columns = {"shift_product": window.narrow(None, f"sector {s - 1}"),
                   "partner_diagonal": window.narrow(
                       None, f"omitting ground level of sector {s % basis.k}"),
                   "intertwining": window}
        records[s] = {f"replica{s}.{key}": (val[i], columns.get(key, FULL_SPACE))
                      for key, val in residuals.items()}
    return records


def check_isospectrality(doublet: FsusyDoublet, window: Columns) -> dict:
    """Level-shift identity H_(s-1)(n-1) = H_s(n) for s = 2 .. k.

    Stated on values rather than eigenvalue multisets because truncation and
    the omitted ground levels fray the edges of a multiset comparison.
    """
    top = int(np.flatnonzero(window.mask)[-1])
    # H_(s-1)(n-1) against H_s(n), s = 2 .. k and n = 1 .. top
    lower = Shift.diag(doublet.partners[:-1, :top])
    upper = Shift.diag(doublet.partners[1:, 1:top + 1])
    return {"partners.level_shift": (score([(lower, upper)]),
                                      Columns(None, f"levels 1 <= n <= {top}"))}


def verify_sum_identity(doublet: FsusyDoublet, blocks: ReplicaBlocks, window: Columns) -> dict:
    """Reassemble H from the replica charges:

        H = q(2)- q(2)+ + sum_{s=2..k} q(s)+ q(s)-

    checked away from the k-1 omitted ground levels, whose energies the
    right-hand side cannot see.  Without every replica the sum cannot be
    formed, and the record is the error naming the missing ones.
    """
    basis = doublet.rep.basis
    missing = [s for s in range(2, basis.k + 1) if s not in blocks.order]
    if missing:
        return {"fsusy.charge_sum": FsusyError(f"replicas {missing} could not be factorized")}
    # q(s)+ q(s)- lives on sector s and q(2)- q(2)+ on sector 1, so each
    # column of the sum takes one block product: the upper sector of every
    # replica and the lower sector of replica 2, the first block
    rhs = np.zeros((basis.k, basis.d), dtype=complex)
    rhs[np.array(blocks.order) % basis.k] = (blocks.qp @ blocks.qm).weight[:, 1]
    rhs[1] = (blocks.qm @ blocks.qp).weight[0, 0]
    # every column but the ground levels |0, s> of sectors s = 2 .. k
    window = window.narrow((np.arange(basis.d) > 0) | (np.arange(basis.k) == 1)[:, None],
                           "omitting replica ground levels")
    return {"fsusy.charge_sum": (score([(doublet.H, Shift.diag(rhs))], window.mask), window)}


def k2_reduction_entry(doublet: FsusyDoublet, h: Shift, window: Columns) -> dict:
    """For k = 2 the single replica's h, on the full space, reproduces H entrywise."""
    if doublet.k != 2:
        raise FsusyError("the reduction check applies to the k = 2 replica only")
    return {"reduction.total_hamiltonian": (score([(h, doublet.H)], window.mask), window)}
