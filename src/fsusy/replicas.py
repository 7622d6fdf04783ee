"""Ordinary SUSY replicas carved out of an order-k doublet.

For each s = 2 .. k the shift operators

    X(s)- = sum_{n=1..d-1} sqrt(H_s(n)) |n-1, s-1><n, s|
    X(s)+ = conjugate transpose of X(s)-

factorize the partner ladder modulo the omitted ground level |0, s>, and

    q(s)- = X(s)- Pi_s,   q(s)+ = X(s)+ Pi_(s-1),
    h(s)  = X(s)- X(s)+ Pi_(s-1) + X(s)+ X(s)- Pi_s

is an ordinary (k = 2 style) supersymmetric doublet.  X(s)- has columns in
sector s alone and X(s)+ in sector s-1 alone, so the projectors keep every
column and q(s)-+ = X(s)-+: the replicas hold X(s)-+ and h(s) only.
Partner energies are tied level to level by H_(s-1)(n-1) = H_s(n); the
wrap-around pair (s = 1 against s = k) obeys no such identity and is
deliberately not checked.

``build_replicas`` factorizes every ladder at once and keeps each refusal
with its reason; ``verify_replicas`` makes every record of the construction
in report order, so the rules of the split (which replicas were refused,
that the charge sum needs them all, that k = 2 reduces to H) live here alone.
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

    Each of the fields Xsm, Xsp and h is one graded shift on an
    (m, 2, d) table for m replicas: replica ``order[i]`` = s is block i, with
    grade 0 its sector s-1 and grade 1 its sector s mod k, so a product never
    leaves its replica.  With no replica built the tables are empty.
    ``refused`` holds, by s, the reason each unbuilt replica was refused.

    Iterating runs over the built s in ascending order; ``lift`` gives one
    field of one replica on the full space.
    """

    basis: GradedBasis
    order: tuple[int, ...]
    Xsm: Shift
    Xsp: Shift
    h: Shift
    refused: dict[int, FactorizationError]

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


def build_replicas(doublet: FsusyDoublet, slack: int = 0) -> ReplicaBlocks:
    """Factorize every partner ladder s = 2 .. k at once: the replicas on
    their stacked sector pairs, with the refused ones by s.

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
    return ReplicaBlocks(basis, tuple(int(r) + 2 for r in built), Xsm, Xsp, h, refused)


def verify_replicas(blocks: ReplicaBlocks, doublet: FsusyDoublet, window: Columns) -> dict:
    """Every record of the replica construction, in report order: the level
    shift of the partner ladders; for each s = 2 .. k the ordinary SUSY axioms
    and both factorization identities of replica s, or its refusal; the
    charge sum; and, at k = 2, the reduction h(2) = H.

    Each identity is evaluated once on the stacked replicas; each replica's
    residual over its own columns of the stack equals its full-space one.
    """
    basis = doublet.rep.basis
    k, d = basis.k, basis.d
    partners = doublet.partners
    # H_(s-1)(n-1) = H_s(n) for s = 2 .. k and n = 1 .. top, stated on values
    # rather than eigenvalue multisets, whose edges truncation and the
    # omitted ground levels fray
    top = int(np.flatnonzero(window.mask)[-1])
    records = {"partners.level_shift": (
        score([(Shift.diag(partners[:-1, :top]), Shift.diag(partners[1:, 1:top + 1]))]),
        Columns(None, f"levels 1 <= n <= {top}"))}

    # on the (m, 2, d) stack the window's level mask broadcasts as it is, and
    # sector s-1 is each replica's lower grade
    lower = (np.arange(2) == 0)[:, None]
    # the q-identities are scored on X(s)-+: X(s)- has columns in sector s
    # alone and X(s)+ in sector s-1 alone, so q(s)- = X(s)- Pi_s and
    # q(s)+ = X(s)+ Pi_(s-1) are X(s)-+ themselves
    Xsm, Xsp, h = blocks.Xsm, blocks.Xsp, blocks.h
    zero = Shift.diag(np.zeros(h.weight.shape))
    # the two partner ladders of each replica: H_(s-1) on sector s-1 and
    # H_s on sector s, as rows s-2 and s-1 of the partner table
    order = np.array(blocks.order, dtype=int)
    D = Shift.diag(partners[np.stack([order - 2, order - 1], axis=1)])
    # H_s(n + 1) on both sectors of replica s, 0 at the top level
    up = np.append(partners[order - 1, 1:], np.zeros((order.size, 1)), axis=1)

    # H = q(2)- q(2)+ + sum_{s=2..k} q(s)+ q(s)-, from the products the
    # anticommutator forms: q(s)+ q(s)- lives on sector s, the upper grade of
    # every replica, and q(2)- q(2)+ on sector 1, the lower grade of the
    # first block.  It is checked away from the k-1 omitted ground levels,
    # whose energies the right-hand side cannot see, and cannot be formed
    # without every replica
    qmqp, qpqm = Xsm @ Xsp, Xsp @ Xsm
    anticommutator = score([(h, qmqp + qpqm)])
    if blocks.refused:
        charge_sum = FsusyError(f"replicas {sorted(blocks.refused)} could not be factorized")
    else:
        rhs = np.zeros((k, d), dtype=complex)
        rhs[order % k] = qpqm.weight[:, 1]
        rhs[1] = qmqp.weight[0, 0]
        kept = window.narrow((np.arange(d) > 0) | (np.arange(k) == 1)[:, None],
                             "omitting replica ground levels")
        charge_sum = (score([(doublet.H, Shift.diag(rhs))], kept.mask), kept)
        del rhs
    del qmqp, qpqm

    # each identity's products live only while it is scored; the
    # nilpotency is decided on the supports of the factors
    residuals = {
        "nilpotency": score((q @ q, zero) for q in (Xsm.support(), Xsp.support())),
        "pair_adjoint": score([(Xsp, Xsm.adjoint())]),
        "anticommutator": anticommutator,
        "hamiltonian_commutes": score(((h @ q, q @ h) for q in (Xsm, Xsp))),
        "shift_product": score(
            [(Xsm @ Xsp, Shift.diag(np.broadcast_to(up[:, None], h.weight.shape)))],
            window.mask & lower),
        "partner_diagonal": score(
            [(h, D.masked(lower | (np.arange(d) > 0)))], window.mask),
        "intertwining": score(((D @ X, X @ D) for X in (Xsm, Xsp)), window.mask),
    }
    block = {s: i for i, s in enumerate(blocks.order)}
    for s in range(2, k + 1):
        if s in blocks.refused:
            records[f"replica{s}.factorization"] = blocks.refused[s]
            continue
        # each replica's column set of every identity, on the graded basis;
        # only its text is reported
        columns = {"shift_product": window.narrow(None, f"sector {s - 1}"),
                   "partner_diagonal": window.narrow(
                       None, f"omitting ground level of sector {s % k}"),
                   "intertwining": window}
        records.update((f"replica{s}.{key}", (val[block[s]], columns.get(key, FULL_SPACE)))
                       for key, val in residuals.items())
    records["fsusy.charge_sum"] = charge_sum
    if k == 2:
        # H_2 = F_0 >= -NONNEG_TOL on every built level, so replica 2 is
        # never refused, and its h on the full space is H entrywise
        records["reduction.total_hamiltonian"] = (
            score([(blocks.lift("h", 2), doublet.H)], window.mask), window)
    return records
