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
from .report import ReportEntry
from .system import FsusyDoublet
from .wkalg import ColumnMap, Scoring, score


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


_FIELDS = ("Xsm", "Xsp", "qm", "qp", "h")


@dataclass(frozen=True)
class ReplicaBlocks:
    """Replica operators gathered onto the direct sum of their sector pairs.

    Replica ``order[i]`` = s holds sectors 2i (its sector s-1) and 2i+1 (its
    sector s mod k) of ``stack``, a graded basis of 2m sectors of d levels
    for m replicas; ``cols`` is the full-space column of every stacked
    column.  ``ops`` maps each gathered field to one block-diagonal column
    map, so a product never leaves its replica and every weight is the
    full-space weight itself.  ``stray[i]`` is the largest deviation of
    replica i's full-space operators from their gathers: nonzero weights off
    its two sectors, or sent off them.  It is 0 for every replica that
    ``build_replica`` makes.
    """

    order: tuple[int, ...]
    stack: GradedBasis
    cols: np.ndarray
    ops: dict[str, ColumnMap]
    stray: np.ndarray

    @classmethod
    def gather(cls, replicas: dict[int, ReplicaDoublet], basis: GradedBasis,
               fields: tuple[str, ...] = _FIELDS) -> ReplicaBlocks:
        order = tuple(sorted(replicas))
        m = len(order)
        stack = GradedBasis(2 * m, basis.d)
        pairs = np.array([(s - 1, s % basis.k) for s in order]).ravel()
        cols = basis.index(stack.level, pairs[stack.sector])
        # stacked sector 2i of each column's replica, and that replica's two sectors
        first = stack.sector & ~1
        low_sector, high_sector = pairs[first], pairs[first + 1]
        stray = np.zeros(m)
        ops = {}
        for name in fields:
            full = [getattr(replicas[s], name) for s in order]
            target = np.concatenate([op.target[c] for op, c in zip(full, cols.reshape(m, -1))])
            weight = np.concatenate([op.weight[c] for op, c in zip(full, cols.reshape(m, -1))])
            to = np.maximum(target, 0)
            high = basis.sector[to] == high_sector
            inside = (target >= 0) & (high | (basis.sector[to] == low_sector))
            block = ColumnMap(np.where(inside, stack.index(basis.level[to], first + high), -1),
                              np.where(inside, weight, 0.0))
            # a weight off the pair, or sent off it, is missing from the gather
            if sum(np.count_nonzero(op.weight) for op in full) != np.count_nonzero(block.weight):
                for i, op in enumerate(full):
                    back = _scatter(block, cols, stack.sector // 2 == i, basis)
                    stray[i] = np.maximum(stray[i], score([(op, back)])[0])
            ops[name] = block
        return cls(order, stack, cols, ops, stray)


def _scatter(block: ColumnMap, cols: np.ndarray, take: np.ndarray, basis: GradedBasis) -> ColumnMap:
    """The stacked columns ``take`` of a block-diagonal map, back on the full space."""
    own = np.flatnonzero(take)
    to = block.target[own]
    target = np.full(basis.dim, -1)
    weight = np.zeros(basis.dim, dtype=complex)
    target[cols[own]] = np.where(to >= 0, cols[np.maximum(to, 0)], -1)
    weight[cols[own]] = block.weight[own]
    return ColumnMap(target, weight)


# the statement and tier of every replica identity
_IDENTITIES = {
    "nilpotency": ("q- q- = 0 and q+ q+ = 0", "exact"),
    "pair_adjoint": ("q+ is the conjugate transpose of q-", "exact"),
    "anticommutator": ("h = q- q+ + q+ q-", "exact"),
    "hamiltonian_commutes": ("[h, q-] = 0 and [h, q+] = 0", "strict"),
    # X(s)- X(s)+ = H_s(N+1) on sector s-1
    "shift_product": ("X(s)- X(s)+ equals the partner ladder shifted one level down, "
                      "on sector s-1", "windowed"),
    # h = H_(s-1) Pi_(s-1) + H_s Pi_s, with 0 expected at the omitted |0, s>
    "partner_diagonal": ("h carries the two partner ladders on its pair of sectors and "
                         "vanishes elsewhere", "strict"),
    # H_(s-1) X(s)- = X(s)- H_s and H_s X(s)+ = X(s)+ H_(s-1)
    "intertwining": ("the shift operators intertwine adjacent partner ladders", "strict"),
}


def verify_replicas(
    replicas: dict[int, ReplicaDoublet], doublet: FsusyDoublet, scoring: Scoring
) -> dict[int, list[ReportEntry]]:
    """Check the ordinary SUSY axioms and both factorization identities of
    every replica, by s.

    Each identity is evaluated once, on the block-diagonal gather of all
    replicas; each replica's residual over its own columns of the graded
    basis equals its full-space one, and a stray weight
    (``ReplicaBlocks.stray``) fails every entry of its replica.
    """
    if not replicas:
        return {}
    basis = doublet.rep.basis
    blocks = ReplicaBlocks.gather(replicas, basis)
    stack, m = blocks.stack, len(blocks.order)
    window = basis.window(scoring.margin)
    # each replica's column set of every identity, on the graded basis
    columns = {s: dict(dict.fromkeys(_IDENTITIES, FULL_SPACE), intertwining=window,
                       shift_product=window.narrow(basis.sector_mask(s - 1), f"sector {s - 1}"),
                       partner_diagonal=window.narrow(
                           None, f"omitting ground level of sector {s % basis.k}"))
               for s in blocks.order}

    def on_stack(key):
        return np.concatenate([columns[s][key].mask[c]
                               for s, c in zip(blocks.order, blocks.cols.reshape(m, -1))])

    Xsm, Xsp, qm, qp, h = (blocks.ops[name] for name in _FIELDS)
    lower = stack.sector % 2 == 0
    zero = ColumnMap.diag(np.zeros(stack.dim))

    # the two partner ladders of each replica: H_(s-1) on sector s-1 and
    # H_s on sector s, as rows s-2 and s-1 of the partner table
    rows = np.array([(s - 2, s - 1) for s in blocks.order]).ravel()
    D = ColumnMap.diag(doublet.partners[rows[stack.sector], stack.level])
    # H_s(n + 1) on sector s-1, 0 at the top level
    up = np.append(doublet.partners[:, 1:], np.zeros((basis.k, 1)), axis=1)

    # each identity's products live only while it is scored
    residuals = {
        "nilpotency": score(((q @ q, zero) for q in (qm, qp)), None, m),
        "pair_adjoint": score([(qp, qm.adjoint())], None, m),
        "anticommutator": score([(h, qm @ qp + qp @ qm)], None, m),
        "hamiltonian_commutes": score(((h @ q, q @ h) for q in (qm, qp)), None, m),
        "shift_product": score(
            [(Xsm @ Xsp, ColumnMap.diag(up[rows[stack.sector | 1], stack.level]))],
            on_stack("shift_product"), m),
        "partner_diagonal": score(
            [(h, D.masked(lower | (stack.level > 0)))], on_stack("partner_diagonal"), m),
        "intertwining": score(((D @ X, X @ D) for X in (Xsm, Xsp)), on_stack("intertwining"), m),
    }
    return {
        s: [scoring.entry(f"replica{s}.{key}", statement,
                          np.maximum(residuals[key][i], blocks.stray[i]), tier, columns[s][key])
            for key, (statement, tier) in _IDENTITIES.items()]
        for i, s in enumerate(blocks.order)
    }


def check_isospectrality(doublet: FsusyDoublet, scoring: Scoring) -> ReportEntry:
    """Level-shift identity H_(s-1)(n-1) = H_s(n) for s = 2 .. k.

    Stated on values rather than eigenvalue multisets because truncation and
    the omitted ground levels fray the edges of a multiset comparison.
    """
    top = doublet.d - 1 - scoring.margin
    # H_(s-1)(n-1) against H_s(n), s = 2 .. k and n = 1 .. top
    lower = ColumnMap.diag(doublet.partners[:-1, :top].ravel())
    upper = ColumnMap.diag(doublet.partners[1:, 1:top + 1].ravel())
    return scoring.entry(
        "partners.level_shift",
        "adjacent partner ladders agree after a one-level shift (wrap pair exempt)",
        score([(lower, upper)])[0], "windowed", Columns(None, f"levels 1 <= n <= {top}"),
    )


def verify_sum_identity(
    doublet: FsusyDoublet, replicas: dict[int, ReplicaDoublet], scoring: Scoring
) -> ReportEntry:
    """Reassemble H from the replica charges:

        H = q(2)- q(2)+ + sum_{s=2..k} q(s)+ q(s)-

    checked away from the k-1 omitted ground levels, whose energies the
    right-hand side cannot see.  Without every replica the sum cannot be
    formed, and the entry fails naming the missing ones.
    """
    basis = doublet.rep.basis
    name = "fsusy.charge_sum"
    statement = "H equals q(2)- q(2)+ plus the sum of q(s)+ q(s)- over all replicas"
    missing = [s for s in range(2, basis.k + 1) if s not in replicas]
    if missing:
        return ReportEntry.failure(
            name, statement, f"replicas {missing} could not be factorized")
    # q(s)+ q(s)- lives on sector s and q(2)- q(2)+ on sector 1, so each
    # column of the sum takes one block product: the upper sector of every
    # replica and the lower sector of replica 2, the first block
    blocks = ReplicaBlocks.gather(replicas, basis, ("qm", "qp"))
    qm, qp = blocks.ops["qm"], blocks.ops["qp"]
    sector = blocks.stack.sector
    upper = sector % 2 == 1
    up, down = qp @ qm, qm @ qp
    products = ColumnMap(np.where(upper, up.target, down.target),
                         np.where(upper, up.weight, down.weight))
    rhs = _scatter(products, blocks.cols, upper | (sector == 0), basis)
    # every column but the ground levels |0, s> of sectors s = 2 .. k
    window = basis.window(scoring.margin).narrow(
        (basis.level > 0) | (basis.sector == 1), "omitting replica ground levels")
    return scoring.entry(
        name, statement, score([(doublet.H, rhs)], window.mask)[0], "windowed", window)


def k2_reduction_entry(doublet: FsusyDoublet, rd: ReplicaDoublet, scoring: Scoring) -> ReportEntry:
    """For k = 2 the single replica reproduces H entrywise."""
    if doublet.k != 2 or rd.s != 2:
        raise FsusyError("the reduction check applies to the k = 2 replica only")
    window = doublet.rep.basis.window(scoring.margin)
    return scoring.entry(
        "reduction.total_hamiltonian",
        "for order 2 the replica Hamiltonian h(2) equals H entrywise",
        score([(rd.h, doublet.H)], window.mask)[0], "strict", window,
    )
