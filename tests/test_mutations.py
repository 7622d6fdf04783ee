"""One scaled weight fails the entry whose identity reads it.

Every entry is scored by ``wkalg.score``, the largest relative column
deviation over its window, so an error in one weight shows at its own size.
Here one weight (or partner energy) is scaled by 1 + 1e-9 at a low level, a
middle level and the top of the window, on the four acceptance families at
k = 3, d = 40 (k = 2 for the order-2 reduction, the k-fermion grades for the
k-fermion entries), and the entry must fail at its tier: 1e-10 windowed,
1e-12 strict, 0 exact.  The checks run as the suite runs them: the graded
and the tensor relations in one paired pass, all replicas on their stacked
sector pairs.

Four identities cannot see a scaled weight and are not listed: Q-^k = 0,
q- q- = 0 and f-^k = 0 stay nilpotent whatever their weights, and the
diagonal K and N commute whatever their weights.  A replica weight sent
into another replica's block fails the entries of its own replica that
read it, and no entry of another replica.
"""

import dataclasses

import pytest

from fsusy.fock import StructureSpec
from fsusy.realization import (
    build_kfermion_pair,
    build_tensor_realization,
    compare_realizations,
    verify_kfermions,
)
from fsusy.replicas import (
    check_isospectrality,
    k2_reduction_entry,
    verify_replicas,
    verify_sum_identity,
)
from fsusy.suite import RunConfig, build_system
from fsusy.system import partner_consistency_entry, verify_fsusy
from fsusy.wkalg import ColumnMap, Scoring, verify_wk_relations

D = 40
SCALE = 1 + 1e-9


def family_specs(k):
    return {
        "constant_unit": StructureSpec.constant_values(k, 1.0),
        "affine_flat": StructureSpec.affine_family(k, 0.0, 1.0),
        "affine_rising": StructureSpec.affine_family(k, 0.5, 1.0),
        "affine_falling": StructureSpec.affine_family(k, -0.1, 2.0),
    }


@pytest.fixture(scope="module")
def systems():
    """(k, family) -> built system at d = 40, margin = k."""
    return {(k, label): build_system(RunConfig(k=k, d=D, spec=spec, margin=k))
            for k in (2, 3, 4) for label, spec in family_specs(k).items()}


def scaled(op, col, factor):
    weight = op.weight.copy()
    weight[col] *= factor
    return ColumnMap(op.target, weight)


# Each case maps (system, level n, factor) to the entries of the check behind
# an entry name, with one weight of sector s at level n scaled by factor.

def make_tensor(rep):
    return build_tensor_realization(build_kfermion_pair(rep.basis.k), rep)


def rep_case(field, s):
    def run(system, n, factor):
        rep = system.rep
        op = scaled(getattr(rep, field), rep.basis.index(n, s), factor)
        mutated = dataclasses.replace(rep, **{field: op})
        return verify_wk_relations(mutated, Scoring(rep.basis.k, 1e-10), tensor=make_tensor(rep))[0]
    return run


def tensor_case(field, s):
    def run(system, n, factor):
        rep = system.rep
        tensor = make_tensor(rep)
        op = scaled(getattr(tensor, field), rep.basis.index(n, s), factor)
        mutated = dataclasses.replace(tensor, **{field: op})
        scoring = Scoring(rep.basis.k, 1e-10)
        return (verify_wk_relations(rep, scoring, tensor=mutated)[1]
                + [compare_realizations(mutated, rep, scoring)])
    return run


def replica_entries(blocks, doublet):
    """Entries of every replica, checked on the stack as the suite does."""
    return [e for entries in verify_replicas(blocks, doublet, Scoring(doublet.k, 1e-10)).values()
            for e in entries]


def stacked_column(blocks, s, n, sector):
    """Stacked column of |n, sector> in replica s's block, sector s-1 or s."""
    i = blocks.order.index(s)
    return blocks.stack.index(n, 2 * i + (sector % blocks.basis.k != s - 1))


def hamiltonian_case(s):
    def run(system, n, factor):
        doublet = system.doublet
        scoring = Scoring(doublet.k, 1e-10)
        H = scaled(doublet.H, doublet.rep.basis.index(n, s), factor)
        doublet = dataclasses.replace(doublet, H=H)
        return verify_fsusy(doublet, scoring) + [
            partner_consistency_entry(doublet, scoring),
            verify_sum_identity(doublet, system.blocks, scoring),
        ]
    return run


def partner_case(s):
    """Scales the partner energy H_s(n)."""
    def run(system, n, factor):
        doublet = system.doublet
        partners = doublet.partners.copy()
        partners[s - 1, n] *= factor
        doublet = dataclasses.replace(doublet, partners=partners)
        return [check_isospectrality(doublet, Scoring(doublet.k, 1e-10))] + replica_entries(
            system.blocks, doublet)
    return run


def replica_case(s, field, sector):
    def run(system, n, factor):
        blocks = system.blocks
        op = scaled(getattr(blocks, field), stacked_column(blocks, s, n, sector), factor)
        return replica_entries(dataclasses.replace(blocks, **{field: op}), system.doublet)
    return run


def reduction_case(system, n, factor):
    rd, doublet = system.replicas[2], system.doublet
    h = scaled(rd.h, doublet.rep.basis.index(n, 1), factor)
    return [k2_reduction_entry(doublet, dataclasses.replace(rd, h=h), Scoring(2, 1e-10))]


CASES = {
    # k = 3
    "algebra.ladder_commutator": (3, rep_case("Xm", 1)),
    "algebra.number_ladder": (3, rep_case("N", 1)),
    "algebra.grading_ladder": (3, rep_case("K", 1)),
    "algebra.grading_cyclic": (3, rep_case("K", 1)),
    "tensor.ladder_commutator": (3, tensor_case("Xm", 1)),
    "tensor.number_ladder": (3, tensor_case("N", 1)),
    "tensor.grading_ladder": (3, tensor_case("K", 1)),
    "tensor.grading_cyclic": (3, tensor_case("K", 1)),
    "tensor.spectral_distance": (3, tensor_case("Xm", 1)),
    "fsusy.multilinear": (3, hamiltonian_case(2)),
    "fsusy.hamiltonian_commutes": (3, hamiltonian_case(2)),
    "fsusy.partner_diagonal": (3, hamiltonian_case(2)),
    "fsusy.charge_sum": (3, hamiltonian_case(2)),
    "partners.level_shift": (3, partner_case(2)),
    **{name: case for s in (2, 3) for name, case in {
        f"replica{s}.pair_adjoint": (3, replica_case(s, "qp", s - 1)),
        f"replica{s}.anticommutator": (3, replica_case(s, "h", s)),
        f"replica{s}.hamiltonian_commutes": (3, replica_case(s, "h", s)),
        f"replica{s}.shift_product": (3, replica_case(s, "Xsm", s)),
        f"replica{s}.partner_diagonal": (3, replica_case(s, "h", s)),
        f"replica{s}.intertwining": (3, partner_case(s)),
    }.items()},
    # k = 2
    "reduction.total_hamiltonian": (2, reduction_case),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scaled_weight_fails_the_entry(systems, name):
    k, run = CASES[name]
    missed = []
    for label in family_specs(k):
        system = systems[k, label]
        top = system.d_effective - 1 - k
        for n in (1, top // 2, top):
            before = {e.name: e for e in run(system, n, 1.0)}[name]
            assert before.passed, (label, n, before.residual)
            after = {e.name: e for e in run(system, n, SCALE)}[name]
            if after.passed:
                missed.append(f"{label} n={n}: residual {after.residual:.3g} "
                              f"<= {after.tolerance:.3g}")
    assert not missed, "\n".join(missed)


@pytest.mark.parametrize("name,k,field,grades", [
    ("kfermion.q_commutator", 5, "fm", (1, 2, 4)),
    ("kfermion.grading_spectrum", 5, "Kf", (0, 2, 4)),
    ("kfermion.pair_adjoint", 2, "fp", (0,)),
])
def test_scaled_fermion_weight_fails_the_entry(name, k, field, grades):
    pair = build_kfermion_pair(k)
    # the canonical pair's residuals are cached first; no mutated copy may read them
    assert all(e.passed for e in verify_kfermions(pair, Scoring(k, 1e-10)))
    for t in grades:
        for factor, passed in [(1.0, True), (SCALE, False)]:
            mutated = dataclasses.replace(pair, **{field: scaled(getattr(pair, field), t, factor)})
            entry = {e.name: e for e in verify_kfermions(mutated, Scoring(k, 1e-10))}[name]
            assert entry.passed is passed, (t, factor, entry.residual)


def planted(op, col, target, weight):
    """op with column col sent to row target with the given weight."""
    targets, weights = op.target.copy(), op.weight.copy()
    targets[col], weights[col] = target, weight
    return ColumnMap(targets, weights)


# the entries of a replica whose identities read each operator
READS = {"h": ("anticommutator", "hamiltonian_commutes", "partner_diagonal"),
         "Xsm": ("shift_product", "intertwining")}


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("how", ["h-target-off-the-pair", "target-off-the-pair"])
def test_stray_replica_weight_fails_only_its_replica(systems, k, how):
    """A weight of 1e-9 planted in replica s's block, in h(s) or in X(s)- at
    a column of its sector s, with its row in the next replica's block, fails
    every entry of replica s that reads that operator and leaves every other
    entry as it was.  The column is one where the operator holds a weight, at
    the first, the middle and the last such level of the window."""
    field = "h" if how.startswith("h") else "Xsm"
    for label in family_specs(k):
        system = systems[k, label]
        blocks, doublet = system.blocks, system.doublet
        op = getattr(blocks, field)
        before = verify_replicas(blocks, doublet, Scoring(k, 1e-10))
        top = system.d_effective - 1 - k
        for i, s in enumerate(blocks.order):
            other = (i + 1) % len(blocks.order)
            held = [n for n in range(1, top + 1) if op.weight[stacked_column(blocks, s, n, s)] != 0]
            for n in (held[0], held[len(held) // 2], held[-1]):
                col = stacked_column(blocks, s, n, s)
                row = blocks.stack.index(n - 1, 2 * other)
                mutated = dataclasses.replace(blocks, **{field: planted(op, col, row, 1e-9)})
                after = verify_replicas(mutated, doublet, Scoring(k, 1e-10))
                for r, entries in after.items():
                    for e, ref in zip(entries, before[r], strict=True):
                        if r == s and e.name.split(".")[1] in READS[field]:
                            assert not e.passed, (label, s, n, e.name, e.residual)
                        else:
                            assert e == ref, (label, s, n, e.name)
