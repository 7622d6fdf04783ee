"""One scaled weight fails the entry whose identity reads it.

Every entry is scored by ``wkalg.residual``, the largest relative column
deviation over its window, so an error in one weight shows at its own size.
Here one weight (or partner energy) is scaled by 1 + 1e-9 at a low level, a
middle level and the top of the window, on the four acceptance families at
k = 3, d = 40 (k = 2 for the order-2 reduction, the k-fermion grades for the
k-fermion entries), and the entry must fail at its tier: 1e-10 windowed,
1e-12 strict, 0 exact.

Four identities cannot see a scaled weight and are not listed: Q-^k = 0,
q- q- = 0 and f-^k = 0 stay nilpotent whatever their weights, and the
diagonal K and N commute whatever their weights.
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
    verify_replica,
    verify_sum_identity,
)
from fsusy.suite import RunConfig, build_system
from fsusy.system import partner_consistency_entry, verify_fsusy
from fsusy.wkalg import ColumnMap, verify_wk_relations

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
            for k in (2, 3) for label, spec in family_specs(k).items()}


def scaled(op, col, factor):
    weight = op.weight.copy()
    weight[col] *= factor
    return ColumnMap(op.target, weight)


# Each case maps (system, level n, factor) to the entries of the check behind
# an entry name, with one weight of sector s at level n scaled by factor.

def rep_case(field, s):
    def run(system, n, factor):
        rep = system.rep
        op = scaled(getattr(rep, field), rep.basis.index(n, s), factor)
        return verify_wk_relations(dataclasses.replace(rep, **{field: op}), rep.basis.k)
    return run


def tensor_case(field, s):
    def run(system, n, factor):
        rep = system.rep
        tensor = build_tensor_realization(build_kfermion_pair(rep.basis.k), rep.F)
        op = scaled(getattr(tensor, field), rep.basis.index(n, s), factor)
        return compare_realizations(dataclasses.replace(tensor, **{field: op}), rep, rep.basis.k)
    return run


def hamiltonian_case(s):
    def run(system, n, factor):
        doublet = system.doublet
        margin = doublet.k
        H = scaled(doublet.H, doublet.rep.basis.index(n, s), factor)
        doublet = dataclasses.replace(doublet, H=H)
        return verify_fsusy(doublet, margin) + [
            partner_consistency_entry(doublet),
            verify_sum_identity(doublet, system.replicas, margin),
        ]
    return run


def partner_case(s):
    """Scales the partner energy H_s(n)."""
    def run(system, n, factor):
        doublet = system.doublet
        partners = doublet.partners.copy()
        partners[s - 1, n] *= factor
        doublet = dataclasses.replace(doublet, partners=partners)
        return [check_isospectrality(doublet, doublet.k)] + verify_replica(
            system.replicas[s], doublet, doublet.k)
    return run


def replica_case(s, field, sector):
    def run(system, n, factor):
        rd, doublet = system.replicas[s], system.doublet
        op = scaled(getattr(rd, field), doublet.rep.basis.index(n, sector), factor)
        return verify_replica(dataclasses.replace(rd, **{field: op}), doublet, doublet.k)
    return run


def reduction_case(system, n, factor):
    rd, doublet = system.replicas[2], system.doublet
    h = scaled(rd.h, doublet.rep.basis.index(n, 1), factor)
    return [k2_reduction_entry(doublet, dataclasses.replace(rd, h=h), 2)]


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
    for t in grades:
        for factor, passed in [(1.0, True), (SCALE, False)]:
            mutated = dataclasses.replace(pair, **{field: scaled(getattr(pair, field), t, factor)})
            entry = {e.name: e for e in verify_kfermions(mutated)}[name]
            assert entry.passed is passed, (t, factor, entry.residual)
