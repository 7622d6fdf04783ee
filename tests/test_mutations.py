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
diagonal K and N commute whatever their weights.  f-^k = 0 and Q-^k = 0 do
see a weight planted at one of their exact zeros.  A replica weight changed
inside its own block fails the entries of its own replica that read it,
and no entry of another replica.
"""

import dataclasses

import numpy as np
import pytest

from conftest import by_name, entries
from fsusy.fock import StructureSpec
from fsusy.realization import build_kfermion_pair, build_tensor_realization, compare_realizations
from fsusy.replicas import verify_replicas
from fsusy.suite import RunConfig, build_system
from fsusy.system import verify_fsusy
from fsusy.wkalg import algebra_relation_residuals

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


def scaled(op, at, factor):
    """op with its weight at table index ``at`` scaled by factor."""
    weight = op.weight.copy()
    weight[at] *= factor
    return dataclasses.replace(op, weight=weight)


# Each case maps (system, level n, factor) to the entries of the check behind
# an entry name, with one weight of sector s at level n scaled by factor.

def make_tensor(rep):
    return build_tensor_realization(build_kfermion_pair(rep.basis.k), rep)


def relation_entries(rep, tensor):
    """The algebra.* and tensor.* entries of the paired relation pass."""
    window = rep.basis.window(rep.basis.k)
    residuals = algebra_relation_residuals([rep, tensor], window)
    return entries({f"{prefix}.{key}": (val, window)
                    for prefix, values in zip(("algebra", "tensor"), residuals)
                    for key, val in values.items()})


def rep_case(field, s):
    def run(system, n, factor):
        rep = system.rep
        op = scaled(getattr(rep, field), (s, n), factor)
        mutated = dataclasses.replace(rep, **{field: op})
        return relation_entries(mutated, make_tensor(rep))
    return run


def tensor_case(field, s):
    def run(system, n, factor):
        rep = system.rep
        tensor = make_tensor(rep)
        op = scaled(getattr(tensor, field), (s, n), factor)
        mutated = dataclasses.replace(tensor, **{field: op})
        return relation_entries(rep, mutated) + entries(compare_realizations(mutated, rep))
    return run


def every_replica_entry(blocks, doublet):
    """Every entry of the replica construction, checked on the stack as the
    suite does."""
    return entries(verify_replicas(blocks, doublet, doublet.rep.basis.window(doublet.k)))


def replica_entries(blocks, doublet):
    """Entries of every built replica by s."""
    found = every_replica_entry(blocks, doublet)
    return {s: [e for e in found if e.name.startswith(f"replica{s}.")] for s in blocks}


def stacked_column(blocks, s, n, sector):
    """Table index of |n, sector> in replica s's block, sector s-1 or s."""
    return blocks.order.index(s), int(sector % blocks.basis.k != s - 1), n


def hamiltonian_case(s):
    def run(system, n, factor):
        doublet = system.doublet
        window = doublet.rep.basis.window(doublet.k)
        doublet = dataclasses.replace(doublet, H=scaled(doublet.H, (s, n), factor))
        return (entries(verify_fsusy(doublet, window))
                + every_replica_entry(system.replicas, doublet))
    return run


def partner_case(s):
    """Scales the partner energy H_s(n)."""
    def run(system, n, factor):
        doublet = system.doublet
        partners = doublet.partners.copy()
        partners[s - 1, n] *= factor
        doublet = dataclasses.replace(doublet, partners=partners)
        return every_replica_entry(system.replicas, doublet)
    return run


def replica_case(s, field, sector):
    def run(system, n, factor):
        blocks = system.replicas
        op = scaled(getattr(blocks, field), stacked_column(blocks, s, n, sector), factor)
        return every_replica_entry(dataclasses.replace(blocks, **{field: op}), system.doublet)
    return run


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
        f"replica{s}.pair_adjoint": (3, replica_case(s, "Xsp", s - 1)),
        f"replica{s}.anticommutator": (3, replica_case(s, "h", s)),
        f"replica{s}.hamiltonian_commutes": (3, replica_case(s, "h", s)),
        f"replica{s}.shift_product": (3, replica_case(s, "Xsm", s)),
        f"replica{s}.partner_diagonal": (3, replica_case(s, "h", s)),
        f"replica{s}.intertwining": (3, partner_case(s)),
    }.items()},
    # k = 2
    # h(2) at |n, 1>, the lower grade of the one block
    "reduction.total_hamiltonian": (2, replica_case(2, "h", 1)),
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
    assert all(e.passed for e in entries(pair.residuals))
    for t in grades:
        for factor, passed in [(1.0, True), (SCALE, False)]:
            mutated = dataclasses.replace(pair, **{field: scaled(getattr(pair, field), (t, 0), factor)})
            entry = by_name(mutated.residuals)[name]
            assert entry.passed is passed, (t, factor, entry.residual)


def planted(op, at, weight):
    """op with its weight at table index ``at`` set to weight."""
    weights = op.weight.copy()
    weights[at] = weight
    return dataclasses.replace(op, weight=weights)


@pytest.mark.parametrize("k", [3, 204, 1000, 2000])
def test_planted_fermion_weight_fails_the_nilpotency(k):
    # f-^k = 0 rests on f-'s zero weight at grade 0 alone and f+^k = 0 on
    # f+'s at grade k-1; 1e-9 at either makes every column of the power
    # nonzero, also from k = 204 on, where f+'s column products [k-1]_q!
    # overflow float64
    pair = build_kfermion_pair(k)
    for field, grade in (("fm", 0), ("fp", k - 1)):
        for weight, residual in [(0.0, 0.0), (1e-9, 1.0)]:
            op = planted(getattr(pair, field), (grade, 0), weight)
            entry = by_name(dataclasses.replace(pair, **{field: op}).residuals)["kfermion.nilpotency"]
            assert (entry.residual, entry.passed) == (residual, residual == 0), (field, weight)


@np.errstate(over="ignore", invalid="ignore")
def test_planted_supercharge_weight_fails_the_nilpotency():
    # Q-^k = 0 rests on the exact zeros of Q- on sector 1, which every path
    # of k steps crosses; 1e-9 planted at |80, 1> makes the column's path
    # nonzero to level 16, also where the products of Q-^k overflow float64
    k = 64
    system = build_system(RunConfig(k=k, d=100, spec=StructureSpec.affine_family(k, 1e7, 1.0),
                                    margin=k))
    doublet, window = system.doublet, system.rep.basis.window(k)
    for weight, residual in [(0.0, 0.0), (1e-9, 1.0)]:
        mutated = dataclasses.replace(doublet, Qm=planted(doublet.Qm, (1, 80), weight))
        entry = by_name(verify_fsusy(mutated, window))["fsusy.nilpotency"]
        assert (entry.residual, entry.passed) == (residual, residual == 0), (weight, entry)


# each defect of replica s's block: the operator, the sector s + held_at of
# the block where it holds the weights whose levels are used, the sector
# s + shift where the defect goes (the held weight scaled if the two agree,
# else 1e-9 planted), and the entries of replica s it fails.  X(s)-+ are
# also q(s)-+, so their defects fail the charge identities too
DEFECTS = {
    "h-scaled": ("h", 0, 0, ("anticommutator", "hamiltonian_commutes", "partner_diagonal")),
    "Xsm-scaled": ("Xsm", 0, 0, ("shift_product", "pair_adjoint", "anticommutator")),
    # 1e-9 at |n, s-1>, whose row is |n-1, s>: the intertwining is linear in
    # X(s)-, so only a weight in another row shows there
    "Xsm-other-sector": ("Xsm", 0, -1, ("intertwining", "nilpotency", "pair_adjoint",
                                         "hamiltonian_commutes")),
    "Xsp-scaled": ("Xsp", -1, -1, ("shift_product", "pair_adjoint", "anticommutator")),
}


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("how", list(DEFECTS))
def test_stray_replica_weight_fails_only_its_replica(systems, k, how):
    """One weight of replica s's block changed, in h(s), X(s)- or X(s)+,
    fails the entries of replica s that see the change and leaves every
    other entry as it was: a held weight scaled by 1 + 1e-9, or a weight of
    1e-9 planted in sector s-1, where X(s)- holds none.  The level is the
    first, the middle and the last one of the window where the operator
    holds a weight."""
    field, held_at, shift, fails = DEFECTS[how]
    for label in family_specs(k):
        system = systems[k, label]
        blocks, doublet = system.replicas, system.doublet
        op = getattr(blocks, field)
        before = replica_entries(blocks, doublet)
        top = system.d_effective - 1 - k
        for s in blocks.order:
            held = [n for n in range(1, top + 1)
                    if op.weight[stacked_column(blocks, s, n, s + held_at)] != 0]
            for n in (held[0], held[len(held) // 2], held[-1]):
                at = stacked_column(blocks, s, n, s + shift)
                weight = op.weight[at] * SCALE if shift == held_at else 1e-9
                mutated = dataclasses.replace(blocks, **{field: planted(op, at, weight)})
                after = replica_entries(mutated, doublet)
                for r, entries in after.items():
                    for e, ref in zip(entries, before[r], strict=True):
                        if r == s and e.name.split(".")[1] in fails:
                            assert not e.passed, (label, s, n, e.name, e.residual)
                        else:
                            assert e == ref, (label, s, n, e.name)
