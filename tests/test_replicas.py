import dataclasses

import numpy as np
import pytest

from conftest import by_name, flat
from fsusy.errors import FactorizationError, WindowTooSmallError
from fsusy.fock import StructureSpec, solve_structure_function
from fsusy.replicas import build_replicas, verify_replicas
from fsusy.suite import RunConfig, build_system
from fsusy.system import build_doublet, partner_value
from fsusy.wkalg import build_rep


def make_doublet(k, d, spec=None):
    spec = spec or StructureSpec.constant_values(k, 1.0)
    return build_doublet(build_rep(spec, solve_structure_function(spec, d)))


def lift(db, name, s, slack=0):
    """Field ``name`` of replica s on the full space, from the stack of every
    replica; its refusal is raised."""
    blocks = build_replicas(db, slack)
    if s in blocks.refused:
        raise blocks.refused[s]
    return blocks.lift(name, s)


def build_shift_operators(db, s, slack=0):
    return lift(db, "Xsm", s, slack), lift(db, "Xsp", s, slack)


def window(db, margin):
    return db.rep.basis.window(margin)


def construction_entries(db, margin, blocks=None):
    """Every entry of the replica construction by name, checked on the stack
    (of every replica without ``blocks``)."""
    blocks = build_replicas(db) if blocks is None else blocks
    return by_name(verify_replicas(blocks, db, window(db, margin)))


def replica_entries(db, margin, blocks=None):
    """The entries of every built replica by s."""
    blocks = build_replicas(db) if blocks is None else blocks
    found = construction_entries(db, margin, blocks).values()
    return {s: [e for e in found if e.name.startswith(f"replica{s}.")] for s in blocks}


def decaying_table_doublet():
    # f_s(n) = 3 - n truncates the space at 8 levels per sector
    entries = {(s, n): 3.0 - n for s in range(3) for n in range(-3, 24)}
    spec = StructureSpec.from_table(3, entries)
    F = solve_structure_function(spec, 20)
    return build_doublet(build_rep(spec, F[:, :8]))


def test_lowering_element_is_partner_square_root():
    db = make_doublet(3, 8)
    basis = db.rep.basis
    Xsm, Xsp = build_shift_operators(db, 2)
    # H_2(1) = 3 for f = 1, so X(2)-|1,2> = sqrt(3)|0,1>
    assert Xsm.dense()[flat(basis, 0, 1), flat(basis, 1, 2)] == pytest.approx(np.sqrt(3))
    assert np.array_equal(Xsp.dense(), Xsm.dense().conj().T)


def test_ground_state_is_omitted():
    db = make_doublet(3, 8)
    basis = db.rep.basis
    for s in (2, 3):
        Xsm, _ = build_shift_operators(db, s)
        assert np.all(Xsm.dense()[:, flat(basis, 0, s % 3)] == 0)


def test_negative_partner_energy_aborts_factorization():
    # k = 5 with f = 1 has H_5(1) = -2
    db = make_doublet(5, 12)
    with pytest.raises(FactorizationError) as exc_info:
        build_shift_operators(db, 5)
    err = exc_info.value
    assert (err.s, err.n) == (5, 1)
    assert err.value == pytest.approx(-2.0)
    assert "H_5(1)" in str(err)


def test_slack_drops_only_top_level_negativity():
    db = decaying_table_doublet()
    # H_2(7) = -4 right at the truncation edge
    assert db.partners[1, 7] == pytest.approx(-4.0)
    with pytest.raises(FactorizationError):
        build_shift_operators(db, 2)
    Xsm, _ = build_shift_operators(db, 2, slack=3)
    basis = db.rep.basis
    assert Xsm.dense()[flat(basis, 6, 1), flat(basis, 7, 2)] == 0.0
    assert Xsm.dense()[flat(basis, 0, 1), flat(basis, 1, 2)] != 0.0


def test_slack_does_not_mask_low_level_negativity():
    db = make_doublet(5, 12)
    with pytest.raises(FactorizationError):
        build_shift_operators(db, 5, slack=5)


@pytest.mark.parametrize("s", [2, 3])
def test_replica_identities_for_unit_constant(s):
    db = make_doublet(3, 30)
    entries = {e.name: e for e in replica_entries(db, 3)[s]}
    assert entries[f"replica{s}.nilpotency"].residual == 0.0
    assert entries[f"replica{s}.pair_adjoint"].residual == 0.0
    assert entries[f"replica{s}.anticommutator"].residual == 0.0
    assert entries[f"replica{s}.hamiltonian_commutes"].residual < 1e-12
    assert entries[f"replica{s}.shift_product"].residual < 1e-10
    assert entries[f"replica{s}.partner_diagonal"].residual < 1e-12
    assert entries[f"replica{s}.intertwining"].residual < 1e-12


def test_replica_hamiltonian_diagonal_values():
    # k=3, f=1, s=2: sector 1 carries H_1(n) = 2n+3, sector 2 carries
    # H_2(n) = 2n+1 with the ground entry omitted, sector 0 is empty
    db = make_doublet(3, 8)
    basis = db.rep.basis
    h = lift(db, "h", 2).dense()
    for n in range(7):
        assert h[flat(basis, n, 1), flat(basis, n, 1)].real == pytest.approx(2 * n + 3)
    for n in range(1, 7):
        assert h[flat(basis, n, 2), flat(basis, n, 2)].real == pytest.approx(2 * n + 1)
    assert h[flat(basis, 0, 2), flat(basis, 0, 2)] == 0.0
    for n in range(8):
        assert h[flat(basis, n, 0), flat(basis, n, 0)] == 0.0


def test_k2_intertwining_is_tight():
    db = make_doublet(2, 20)
    entries = {e.name: e for e in replica_entries(db, 2)[2]}
    assert entries["replica2.intertwining"].residual < 1e-12


def test_zero_structure_replica_is_zero():
    db = make_doublet(3, 8, StructureSpec.constant_values(3, 0.0))
    for s in (2, 3):
        for e in replica_entries(db, 2)[s]:
            assert e.residual == 0.0, e.name


def test_intertwining_transports_eigenstates():
    # X(s)+ lifts an H_(s-1) eigenstate to an H_s eigenstate of equal energy
    db = make_doublet(3, 16)
    basis = db.rep.basis
    Xsp = lift(db, "Xsp", 2).dense()
    for n in range(10):
        vec = np.zeros(basis.dim, dtype=complex)
        vec[flat(basis, n, 1)] = 1.0
        lifted = Xsp @ vec
        norm = np.linalg.norm(lifted)
        assert norm == pytest.approx(np.sqrt(db.partners[1, n + 1]))
        expected = db.partners[0, n] * lifted
        # H_2(N) on every sector
        applied = np.tile(db.partners[1], basis.k) * lifted
        assert np.allclose(applied, expected, atol=1e-10)


def test_level_shift_identity_holds():
    for spec in [
        StructureSpec.constant_values(3, 1.0),
        StructureSpec.affine_family(4, 0.5, 1.0),
    ]:
        db = make_doublet(spec.k, 20, spec)
        entry = construction_entries(db, spec.k)["partners.level_shift"]
        assert entry.passed, entry.residual


def test_level_shift_takes_its_levels_from_the_window():
    # the window rule of every other check: margin d-2 keeps level 1 alone,
    # and a margin that leaves no level raises instead of scoring nothing
    d = 12
    db = make_doublet(3, d, StructureSpec.affine_family(3, 0.5, 1.0))
    entry = construction_entries(db, d - 2)["partners.level_shift"]
    assert entry.passed
    assert entry.window == "levels 1 <= n <= 1"
    for margin in (d - 1, d, 2 * d):
        with pytest.raises(WindowTooSmallError, match=f"^margin {margin} leaves no window"):
            construction_entries(db, margin)


def test_wrap_pair_is_not_isospectral():
    # regression guard: H_3(n-1) and H_1(n) differ by 6 for k=3, f=1,
    # so the wrap pair must stay outside the asserted identity
    db = make_doublet(3, 12)
    wrap_dev = max(
        abs(db.partners[2, n - 1] - db.partners[0, n]) for n in range(1, 8)
    )
    assert wrap_dev == pytest.approx(6.0)
    assert construction_entries(db, 3)["partners.level_shift"].passed


@pytest.mark.parametrize("k", [*range(2, 14), 16, 32, 64, 65])
def test_constant_family_refuses_the_top_replicas(k):
    # f = 1: exactly the top floor((k-3)/2) replicas are refused, each at
    # n = 1, and the j-th of them counting up from the lowest refused s has
    # H_s(1) = -(k-1) j at even k and -(k-1)(2j-1)/2 at odd k
    spec = StructureSpec.constant_values(k, 1.0)
    system = build_system(RunConfig(k=k, d=k + 2, spec=spec, margin=k))
    lowest = k - (k - 3) // 2 + 1
    refused = system.replicas.refused
    assert sorted(refused) == list(range(lowest, k + 1))
    if k < 5:
        assert not refused
    for j, s in enumerate(range(lowest, k + 1), start=1):
        exc = refused[s]
        expected = -(k - 1) * j if k % 2 == 0 else -(k - 1) * (2 * j - 1) / 2
        assert (exc.s, exc.n) == (s, 1)
        assert exc.value == expected == partner_value(spec, system.rep.F, s, 1)


def test_sum_identity_for_k2():
    db = make_doublet(2, 30)
    found = construction_entries(db, 2)
    assert found["fsusy.charge_sum"].residual < 1e-10
    assert found["reduction.total_hamiltonian"].residual < 1e-12


def test_sum_identity_for_k4_affine():
    spec = StructureSpec.affine_family(4, 0.0, 1.0)
    db = make_doublet(4, 40, spec)
    entry = construction_entries(db, 4)["fsusy.charge_sum"]
    assert entry.residual < 1e-10


def test_sum_identity_requires_all_replicas():
    db = make_doublet(3, 10)
    # a negative H_3(1) refuses replica 3 and leaves replica 2 alone
    partners = db.partners.copy()
    partners[2, 1] = -1.0
    blocks = build_replicas(dataclasses.replace(db, partners=partners))
    assert blocks.order == (2,) and sorted(blocks.refused) == [3]
    entry = construction_entries(db, 2, blocks)["fsusy.charge_sum"]
    assert not entry.passed
    assert entry.residual is None
    assert "replicas [3]" in entry.error


def test_reduction_entry_guards_its_domain():
    # h(2) = H holds at k = 2 alone, and only there is it recorded, last
    for k in (2, 3, 4):
        names = list(construction_entries(make_doublet(k, 10), 2))
        assert ("reduction.total_hamiltonian" in names) is (k == 2)
        assert names[-1] == ("reduction.total_hamiltonian" if k == 2 else "fsusy.charge_sum")


def test_stack_without_replicas():
    # every partner ladder negative above the ground level: nothing is built
    db = make_doublet(4, 10)
    partners = db.partners.copy()
    partners[:, 1:] = -1.0
    blocks = build_replicas(dataclasses.replace(db, partners=partners))
    assert blocks.order == ()
    assert {s: (e.s, e.n, e.value) for s, e in blocks.refused.items()} == {
        s: (s, 1, -1.0) for s in (2, 3, 4)}
    assert all(op.dim == 0 for op in (blocks.Xsm, blocks.Xsp, blocks.h))
    assert list(blocks) == []
    found = construction_entries(db, 4, blocks)
    assert list(found) == ["partners.level_shift", "replica2.factorization",
                           "replica3.factorization", "replica4.factorization",
                           "fsusy.charge_sum"]
    entry = found["fsusy.charge_sum"]
    assert not entry.passed and entry.residual is None
    assert "replicas [2, 3, 4]" in entry.error


def test_each_replica_is_checked_on_its_own_block():
    # replica s's entries from the stack of every replica equal those from a
    # stack that holds replica s alone
    db = make_doublet(4, 20, StructureSpec.affine_family(4, 0.5, 1.0))
    every = replica_entries(db, 4)
    for s in (2, 3, 4):
        partners = db.partners.copy()
        # refuse every other replica at level 1
        others = [r for r in (2, 3, 4) if r != s]
        partners[[r - 1 for r in others], 1] = -1.0
        blocks = build_replicas(dataclasses.replace(db, partners=partners))
        assert blocks.order == (s,) and sorted(blocks.refused) == others
        alone = replica_entries(db, 4, blocks)
        assert alone[s] == every[s]
