import numpy as np
import pytest

from fsusy.errors import FactorizationError, FsusyError
from fsusy.fock import GradedBasis, StructureSpec, solve_structure_function
from fsusy.replicas import (
    build_replica,
    build_shift_operators,
    check_isospectrality,
    k2_reduction_entry,
    verify_replica,
    verify_sum_identity,
)
from fsusy.system import build_doublet
from fsusy.wkalg import build_rep


def make_doublet(k, d, spec=None):
    spec = spec or StructureSpec.constant_values(k, 1.0)
    basis = GradedBasis(k, d)
    rep = build_rep(spec, basis, solve_structure_function(spec, d))
    return build_doublet(rep)


def decaying_table_doublet():
    # f_s(n) = 3 - n truncates the space at 8 levels per sector
    entries = {(s, n): 3.0 - n for s in range(3) for n in range(-3, 24)}
    spec = StructureSpec.from_table(3, entries)
    F = solve_structure_function(spec, 20)
    basis = GradedBasis(3, 8)
    return build_doublet(build_rep(spec, basis, F.truncate(8)))


def test_lowering_element_is_partner_square_root():
    db = make_doublet(3, 8)
    basis = db.rep.basis
    Xsm, Xsp = build_shift_operators(db, 2)
    # H_2(1) = 3 for f = 1, so X(2)-|1,2> = sqrt(3)|0,1>
    assert Xsm.dense()[basis.index(0, 1), basis.index(1, 2)] == pytest.approx(np.sqrt(3))
    assert np.array_equal(Xsp.dense(), Xsm.dense().conj().T)


def test_ground_state_is_omitted():
    db = make_doublet(3, 8)
    basis = db.rep.basis
    for s in (2, 3):
        Xsm, _ = build_shift_operators(db, s)
        assert np.all(Xsm.dense()[:, basis.index(0, s % 3)] == 0)


def test_replica_index_range_is_validated():
    db = make_doublet(3, 8)
    for s in (0, 1, 4):
        with pytest.raises(FsusyError):
            build_shift_operators(db, s)


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
    assert db.partner(2, 7) == pytest.approx(-4.0)
    with pytest.raises(FactorizationError):
        build_shift_operators(db, 2)
    Xsm, _ = build_shift_operators(db, 2, slack=3)
    basis = db.rep.basis
    assert Xsm.dense()[basis.index(6, 1), basis.index(7, 2)] == 0.0
    assert Xsm.dense()[basis.index(0, 1), basis.index(1, 2)] != 0.0


def test_slack_does_not_mask_low_level_negativity():
    db = make_doublet(5, 12)
    with pytest.raises(FactorizationError):
        build_shift_operators(db, 5, slack=5)


@pytest.mark.parametrize("s", [2, 3])
def test_replica_identities_for_unit_constant(s):
    db = make_doublet(3, 30)
    rd = build_replica(db, s)
    entries = {e.name: e for e in verify_replica(rd, db, margin=3)}
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
    rd = build_replica(db, 2)
    basis = db.rep.basis
    h = rd.h.dense()
    for n in range(7):
        assert h[basis.index(n, 1), basis.index(n, 1)].real == pytest.approx(2 * n + 3)
    for n in range(1, 7):
        assert h[basis.index(n, 2), basis.index(n, 2)].real == pytest.approx(2 * n + 1)
    assert h[basis.index(0, 2), basis.index(0, 2)] == 0.0
    for n in range(8):
        assert h[basis.index(n, 0), basis.index(n, 0)] == 0.0


def test_k2_intertwining_is_tight():
    db = make_doublet(2, 20)
    rd = build_replica(db, 2)
    entries = {e.name: e for e in verify_replica(rd, db, margin=2)}
    assert entries["replica2.intertwining"].residual < 1e-12


def test_zero_structure_replica_is_zero():
    db = make_doublet(3, 8, StructureSpec.constant_values(3, 0.0))
    for s in (2, 3):
        rd = build_replica(db, s)
        for e in verify_replica(rd, db, margin=2):
            assert e.residual == 0.0, e.name


def test_intertwining_transports_eigenstates():
    # X(s)+ lifts an H_(s-1) eigenstate to an H_s eigenstate of equal energy
    db = make_doublet(3, 16)
    basis = db.rep.basis
    rd = build_replica(db, 2)
    for n in range(10):
        vec = np.zeros(basis.dim, dtype=complex)
        vec[basis.index(n, 1)] = 1.0
        lifted = rd.Xsp.dense() @ vec
        norm = np.linalg.norm(lifted)
        assert norm == pytest.approx(np.sqrt(db.partner(2, n + 1)))
        expected = db.partner(1, n) * lifted
        applied = db.partner_diagonal(2).dense() @ lifted
        assert np.allclose(applied, expected, atol=1e-10)


def test_level_shift_identity_holds():
    for spec in [
        StructureSpec.constant_values(3, 1.0),
        StructureSpec.affine_family(4, 0.5, 1.0),
    ]:
        db = make_doublet(spec.k, 20, spec)
        entry = check_isospectrality(db, margin=spec.k)
        assert entry.passed, entry.residual


def test_wrap_pair_is_not_isospectral():
    # regression guard: H_3(n-1) and H_1(n) differ by 6 for k=3, f=1,
    # so the wrap pair must stay outside the asserted identity
    db = make_doublet(3, 12)
    wrap_dev = max(
        abs(db.partner(3, n - 1) - db.partner(1, n)) for n in range(1, 8)
    )
    assert wrap_dev == pytest.approx(6.0)
    assert check_isospectrality(db, margin=3).passed


def test_sum_identity_for_k2():
    db = make_doublet(2, 30)
    rd = build_replica(db, 2)
    entry = verify_sum_identity(db, {2: rd}, margin=2)
    assert entry.residual < 1e-10
    reduction = k2_reduction_entry(db, rd, margin=2)
    assert reduction.residual < 1e-12


def test_sum_identity_for_k4_affine():
    spec = StructureSpec.affine_family(4, 0.0, 1.0)
    db = make_doublet(4, 40, spec)
    replicas = {s: build_replica(db, s) for s in range(2, 5)}
    entry = verify_sum_identity(db, replicas, margin=4)
    assert entry.residual < 1e-10


def test_sum_identity_requires_all_replicas():
    db = make_doublet(3, 10)
    entry = verify_sum_identity(db, {2: build_replica(db, 2)}, margin=2)
    assert entry.name == "fsusy.charge_sum"
    assert not entry.passed
    assert entry.residual is None
    assert "replicas [3]" in entry.error


def test_reduction_entry_guards_its_domain():
    db = make_doublet(3, 10)
    rd = build_replica(db, 2)
    with pytest.raises(FsusyError):
        k2_reduction_entry(db, rd, margin=2)
