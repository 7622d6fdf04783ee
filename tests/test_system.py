import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsusy.fock import GradedBasis, StructureSpec, solve_structure_function
from fsusy.system import (
    build_doublet,
    partner_consistency_entry,
    partner_value,
    verify_fsusy,
)
from fsusy.wkalg import build_rep


def make_doublet(k, d, spec=None):
    spec = spec or StructureSpec.constant_values(k, 1.0)
    basis = GradedBasis(k, d)
    rep = build_rep(spec, basis, solve_structure_function(spec, d))
    return build_doublet(rep)


def test_partner_ladders_for_unit_constant():
    # closed forms with f = 1 and k = 3: H_3 = 2n-1, H_2 = 2n+1, H_1 = 2n+3
    db = make_doublet(3, 10)
    for n in range(10):
        assert db.partner(3, n) == pytest.approx(2 * n - 1)
        assert db.partner(2, n) == pytest.approx(2 * n + 1)
        assert db.partner(1, n) == pytest.approx(2 * n + 3)


def test_partner_index_bounds():
    db = make_doublet(3, 6)
    with pytest.raises(ValueError):
        db.partner(0, 1)
    with pytest.raises(ValueError):
        db.partner(4, 1)


def test_ground_state_energy_is_negative_for_unit_constant():
    # the k = 3 sector-0 ground state sits at H_3(0) = -1
    db = make_doublet(3, 8)
    i = db.rep.basis.index(0, 0)
    assert db.H.dense()[i, i].real == pytest.approx(-1.0, abs=1e-12)


def test_zero_structure_gives_zero_system():
    db = make_doublet(2, 6, StructureSpec.constant_values(2, 0.0))
    assert np.linalg.norm(db.H.dense()) == 0.0
    assert np.linalg.norm(db.Qm.dense()) == 0.0
    assert np.all(db.partners == 0.0)


def test_supercharges_avoid_their_masked_sectors():
    db = make_doublet(3, 6)
    basis = db.rep.basis
    # Q- never consumes sector 1, Q+ never consumes sector 0
    Qm, Qp = db.Qm.dense(), db.Qp.dense()
    for n in range(6):
        assert np.all(Qm[:, basis.index(n, 1)] == 0)
        assert np.all(Qp[:, basis.index(n, 0)] == 0)


@pytest.mark.parametrize(
    "k,d,spec",
    [
        (2, 14, None),
        (3, 14, None),
        (4, 12, StructureSpec.affine_family(4, 0.5, 1.0)),
        (5, 12, StructureSpec.affine_family(5, 0.0, 2.0)),
    ],
)
def test_fsusy_axioms(k, d, spec):
    db = make_doublet(k, d, spec)
    entries = {e.name: e for e in verify_fsusy(db, margin=2)}
    assert entries["fsusy.nilpotency"].residual == 0.0
    assert entries["fsusy.multilinear"].residual < 1e-10
    assert entries["fsusy.hamiltonian_commutes"].residual < 1e-12


def test_nilpotency_needs_the_full_order():
    # Q-^(k-1) is still nonzero, only the k-th power dies
    db = make_doublet(4, 8)
    Qm = db.Qm.dense()
    power = np.linalg.matrix_power(Qm, 3)
    assert np.linalg.norm(power) > 0.5
    assert np.linalg.norm(power @ Qm) == 0.0


def test_partner_diagonal_consistency():
    for spec in [
        StructureSpec.constant_values(3, [1.0, 2.0, 0.5]),
        StructureSpec.affine_family(3, 0.25, 1.0),
    ]:
        db = make_doublet(3, 12, spec)
        entry = partner_consistency_entry(db)
        assert entry.passed, entry.residual


def test_hamiltonian_is_diagonal_and_real():
    db = make_doublet(4, 10, StructureSpec.affine_family(4, 0.5, 1.0))
    H = db.H.dense()
    off = H - np.diag(np.diag(H))
    assert np.linalg.norm(off) < 1e-12
    assert np.abs(np.diag(H).imag).max() < 1e-12


@given(
    k=st.integers(2, 5),
    raw=st.lists(st.integers(0, 48), min_size=60, max_size=60),
)
@settings(max_examples=30, deadline=None)
def test_partner_shift_identity(k, raw):
    # H_(s-1)(n) = H_s(n+1) for s = 2..k, any nonnegative structure table
    d = 8
    entries = {
        (s, n): raw[(s * 12 + n) % 60] / 16.0
        for s in range(k)
        for n in range(-k, d + k)
    }
    spec = StructureSpec.from_table(k, entries)
    F = solve_structure_function(spec, d)
    for s in range(2, k + 1):
        for n in range(d - 1):
            lhs = partner_value(spec, F, s, n + 1)
            rhs = partner_value(spec, F, s - 1, n)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_partner_diagonal_tiles_all_sectors():
    db = make_doublet(3, 5)
    diag = np.diag(db.partner_diagonal(2).dense()).real
    expected = np.tile([db.partner(2, n) for n in range(5)], 3)
    assert np.allclose(diag, expected)


def test_multilinear_window_tightness():
    # the multilinear identity involves k - 1 raisings, so truncation effects
    # stay outside a window with margin >= k - 1
    db = make_doublet(4, 12)
    entries = {e.name: e for e in verify_fsusy(db, margin=4)}
    assert entries["fsusy.multilinear"].residual < 1e-12
