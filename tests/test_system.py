import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fsusy.system
from conftest import by_name, flat, multilinear_roundoff
from fsusy.fock import StructureSpec, solve_structure_function
from fsusy.suite import RunConfig, build_system
from fsusy.system import build_doublet, partner_value, verify_fsusy
from fsusy.wkalg import Shift, build_rep, score


def make_doublet(k, d, spec=None):
    spec = spec or StructureSpec.constant_values(k, 1.0)
    return build_doublet(build_rep(spec, solve_structure_function(spec, d)))


def test_partner_ladders_for_unit_constant():
    # closed forms with f = 1 and k = 3: H_3 = 2n-1, H_2 = 2n+1, H_1 = 2n+3
    db = make_doublet(3, 10)
    for n in range(10):
        assert db.partners[2, n] == pytest.approx(2 * n - 1)
        assert db.partners[1, n] == pytest.approx(2 * n + 1)
        assert db.partners[0, n] == pytest.approx(2 * n + 3)


def test_partner_value_checks_the_level():
    # F holds the d = 12 levels n = 0 .. 11; n = -1 would read F_1(11) from
    # the end of the row
    spec = StructureSpec.affine_family(3, 0.5, 1.0)
    F = solve_structure_function(spec, 12)
    assert partner_value(spec, F, 1, 11) == build_doublet(build_rep(spec, F)).partners[0, 11]
    for n in (-1, 12):
        with pytest.raises(ValueError, match=rf"level {n} outside 0\.\.11"):
            partner_value(spec, F, 1, n)


def test_ground_state_energy_is_negative_for_unit_constant():
    # the k = 3 sector-0 ground state sits at H_3(0) = -1
    db = make_doublet(3, 8)
    i = flat(db.rep.basis, 0, 0)
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
        assert np.all(Qm[:, flat(basis, n, 1)] == 0)
        assert np.all(Qp[:, flat(basis, n, 0)] == 0)


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
    entries = by_name(verify_fsusy(db, db.rep.basis.window(2)))
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
        entry = by_name(verify_fsusy(db, db.rep.basis.window(2)))["fsusy.partner_diagonal"]
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


def test_multilinear_window_tightness():
    # the multilinear identity involves k - 1 raisings, so truncation effects
    # stay outside a window with margin >= k - 1
    db = make_doublet(4, 12)
    entries = by_name(verify_fsusy(db, db.rep.basis.window(4)))
    assert entries["fsusy.multilinear"].residual < 1e-12


@pytest.mark.parametrize("k", [2, 3, 5, 8, 64])
def test_multilinear_recursion_matches_the_list_of_ordered_products(monkeypatch, k):
    d = 2 * k + 8
    db = make_doublet(k, d, StructureSpec.affine_family(k, 0.5, 1.0))
    # the operand pairs verify_fsusy scores, entry by entry
    scored = []
    monkeypatch.setattr(fsusy.system, "score",
                        lambda pairs, window=None: scored.append(list(pairs)) or 0.0)
    verify_fsusy(db, db.rep.basis.window(2))
    [(top, _), _], [(total, rhs)], _, _ = scored
    # the literal route: every power of Q- held, the k ordered products
    # formed and added left to right
    powers = [Shift.diag(np.ones((k, d)))]
    for _ in range(k):
        powers.append(powers[-1] @ db.Qm)
    terms = [powers[k - 1 - j] @ db.Qp @ powers[j] for j in range(k)]
    assert score([(total, sum(terms[1:], start=terms[0]))]) <= multilinear_roundoff(k)
    # the running power gives Q-^(k-2) H bit for bit, and the product of the
    # supports of Q-'s k factors is nonzero exactly where Q-^k is
    want = powers[k - 2] @ db.H
    assert (rhs.dn, rhs.ds % k) == (want.dn, want.ds % k)
    assert np.array_equal(rhs.weight.view(np.int64), want.weight.view(np.int64))
    assert (top.dn, top.ds % k) == (powers[k].dn, powers[k].ds % k)
    assert np.array_equal(top.weight != 0, powers[k].weight != 0)


DYADIC_A = (-0.25, -0.125, 0.0, 0.125, 0.5, 2.0)
DYADIC_B = (0.25, 1.0, 1.5, 4.0)


@pytest.mark.parametrize("k", range(2, 6))
def test_partner_table_matches_affine_closed_form(k):
    # f_t(m) = a m + b in every sector, F(n) = b n + a n(n-1)/2, so
    #   sum_{t=2..k-1} (t-1) f_t(n-s+t) = (k-2)(k-1)/2 g + a (k-2)(k-1)k/3
    #   sum_{t=s..k-1}       f_t(n-s+t) = (k-s) g + a (k-s)(k-1+s)/2
    # with g = a (n - s) + b; dyadic a, b keep every value exact
    s = np.arange(1, k + 1)[:, None]
    for a in DYADIC_A:
        for b in DYADIC_B:
            spec = StructureSpec.affine_family(k, a, b)
            # a < 0 truncates the space below its first negative F
            partners = build_system(RunConfig(k=k, d=40, spec=spec, margin=k)).doublet.partners
            n = np.arange(partners.shape[1])
            g = a * (n - s) + b
            mid = (k - 2) * (k - 1) // 2 * g + a * ((k - 2) * (k - 1) * k // 3)
            tail = (k - s) * g + a * ((k - s) * (k - 1 + s) // 2)
            closed = (k - 1) * (b * n + a * n * (n - 1) / 2) - mid + (k - 1) * tail
            assert np.array_equal(partners, closed), (a, b)


@pytest.mark.parametrize("spec", [
    StructureSpec.constant_values(3, 1.0),
    StructureSpec.constant_values(4, [0.3, 1.7, -0.0, 2.9]),
    StructureSpec.constant_values(5, [1.1, 0.0, 2.3, 0.7, 1.9]),
    StructureSpec.from_table(
        4, {(s, n): 0.1 + ((5 * s + 7 * n) % 13) / 7 for s in range(4) for n in range(-4, 30)}),
], ids=["constant", "sector-constants", "sector-constants-with-zero", "table"])
def test_partner_table_equals_partner_value_bit_for_bit(spec):
    d = 20
    db = make_doublet(spec.k, d, spec)
    F = db.rep.F
    for s in range(1, spec.k + 1):
        for n in range(d):
            expected = partner_value(spec, F, s, n)
            assert np.float64(expected).tobytes() == db.partners[s - 1, n].tobytes(), (s, n)
