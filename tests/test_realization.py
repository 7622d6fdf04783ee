import numpy as np
import pytest

from fsusy.errors import InvalidOrderError, RepresentationError
from fsusy.fock import GradedBasis, StructureSpec, solve_structure_function
from fsusy.qarith import primitive_root
from fsusy.realization import (
    boson_weights,
    build_kfermion_pair,
    build_tensor_realization,
    compare_realizations,
    cyclic_lowering,
    spectral_distance,
    verify_kfermions,
)
from fsusy.wkalg import build_rep


def make_rep(k, d, spec=None):
    spec = spec or StructureSpec.constant_values(k, 1.0)
    basis = GradedBasis(k, d)
    return build_rep(spec, basis, solve_structure_function(spec, d))


def test_ordinary_fermion_matrices():
    pair = build_kfermion_pair(2)
    assert np.array_equal(pair.fm, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(pair.fp, np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.allclose(pair.Kf, np.diag([1, -1]), atol=1e-15)


def test_kfermion_order_is_validated():
    with pytest.raises(InvalidOrderError):
        build_kfermion_pair(1)


@pytest.mark.parametrize("k", range(2, 9))
def test_kfermion_invariants(k):
    entries = {e.name: e for e in verify_kfermions(build_kfermion_pair(k))}
    assert entries["kfermion.q_commutator"].residual < 1e-12
    assert entries["kfermion.nilpotency"].residual == 0.0
    assert entries["kfermion.grading_spectrum"].residual < 1e-12
    if k == 2:
        assert entries["kfermion.pair_adjoint"].residual == 0.0


@pytest.mark.parametrize("k", range(3, 9))
def test_kfermion_pair_is_not_adjoint_above_order_two(k):
    pair = build_kfermion_pair(k)
    assert np.linalg.norm(pair.fp - pair.fm.conj().T) > 0.1


@pytest.mark.parametrize("k", range(2, 8))
def test_cyclic_lowering_support_and_order(k):
    pair = build_kfermion_pair(k)
    A = cyclic_lowering(pair)
    for t in range(k):
        col = A[:, t]
        nonzero = np.flatnonzero(np.abs(col) > 1e-14)
        assert list(nonzero) == [(t - 1) % k]
    assert np.allclose(np.linalg.matrix_power(A, k), np.eye(k), atol=1e-12)


def test_grading_eigenvalues_are_increment_differences():
    k = 5
    pair = build_kfermion_pair(k)
    q = primitive_root(k)
    diag = np.diag(pair.Kf)
    assert np.allclose(diag, q ** np.arange(k), atol=1e-12)


class TestTensorRealization:
    def test_k2_matches_defining_relations(self):
        rep = make_rep(2, 10)
        tensor = build_tensor_realization(2, 10, rep.spec)
        entries = compare_realizations(tensor, rep, margin=2)
        by_name = {e.name: e for e in entries}
        for key in [
            "tensor.ladder_commutator",
            "tensor.number_ladder",
            "tensor.grading_ladder",
            "tensor.grading_number",
            "tensor.grading_cyclic",
            "tensor.boson_commutator",
        ]:
            assert by_name[key].residual < 1e-10, key
            assert not by_name[key].informative

    def test_k3_report_is_informative(self):
        rep = make_rep(3, 12)
        tensor = build_tensor_realization(3, 12, rep.spec)
        entries = compare_realizations(tensor, rep, margin=3)
        assert all(e.informative for e in entries)
        assert all(np.isfinite(e.residual) for e in entries)

    def test_lowering_reduces_number_by_one(self):
        for k in (2, 3, 4):
            spec = StructureSpec.affine_family(k, 0.5, 1.0)
            tensor = build_tensor_realization(k, 9, spec)
            comm = tensor.N @ tensor.Xm - tensor.Xm @ tensor.N
            assert np.linalg.norm(comm + tensor.Xm) < 1e-12

    def test_grading_is_cyclic(self):
        tensor = build_tensor_realization(4, 6, StructureSpec.constant_values(4, 1.0))
        K4 = np.linalg.matrix_power(tensor.K, 4)
        assert np.allclose(K4, np.eye(24), atol=1e-12)

    def test_boson_weights_match_structure_function_for_unit_constant(self):
        # with one constant for every sector, the per-sector boson recursion
        # and the sector-coupled graded structure function agree
        spec = StructureSpec.constant_values(3, 1.0)
        graded = solve_structure_function(spec, 8).values[:, :8]
        assert np.allclose(boson_weights(spec, 8), graded, atol=1e-14)

    def test_order_mismatch_is_rejected(self):
        spec = StructureSpec.constant_values(2, 1.0)
        with pytest.raises(RepresentationError):
            build_tensor_realization(3, 6, spec)

    def test_negative_boson_weight_is_rejected(self):
        # G(m) = 2m - m(m-1)/2 turns negative at m = 6
        spec = StructureSpec.affine_family(2, -1.0, 2.0)
        with pytest.raises(RepresentationError):
            build_tensor_realization(2, 8, spec)

    def test_dimension_mismatch_in_comparison(self):
        rep = make_rep(2, 10)
        tensor = build_tensor_realization(2, 8, StructureSpec.constant_values(2, 1.0))
        with pytest.raises(RepresentationError):
            compare_realizations(tensor, rep, margin=2)


def test_spectral_distance_of_identical_operators_is_zero():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    assert spectral_distance(M, M) == 0.0


def test_spectral_distance_detects_shift():
    M = np.diag(np.arange(5.0) + 0j)
    assert spectral_distance(M, M + np.eye(5)) >= 1.0


def test_spectral_distance_pairs_conjugates_correctly():
    # conjugate pairs tie in their real parts; a lexicographic sort would
    # cross-match them and report an order-one gap
    angles = 2 * np.pi * np.arange(6) / 6
    clean = np.diag(np.exp(1j * angles))
    jitter = np.diag(np.exp(1j * angles) * (1 + 1e-15))
    assert spectral_distance(clean, jitter) < 1e-12
