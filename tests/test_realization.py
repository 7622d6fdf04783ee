import dataclasses
import math

import numpy as np
import pytest

import fsusy.wkalg
from conftest import by_name, entries, one_entry
from fsusy.errors import InvalidOrderError, RepresentationError
from fsusy.fock import StructureSpec, solve_structure_function
from fsusy.qarith import primitive_root, q_numbers
from fsusy.realization import KFermionPair, build_kfermion_pair, build_tensor_realization, compare_realizations
from fsusy.suite import RunConfig, run_verification_suite
from fsusy.wkalg import Shift, algebra_relation_residuals, build_rep


def make_rep(k, d, spec=None):
    spec = spec or StructureSpec.constant_values(k, 1.0)
    return build_rep(spec, solve_structure_function(spec, d))


def test_ordinary_fermion_matrices():
    pair = build_kfermion_pair(2)
    assert np.array_equal(pair.fm.dense(), np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(pair.fp.dense(), np.array([[0, 0], [1, 0]], dtype=complex))
    assert np.allclose(pair.Kf.dense(), np.diag([1, -1]), atol=1e-15)


def test_kfermion_order_is_validated():
    with pytest.raises(InvalidOrderError):
        build_kfermion_pair(1)


@pytest.mark.parametrize("k", range(2, 9))
def test_kfermion_invariants(k):
    entries = by_name(build_kfermion_pair(k).residuals)
    assert entries["kfermion.q_commutator"].residual < 1e-12
    assert entries["kfermion.nilpotency"].residual == 0.0
    assert entries["kfermion.grading_spectrum"].residual < 1e-12
    if k == 2:
        assert entries["kfermion.pair_adjoint"].residual == 0.0


def test_strict_kfermion_entries_pass_at_every_order_to_1000():
    # |[t]_q| reaches 1/sin(pi/k), so the round-off of these entries grows
    # with k; each power of q must be read at its exponent for them to stay
    # below the strict tier
    strict = ("kfermion.q_commutator", "kfermion.grading_spectrum")
    failed = [(k, name, entry.residual) for k in range(2, 1001)
              for name, entry in by_name(build_kfermion_pair(k).residuals).items()
              if name in strict and not entry.passed]
    assert failed == []


@pytest.mark.parametrize("k", range(3, 9))
def test_kfermion_pair_is_not_adjoint_above_order_two(k):
    pair = build_kfermion_pair(k)
    assert np.linalg.norm(pair.fp.dense() - pair.fm.dense().conj().T) > 0.1


@pytest.mark.parametrize("k", range(2, 8))
def test_cyclic_lowering_support_and_order(k):
    pair = build_kfermion_pair(k)
    A = pair.A.dense()
    for t in range(k):
        col = A[:, t]
        nonzero = np.flatnonzero(np.abs(col) > 1e-14)
        assert list(nonzero) == [(t - 1) % k]
    assert np.allclose(np.linalg.matrix_power(A, k), np.eye(k), atol=1e-12)


def test_grading_eigenvalues_are_increment_differences():
    k = 5
    pair = build_kfermion_pair(k)
    q = primitive_root(k)
    diag = pair.Kf.weight[:, 0]
    assert np.allclose(diag, q ** np.arange(k), atol=1e-12)


def make_tensor(rep):
    return build_tensor_realization(build_kfermion_pair(rep.basis.k), rep)


def tensor_entries(tensor, rep, margin):
    """The tensor.* entries of a suite run: the relations, paired with rep's, and the spectra."""
    window = rep.basis.window(margin)
    _, relations = algebra_relation_residuals([rep, tensor], window)
    return entries({f"tensor.{key}": (val, window) for key, val in relations.items()}
                   | compare_realizations(tensor, rep))


TENSOR_RELATIONS = [
    "tensor.ladder_commutator",
    "tensor.number_ladder",
    "tensor.grading_ladder",
    "tensor.grading_number",
    "tensor.grading_cyclic",
]


class TestTensorRealization:
    def test_k2_matches_defining_relations(self):
        rep = make_rep(2, 10)
        entries = tensor_entries(make_tensor(rep), rep, margin=2)
        by_name = {e.name: e for e in entries}
        for key in TENSOR_RELATIONS:
            assert by_name[key].residual < 1e-10, key
            assert not by_name[key].informative

    @pytest.mark.parametrize("k", range(2, 9))
    def test_sector_constants_satisfy_every_relation(self, k):
        # the tensor realization reads the coupled F, so sector-dependent
        # constants close the algebra at every order
        spec = StructureSpec.constant_values(k, [1 + 0.5 * s for s in range(k)])
        rep = make_rep(k, 30, spec)
        tensor = make_tensor(rep)
        by_name = {e.name: e for e in tensor_entries(tensor, rep, margin=k)}
        for key in TENSOR_RELATIONS:
            assert not by_name[key].informative, key
            assert by_name[key].residual < 1e-12, key
        # both products are diagonal (test_tensor_and_graded_ladder_products_are_diagonal)
        ours, graded = (tensor.Xp @ tensor.Xm).weight, (rep.Xp @ rep.Xm).weight
        np.testing.assert_allclose(ours, graded, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_perturbed_raising_weight_fails_the_ladder_commutator(self, k):
        rep = make_rep(k, 12)
        tensor = make_tensor(rep)
        weight = tensor.Xp.weight.copy()
        weight[1, 3] *= 1 + 1e-6  # |m=3> (x) |t=1>, inside the window
        mutated = dataclasses.replace(tensor, Xp=dataclasses.replace(tensor.Xp, weight=weight))
        for op, passed in [(tensor, True), (mutated, False)]:
            by_name = {e.name: e for e in tensor_entries(op, rep, margin=k)}
            entry = by_name["tensor.ladder_commutator"]
            assert not entry.informative
            assert entry.passed is passed, entry.residual

    def test_lowering_reduces_number_by_one(self):
        for k in (2, 3, 4):
            tensor = make_tensor(make_rep(k, 9, StructureSpec.affine_family(k, 0.5, 1.0)))
            N, Xm = tensor.N.dense(), tensor.Xm.dense()
            comm = N @ Xm - Xm @ N
            assert np.linalg.norm(comm + Xm) < 1e-12

    def test_grading_is_cyclic(self):
        tensor = make_tensor(make_rep(4, 6))
        K4 = np.linalg.matrix_power(tensor.K.dense(), 4)
        assert np.allclose(K4, np.eye(24), atol=1e-12)

    def test_order_mismatch_is_rejected(self):
        with pytest.raises(RepresentationError, match="order 2, fermion pair 3"):
            build_tensor_realization(build_kfermion_pair(3), make_rep(2, 6))

    def test_dimension_mismatch_in_comparison(self):
        rep = make_rep(2, 10)
        tensor = make_tensor(make_rep(2, 8))
        with pytest.raises(RepresentationError):
            compare_realizations(tensor, rep)
        with pytest.raises(RepresentationError, match="no common window"):
            algebra_relation_residuals([rep, tensor], rep.basis.window(2))


def spectral_entry(tensor, rep):
    return one_entry(compare_realizations(tensor, rep))


def test_spectral_distance_of_the_graded_operators_is_zero():
    # the graded ladders themselves, with their sectors relabelled s -> s + 1,
    # have the same sorted spectrum bit for bit
    rep = make_rep(3, 9, StructureSpec.constant_values(3, [1.0, 1.5, 2.0]))
    permuted = [Shift(X.dn, X.ds, np.roll(X.weight, 1, axis=0)) for X in (rep.Xm, rep.Xp)]
    assert not np.array_equal(permuted[0].weight, rep.Xm.weight)
    tensor = dataclasses.replace(make_tensor(rep), Xm=permuted[0], Xp=permuted[1])
    entry = spectral_entry(tensor, rep)
    assert entry.residual == 0.0 and entry.passed


@pytest.mark.parametrize("level", [1, 18, 35])
def test_spectral_distance_detects_one_scaled_weight(level):
    # X+ X- takes one factor from X-, so scaling one X- weight by 1 + 1e-9
    # moves one eigenvalue by 1e-9 of itself at any level of the window
    rep = make_rep(4, 40, StructureSpec.affine_family(4, 0.5, 1.0))
    tensor = make_tensor(rep)
    weight = tensor.Xm.weight.copy()
    weight[2, level] *= 1 + 1e-9
    mutated = dataclasses.replace(tensor, Xm=dataclasses.replace(tensor.Xm, weight=weight))
    assert spectral_entry(tensor, rep).passed
    entry = spectral_entry(mutated, rep)
    assert not entry.passed
    assert entry.residual == pytest.approx(1e-9, rel=1e-3)


def test_spectral_distance_is_asserted_at_large_d():
    # the eigenvalues grow like a d^2 / 2 (2.5e5 here); relative to them the
    # round-off stays near machine epsilon, where an absolute distance
    # reached 7.3e-10
    rep = make_rep(8, 1000, StructureSpec.affine_family(8, 0.5, 1.0))
    entry = spectral_entry(make_tensor(rep), rep)
    assert not entry.informative
    assert entry.passed and entry.residual < 1e-13, entry.residual


def test_tensor_and_graded_ladder_products_are_diagonal():
    # the spectral comparison reads the spectra of X+ X- off their diagonals
    spec = StructureSpec.affine_family(3, 0.5, 1.0)
    rep = make_rep(3, 9, spec)
    tensor = make_tensor(rep)
    for Xp, Xm in [(rep.Xp, rep.Xm), (tensor.Xp, tensor.Xm)]:
        product = Xp.dense() @ Xm.dense()
        assert np.array_equal(product, np.diag(np.diag(product)))
        assert (Xp @ Xm).dn == (Xp @ Xm).ds == 0
        assert np.allclose(np.diag(product), (Xp @ Xm).weight.ravel(), rtol=1e-14, atol=0)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 64])
def test_tensor_ladders_select_their_grade_exactly(k):
    # Pf_s keeps grade s alone, so X- is b(s)- times A's grade weights and
    # X+ is b(s+1)+ times A^(k-1)'s, one product a weight, with no sum over s
    # that adds the other grades' round-off
    d = 12
    rep = make_rep(k, d, StructureSpec.affine_family(k, 0.5, 1.0))
    pair = build_kfermion_pair(k)
    tensor = build_tensor_realization(pair, rep)
    bm = np.sqrt(np.maximum(rep.F, 0.0)).astype(complex)
    bp = Shift(-1, -1, bm).adjoint().weight
    for X, expected in ((tensor.Xm, bm * pair.A.weight), (tensor.Xp, bp * pair.Ak1.weight)):
        assert X.weight.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [2, 3, 4, 5, 64])
def test_ladder_relation_reads_f_on_the_sector_level_table(k, monkeypatch):
    # sum_s f_s(N) Pi_s is f itself at |n, s>: the right-hand side of the
    # ladder relation is X+ X- plus f, each weight one sum
    d = 12
    spec = StructureSpec.affine_family(k, 0.5, 1.0)
    rep = make_rep(k, d, spec)
    tensor = build_tensor_realization(build_kfermion_pair(k), rep)
    scored = []
    score = fsusy.wkalg.score

    def recorded(pairs, window=None):
        pairs = list(pairs)
        scored.append(pairs)
        return score(pairs, window)

    monkeypatch.setattr(fsusy.wkalg, "score", recorded)
    algebra_relation_residuals([rep, tensor], rep.basis.window(1))
    # the ladder relation is scored first
    [(_, rhs)] = scored[0]
    f = spec.f(np.arange(k)[:, None], np.arange(d))
    for block, one in zip(rhs.weight, (rep, tensor), strict=True):
        assert block.tobytes() == ((one.Xp @ one.Xm).weight + f).tobytes()


def test_tensor_relation_and_spectra_stay_at_round_off_at_order_203():
    # the largest order whose tensor the textbook basis could represent, with
    # A's grade-0 weight 1/[k-1]_q! = 6e-308; summing the k grades' Fourier
    # projector round-off into each weight read 6.09e-14 and 1.08e-13
    config = RunConfig(k=203, d=8, spec=StructureSpec.affine_family(203, 0.5, 1.0), margin=1)
    report = {e.name: e for e in run_verification_suite(config).entries}
    for name in ("tensor.ladder_commutator", "tensor.spectral_distance"):
        assert report[name].residual <= 1e-14, (name, report[name].residual)


def with_A(pair, A):
    """A copy of the pair that holds A as given; A^(k-1) is derived from it."""
    copy = dataclasses.replace(pair)
    vars(copy)["A"] = A  # where functools.cached_property keeps A
    return copy


def textbook_pair(k):
    """The pair in the basis the built one is conjugated from by diag([t]_q!):
    f+ the unit raising shift, f-|t> = [t]_q |t-1>, A = f- + f+^(k-1) / [k-1]_q!."""
    fm = Shift(0, -1, q_numbers(k)[:k, None])
    fp = Shift(0, 1, (np.arange(k) < k - 1).astype(complex)[:, None])
    factorial = math.prod(q_numbers(k)[1:k].tolist(), start=1 + 0j)
    return with_A(KFermionPair(k, fm, fp, fm @ fp - fp @ fm), fm + (1 / factorial) * fp ** (k - 1))


def pair_and_tensor_entries(pair, rep, margin):
    return entries(pair.residuals) + tensor_entries(build_tensor_realization(pair, rep), rep, margin)


@pytest.mark.parametrize("k", [*range(2, 14), 64, 128])
def test_the_textbook_basis_gives_the_same_entries(k):
    # the two pairs are similar, so every identity holds in both.  A weight
    # of X+ X- or X- X+ carries k weights of A, one through X- and k - 1
    # multiplied into A^(k-1) through X+, which cancel in exact arithmetic;
    # in either basis they leave a relative round-off of at most about k
    # epsilon, so a residual read in the two bases differs by at most twice
    # that, and 4 k epsilon leaves a factor 2 for the rounding of the residual
    # itself.  Below k = 204 the textbook basis is representable; at 203 its
    # X+ overflows in [N, X+] at d = 8
    rep = make_rep(k, 8, StructureSpec.affine_family(k, 0.5, 1.0))
    built, textbook = (pair_and_tensor_entries(pair, rep, margin=1)
                       for pair in (build_kfermion_pair(k), textbook_pair(k)))
    assert [(e.name, e.passed) for e in built] == [(e.name, True) for e in textbook]
    bound = 4 * k * np.finfo(float).eps
    for ours, theirs in zip(built, textbook):
        if ours.name.startswith("kfermion."):
            assert ours.residual.hex() == theirs.residual.hex(), ours.name
        else:
            assert abs(ours.residual - theirs.residual) <= bound, (ours.name, ours.residual,
                                                                   theirs.residual)


@pytest.fixture(scope="module")
def order_512():
    rep = make_rep(512, 8, StructureSpec.affine_family(512, 0.5, 1.0))
    return build_kfermion_pair(512), rep


def planted(op, grade):
    """op with its weight at one grade scaled by 1 + 1e-9."""
    weight = op.weight.copy()
    weight[grade] *= 1 + 1e-9
    return dataclasses.replace(op, weight=weight)


@pytest.mark.parametrize("k", [204, 256, 512])
def test_tensor_entries_pass_past_the_textbook_frontier(k, order_512):
    # from k = 204 on, the textbook basis cannot hold A's weight 1/[k-1]_q!;
    # in the built basis every weight of A is 1, f-'s exactly and grade 0's
    # a product of k - 1 rounded ratios [t+1]_q / [t+1]_q
    pair, rep = order_512 if k == 512 else (
        build_kfermion_pair(k), make_rep(k, 8, StructureSpec.affine_family(k, 0.5, 1.0)))
    assert (pair.A.weight[1:] == 1).all()
    assert abs(pair.A.weight[0, 0] - 1) <= k * np.finfo(float).eps
    failed = [(e.name, e.residual) for e in pair_and_tensor_entries(pair, rep, 1) if not e.passed]
    assert failed == []


def test_planted_weights_fail_past_the_textbook_frontier(order_512):
    pair, rep = order_512

    def failed(pair):
        return {e.name for e in pair_and_tensor_entries(pair, rep, 1) if not e.passed}

    # a weight of A moves every product X+ X- by 1e-9 of itself
    assert failed(with_A(pair, planted(pair.A, 100))) == {
        "tensor.ladder_commutator", "tensor.spectral_distance"}
    # a weight of f- also enters A's divisor [N+1]_q = f- f+, so A^k = 1
    # still holds and the tensor passes; the q-commutator fails
    assert failed(dataclasses.replace(pair, fm=planted(pair.fm, 100))) == {
        "kfermion.q_commutator"}
