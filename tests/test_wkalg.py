import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsusy.errors import (
    InvalidGradingError,
    RepresentationError,
    WindowTooSmallError,
)
from fsusy.fock import GradedBasis, StructureSpec, solve_structure_function
from fsusy.qarith import primitive_root
from fsusy.wkalg import (
    ColumnMap,
    build_projectors,
    build_rep,
    sector_mask,
    residual,
    verify_wk_relations,
    window_mask,
)


def make_rep(k, d, spec=None):
    spec = spec or StructureSpec.constant_values(k, 1.0)
    basis = GradedBasis(k, d)
    return build_rep(spec, basis, solve_structure_function(spec, d))


def test_ladder_matrix_elements():
    rep = make_rep(3, 6)
    basis = rep.basis
    F = rep.F
    Xm = rep.Xm.dense()
    for s in range(3):
        for n in range(1, 6):
            elem = Xm[basis.index(n - 1, s - 1), basis.index(n, s)]
            assert elem == pytest.approx(np.sqrt(F.value(s, n)))
    # X- annihilates every sector ground state
    for s in range(3):
        assert np.all(Xm[:, basis.index(0, s)] == 0)


def test_raising_is_exact_adjoint():
    rep = make_rep(4, 8, StructureSpec.affine_family(4, 0.5, 1.0))
    assert np.array_equal(rep.Xp.dense(), rep.Xm.dense().conj().T)


def test_number_and_grading_diagonals():
    rep = make_rep(3, 5)
    basis = rep.basis
    q = primitive_root(3)
    N, K = rep.N.dense(), rep.K.dense()
    for s in range(3):
        for n in range(5):
            i = basis.index(n, s)
            assert N[i, i] == n
            assert K[i, i] == q**s


def test_negative_structure_value_is_rejected():
    # f_s(0) = -1 drives F_s(1) = -1 below zero in every sector
    spec = StructureSpec.from_table(
        2, {(s, n): (-1.0 if n == 0 else 1.0) for s in range(2) for n in range(6)}
    )
    basis = GradedBasis(2, 6)
    F = solve_structure_function(spec, 6)
    with pytest.raises(RepresentationError):
        build_rep(spec, basis, F)


def test_structure_function_must_cover_basis():
    spec = StructureSpec.constant_values(2, 1.0)
    with pytest.raises(RepresentationError):
        build_rep(spec, GradedBasis(2, 10), solve_structure_function(spec, 5))


class TestProjectors:
    def test_resolution_of_identity(self):
        rep = make_rep(3, 5)
        total = sum(p.dense() for p in rep.projectors)
        assert np.allclose(total, np.eye(15), atol=1e-12)

    def test_idempotent_and_orthogonal(self):
        rep = make_rep(4, 5)
        for s, p in enumerate(rep.projectors):
            P = p.dense()
            assert np.allclose(P @ P, P, atol=1e-12)
            for t, other in enumerate(rep.projectors):
                if t != s:
                    assert np.linalg.norm(P @ other.dense()) < 1e-12

    def test_cyclic_accessor(self):
        rep = make_rep(3, 5)
        assert rep.projector(3) is rep.projectors[0]
        assert rep.projector(-1) is rep.projectors[2]

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidGradingError, match="not unitary"):
            build_projectors(2.0 * np.ones(4, dtype=complex), 2)

    def test_rejects_wrong_order(self):
        q = primitive_root(3)
        K = np.array([1, q, q**2, q**2], dtype=complex)
        with pytest.raises(InvalidGradingError, match="not cyclic of order 2"):
            build_projectors(K, 2)

    @pytest.mark.parametrize("d", [1, 8, 40])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_dense_fourier_oracle(self, k, d):
        q = primitive_root(k)
        diag = np.repeat(q ** np.arange(k), d)
        K, eye = np.diag(diag), np.eye(k * d, dtype=complex)
        powers = [eye]
        for _ in range(k - 1):
            powers.append(powers[-1] @ K)
        projectors = build_projectors(diag, k)
        assert len(projectors) == k
        for s, P in enumerate(projectors):
            dense = sum(q ** (-s * t) * powers[t] for t in range(k)) / k
            assert np.abs(P - np.diag(dense)).max() <= 1e-15
            # every state of a sector gets the same value
            blocks = P.reshape(k, d)
            assert np.array_equal(blocks, np.repeat(blocks[:, :1], d, axis=1))
        # the k Fourier sums each carry about one ulp per term: 1.8e-15 at k = 8
        assert np.abs(sum(projectors) - 1).max() <= 2 * k * np.finfo(float).eps

    def test_matches_exact_selector(self):
        rep = make_rep(3, 6)
        for s in range(3):
            sel = np.diag(sector_mask(rep.basis, s))
            assert np.allclose(rep.projectors[s].dense(), sel, atol=1e-12)


def test_sector_mask_layout():
    basis = GradedBasis(3, 4)
    mask = sector_mask(basis, 1) | sector_mask(basis, 3)  # 3 wraps to 0
    assert mask.dtype == bool
    assert np.all(mask[basis.index(0, 1) : basis.index(3, 1) + 1])
    assert np.all(mask[basis.index(0, 0) : basis.index(3, 0) + 1])
    assert not np.any(mask[basis.index(0, 2) : basis.index(3, 2) + 1])


def test_window_mask_shape_and_errors():
    basis = GradedBasis(2, 6)
    mask = window_mask(basis, 2)
    for s in range(2):
        for n in range(6):
            assert mask[basis.index(n, s)] == (n <= 3)
    with pytest.raises(WindowTooSmallError):
        window_mask(basis, 0)
    with pytest.raises(WindowTooSmallError):
        window_mask(basis, 5)


def test_residual_scales_each_column():
    values = np.array([0.5, 2.0, 1e6, 4.0])
    lhs = ColumnMap.diag(values)
    assert residual(lhs, lhs) == 0.0
    # weights below 1 deviate absolutely, larger ones relatively
    assert residual(lhs, ColumnMap.diag([0.25, 2.0, 1e6, 4.0])) == 0.25
    assert residual(lhs, ColumnMap.diag(values * [1, 1, 1 + 1e-9, 1])) == pytest.approx(1e-9)
    # one scaled weight shows at its own size, however many columns agree
    big = ColumnMap.diag(np.arange(1.0, 10001.0))
    scaled = ColumnMap.diag(big.weight * np.where(np.arange(10000) == 7, 1 + 1e-9, 1))
    assert residual(big, scaled) == pytest.approx(1e-9)
    # a weight in another row counts in full: (2 + 2) / 2
    moved = ColumnMap(np.array([0, 2, 2, 3]), values)
    assert residual(lhs, moved) == 2.0
    # only window columns count, and an empty window leaves nothing to deviate
    window = np.array([True, False, True, True])
    assert residual(lhs, moved, window) == 0.0
    assert residual(lhs, moved, np.zeros(4, dtype=bool)) == 0.0


@pytest.mark.parametrize(
    "k,d,spec",
    [
        (2, 12, None),
        (3, 12, None),
        (3, 14, StructureSpec.affine_family(3, 0.5, 1.0)),
        (5, 10, StructureSpec.affine_family(5, 0.0, 2.0)),
        (4, 12, StructureSpec.constant_values(4, [1.0, 2.0, 0.5, 1.5])),
    ],
)
def test_defining_relations_hold(k, d, spec):
    rep = make_rep(k, d, spec)
    entries = verify_wk_relations(rep, margin=2)
    assert len(entries) == 5
    for e in entries:
        assert e.passed, (e.name, e.residual)
        assert e.residual < 1e-10


@given(k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_relations_hold_for_random_nonnegative_tables(k, seed):
    rng = np.random.default_rng(seed)
    d = 8
    entries = {
        (s, n): float(rng.uniform(0.1, 3.0)) for s in range(k) for n in range(d)
    }
    spec = StructureSpec.from_table(k, entries)
    rep = make_rep(k, d, spec)
    for e in verify_wk_relations(rep, margin=2):
        assert e.residual < 1e-10, (e.name, e.residual)


def test_grading_commutes_with_number_exactly():
    rep = make_rep(3, 8)
    K, N = rep.K.dense(), rep.N.dense()
    comm = K @ N - N @ K
    assert np.linalg.norm(comm) == 0.0


# dyadic weights keep every product and sum exact, so the column-map results
# must equal the dense ones bit for bit
dyadic = st.builds(lambda re, im: complex(re, im) / 8, st.integers(-16, 16), st.integers(-16, 16))


@st.composite
def column_maps(draw, dim, targets=None):
    """A column map on dim states; its nonzero columns follow ``targets`` if given."""
    if targets is None:
        targets = draw(st.lists(st.integers(-1, dim - 1), min_size=dim, max_size=dim))
    weight = np.array(draw(st.lists(dyadic, min_size=dim, max_size=dim)))
    target = np.array(targets)
    weight[target < 0] = 0
    return ColumnMap(target, weight)


@st.composite
def partial_permutations(draw, dim):
    """A column map with distinct rows, so it has an adjoint."""
    rows = draw(st.permutations(range(dim)))
    empty = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    return draw(column_maps(dim, [-1 if e else r for r, e in zip(rows, empty)]))


def dense_residual(lhs: np.ndarray, rhs: np.ndarray, window: np.ndarray) -> float:
    """Column 1-norm of lhs - rhs over max(1, column 1-norms), largest on the window."""
    col = lambda m: np.abs(m).sum(axis=0)
    dev = col(lhs - rhs) / np.maximum(1.0, np.maximum(col(lhs), col(rhs)))
    return float(dev[window].max(initial=0.0))


@given(k=st.integers(2, 4), d=st.integers(2, 8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_column_map_matches_dense_oracle(k, d, data):
    dim = k * d
    A = data.draw(column_maps(dim))
    B = data.draw(column_maps(dim))
    P = data.draw(partial_permutations(dim))
    assert np.array_equal((A @ B).dense(), A.dense() @ B.dense())
    assert np.array_equal((A ** 3).dense(), np.linalg.matrix_power(A.dense(), 3))
    assert np.array_equal(P.adjoint().dense(), P.dense().conj().T)
    c = data.draw(dyadic)
    assert np.array_equal((c * A).dense(), c * A.dense())

    # same shift: C shares A's rows wherever both are nonzero
    C = data.draw(column_maps(dim, [t if w != 0 else data.draw(st.integers(-1, dim - 1))
                                    for t, w in zip(A.target, A.weight)]))
    assert np.array_equal((A + C).dense(), A.dense() + C.dense())
    assert np.array_equal((A - C).dense(), A.dense() - C.dense())

    window = np.array(data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    Wd = np.diag(window.astype(complex))
    assert residual(A, C, window) == dense_residual(A.dense(), C.dense(), window)
    assert residual(A, B) == dense_residual(A.dense(), B.dense(), np.ones(dim, dtype=bool))
    assert np.array_equal(A.masked(window).dense(), A.dense() @ Wd)

    # a different shift on a column where both are nonzero is refused by
    # + and -, and the residual counts both weights there
    live = np.flatnonzero(A.weight != 0)
    if live.size:
        j = data.draw(st.sampled_from(live.tolist()))
        moved = A.target.copy()
        moved[j] = (moved[j] + 1) % dim
        D = ColumnMap(moved, A.weight)
        with pytest.raises(ValueError):
            A + D
        with pytest.raises(ValueError):
            A - D
        assert residual(A, D, window) == dense_residual(A.dense(), D.dense(), window)
        assert residual(A, D) > 0.0
