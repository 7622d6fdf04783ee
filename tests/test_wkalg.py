import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import flat
from fsusy.errors import RepresentationError, WindowTooSmallError
from fsusy.fock import FULL_SPACE, GradedBasis, StructureSpec, solve_structure_function
from fsusy.qarith import primitive_root
from fsusy.wkalg import (
    STRICT_FACTOR,
    Shift,
    Scoring,
    algebra_relation_residuals,
    build_rep,
    _grading,
    deviation,
    score,
)
from fsusy.suite import RunConfig, build_system, named_operators


def make_rep(k, d, spec=None):
    spec = spec or StructureSpec.constant_values(k, 1.0)
    return build_rep(spec, solve_structure_function(spec, d))


def test_ladder_matrix_elements():
    rep = make_rep(3, 6)
    basis = rep.basis
    F = rep.F
    Xm = rep.Xm.dense()
    for s in range(3):
        for n in range(1, 6):
            elem = Xm[flat(basis, n - 1, s - 1), flat(basis, n, s)]
            assert elem == pytest.approx(np.sqrt(F[s, n]))
    # X- annihilates every sector ground state
    for s in range(3):
        assert np.all(Xm[:, flat(basis, 0, s)] == 0)


def test_raising_is_exact_adjoint():
    rep = make_rep(4, 8, StructureSpec.affine_family(4, 0.5, 1.0))
    assert np.array_equal(rep.Xp.dense(), rep.Xm.dense().conj().T)


def test_adjoint_negates_the_shift():
    # |n, g> -> |n + 1, g + 2 mod 3>; the top level has no row and holds 0
    weight = np.array([[1, 2j, 0], [3, 4, 0], [5 - 1j, 6, 0]], dtype=complex)
    op = Shift(1, 2, weight)
    adj = op.adjoint()
    assert (adj.dn, adj.ds) == (-1, -2)
    assert np.array_equal(adj.dense(), op.dense().conj().T)
    # row |n + 1, g + 2> of op's column |n, g> is adj's column, level 0 empty
    assert adj.weight[2, 1] == 1 and adj.weight[1, 1] == 5 + 1j and not adj.weight[:, 0].any()
    # columns 0 .. 8 go to rows 7, 8, -, 1, 2, -, 4, 5, -: the top level has none
    rows, cols, weights = op.entries()
    assert rows.tolist() == [1, 2, 4, 5, 7, 8] and cols.tolist() == [3, 4, 6, 7, 0, 1]
    assert weights.tolist() == [3, 4, 5 - 1j, 6, 1, 2j]


def test_number_and_grading_diagonals():
    rep = make_rep(3, 5)
    basis = rep.basis
    q = primitive_root(3)
    N, K = rep.N.dense(), rep.K.dense()
    for s in range(3):
        for n in range(5):
            i = flat(basis, n, s)
            assert N[i, i] == n
            assert K[i, i] == q**s


def test_negative_structure_value_is_rejected():
    # f_s(0) = -1 drives F_s(1) = -1 below zero in every sector
    spec = StructureSpec.from_table(
        2, {(s, n): (-1.0 if n == 0 else 1.0) for s in range(2) for n in range(6)}
    )
    F = solve_structure_function(spec, 6)
    with pytest.raises(RepresentationError):
        build_rep(spec, F)


def test_build_rep_reads_its_basis_from_F():
    spec = StructureSpec.constant_values(2, 1.0)
    F = solve_structure_function(spec, 10)
    rep = build_rep(spec, F[:, :5])
    assert rep.basis == GradedBasis(2, 5)
    assert rep.F.shape == (rep.basis.k, rep.basis.d)
    assert rep.Xm.weight.shape == rep.N.weight.shape == (2, 5)


def fourier_projector(k, d, s):
    """Row s of the Fourier table that H and the dump read, lifted over d levels."""
    return Shift.diag(np.repeat(_grading(k)[1][s][:, None], d, 1))


class TestProjectors:
    def test_resolution_of_identity(self):
        total = sum(fourier_projector(3, 5, s).dense() for s in range(3))
        assert np.allclose(total, np.eye(15), atol=1e-12)

    def test_idempotent_and_orthogonal(self):
        for s in range(4):
            P = fourier_projector(4, 5, s).dense()
            assert np.allclose(P @ P, P, atol=1e-12)
            for t in range(4):
                if t != s:
                    assert np.linalg.norm(P @ fourier_projector(4, 5, t).dense()) < 1e-12

    def test_dump_lifts_each_table_row(self):
        # one (k, k) table, row s the value of Pi_s on each sector, lifted
        # only when the dump asks for Pi_s
        config = RunConfig(k=3, d=5, spec=StructureSpec.constant_values(3, 1.0), margin=1)
        operators = named_operators(build_system(config))
        table = _grading(3)[1]
        assert table.shape == (3, 3)
        for s in range(3):
            P = operators[f"Pi_{s}"]()
            assert (P.dn, P.ds) == (0, 0)
            assert P.weight.tobytes() == np.repeat(table[s], 5).tobytes()

    @pytest.mark.parametrize("d", [1, 8, 40])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_dense_fourier_oracle(self, k, d):
        q = primitive_root(k)
        diag = np.repeat(q ** np.arange(k), d)
        K, eye = np.diag(diag), np.eye(k * d, dtype=complex)
        powers = [eye]
        for _ in range(k - 1):
            powers.append(powers[-1] @ K)
        # each sector's value of the table, repeated over its d states
        projectors = np.repeat(_grading(k)[1], d, axis=1)
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
        for s in range(3):
            sel = np.diag(np.repeat(np.arange(3) == s, 6))
            assert np.allclose(fourier_projector(3, 6, s).dense(), sel, atol=1e-12)


def test_sector_mask_layout():
    # a (k, 1) sector mask and a (d,) level mask broadcast over the (k, d)
    # table; as diagonals they select the dense columns of their states
    basis = GradedBasis(3, 4)
    sector = np.array([True, True, False])[:, None]  # sectors 0 and 1
    level = np.arange(4) <= 1
    keep = Shift.diag(np.ones((3, 4))).masked(sector & level).dense().diagonal()
    assert [i for i in range(basis.dim) if keep[i]] == sorted(
        flat(basis, n, s) for s in (0, 1) for n in (0, 1))


def test_window_mask_shape_and_errors():
    basis = GradedBasis(2, 6)
    mask, description = basis.window(2)
    assert description == "levels n <= 3 of 6 (margin 2)"
    # one level mask, broadcast over the sectors
    assert mask.tolist() == [n <= 3 for n in range(6)]
    # callers clear states in their window, which must not leak into the next
    mask[:] = False
    assert basis.window(2)[0].sum() == 4
    with pytest.raises(WindowTooSmallError, match="margin must be at least 1, got 0"):
        basis.window(0)
    with pytest.raises(
        WindowTooSmallError, match="margin 5 leaves no window below the ceiling of 6 levels"
    ):
        basis.window(5)


def test_residual_scales_each_column():
    values = np.array([[0.5, 2.0], [1e6, 4.0]])
    lhs = Shift.diag(values)
    assert score([(lhs, lhs)]) == 0.0
    # weights below 1 deviate absolutely, larger ones relatively
    assert score([(lhs, Shift.diag([[0.25, 2.0], [1e6, 4.0]]))]) == 0.25
    assert score([(lhs, Shift.diag(values * [[1, 1], [1 + 1e-9, 1]]))]) == pytest.approx(1e-9)
    # one scaled weight shows at its own size, however many columns agree
    big = Shift.diag(np.arange(1.0, 10001.0).reshape(100, 100))
    scaled = Shift.diag(big.weight * np.where(np.arange(10000) == 7, 1 + 1e-9, 1).reshape(100, 100))
    assert score([(big, scaled)]) == pytest.approx(1e-9)
    # weights in another row count in full: (0.5 + 0.5) / 1 and (2 + 2) / 2
    moved = Shift(0, 1, values)
    assert deviation(lhs, moved).tolist() == [[1.0, 2.0], [2.0, 2.0]]
    assert score([(lhs, moved)]) == 2.0
    # only window columns count, and an empty window leaves nothing to deviate
    window = np.array([[True, False], [False, False]])
    assert score([(lhs, moved)], window) == 1.0
    assert score([(lhs, moved)], np.zeros(2, dtype=bool)) == 0.0


def test_deviation_of_rows_that_differ_under_a_zero_weight():
    # a zero weight in another row (or a column without a row) deviates by the
    # other weight alone, as it does in the same row; signed zeros read as zeros
    lhs = Shift(0, 0, np.array([[0.0, 0.5, -0.0], [0.25, -0.0, 0.0]]))
    rhs = Shift(0, 1, np.array([[3.0, 0.0, 0.0], [0.0, 0.0, -0.0]]))
    # the top level has no row
    empty = Shift(1, 1, np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    for other in (rhs, empty):
        dev = deviation(lhs, other)
        assert dev.tolist() == [[1.0, 0.5, 0.0], [0.25, 0.0, 0.0]]
        assert dev.tolist() == deviation(lhs, Shift(0, 0, rhs.weight)).tolist()
        assert not np.signbit(dev).any()
        assert score([(lhs, other)]) == 1.0


@np.errstate(over="ignore", invalid="ignore")  # as the suite's build and verify run
def test_deviation_of_inf_and_nan_weights():
    # an inf or NaN weight makes its column NaN in any row, which the entry
    # then reports as an overflow; the other columns keep their deviation
    inf, nan = np.inf, np.nan
    lhs = Shift(0, 0, np.array([[inf, inf, nan], [nan, 0.0, 1.0]]))
    for ds, last in ((0, 0.5), (1, 1.5)):
        rhs = Shift(0, ds, np.array([[1.0, 0.0, 1.0], [1.0, inf, 0.5]]))
        dev = deviation(lhs, rhs)
        assert np.isnan(dev.ravel()[:5]).all()
        assert dev[1, 2] == last
    residual = score([(lhs, rhs)])
    assert np.isnan(residual)
    entry = Scoring(1e-8).entry("x.y", "x = y", residual, "windowed", FULL_SPACE)
    assert entry.error == "the products of this identity overflow float64"


@np.errstate(over="ignore", invalid="ignore")
def test_product_spreads_an_inf_weight_as_nan():
    # a zero weight of the right factor whose row holds an inf in the left
    # factor gives NaN, bit for bit the complex product; a column without a
    # row holds 0, whatever the left factor holds
    left = Shift(0, 1, np.array([[1.0 + 1.0j, np.inf, 2.0], [4.0, 5.0, np.inf]]))
    right = Shift(1, 1, np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex))
    product = left @ right
    assert (product.dn, product.ds) == (1, 2)
    # column |n, g> reads the left factor at |n + 1, g + 1 mod 2>
    expected = np.array([[left.weight[1, 1] * 0.0, left.weight[1, 2] * 3.0, 0],
                         [left.weight[0, 1] * 0.0, left.weight[0, 2] * 0.0, 0]])
    assert np.array_equal(product.weight.view(np.int64), expected.view(np.int64))
    assert np.isnan(product.weight[1, 0]) and product.weight[0, 1].real == np.inf
    assert np.isnan(score([(product, product)]))


def test_columns_narrow_and_describe_themselves():
    basis = GradedBasis(2, 6)
    window = basis.window(2)
    shift = window.narrow((np.arange(2) == 1)[:, None], "sector 1")
    assert shift.text == "levels n <= 3 of 6 (margin 2), sector 1"
    # a (d,) level mask narrowed by a (k, 1) sector mask is a (k, d) table
    assert shift.mask.tolist() == [[False] * 6, [True] * 4 + [False] * 2]
    # without a mask only the text grows
    noted = window.narrow(None, "omitting ground level of sector 0")
    assert noted.text == "levels n <= 3 of 6 (margin 2), omitting ground level of sector 0"
    assert np.array_equal(noted.mask, window.mask)


def test_score_takes_every_pair_within_each_block():
    # two blocks of a (2, 1, 2) stack, each scored over its own (1, 2) table
    one = Shift.diag([[[1.0, 1.0]], [[1.0, 1.0]]])
    first = Shift.diag([[[1.5, 1.0]], [[1.0, 1.25]]])
    second = Shift.diag([[[1.0, 1.75]], [[1.0, 1.0]]])
    pairs = [(one, first), (one, second)]
    assert score(pairs).tolist() == [0.75 / 1.75, 0.25 / 1.25]
    # a level mask broadcasts over the blocks, a block mask picks blocks
    assert score(pairs, np.array([True, False])).tolist() == [0.5 / 1.5, 0.0]
    assert score(pairs, np.array([False, True])[:, None, None]).tolist() == [0.0, 0.25 / 1.25]
    # a single map gives a 0-d residual, and no pair leaves nothing to deviate
    single = [(Shift.diag(one.weight[0]), Shift.diag(first.weight[0]))]
    assert score(single).shape == () and score(single) == 0.5 / 1.5
    assert score([]) == 0.0


def test_score_refuses_a_window_that_reshapes_the_table():
    # a window of a (2, 1, 2) table broadcasts to that shape or is refused:
    # one that does not broadcast, and one that would make the table larger
    table = Shift.diag(np.ones((2, 1, 2)))
    for shape in ((2,), (1, 2), (2, 1, 1), (2, 1, 2)):
        assert score([(table, table)], np.ones(shape, dtype=bool)).shape == (2,)
    for shape in ((3,), (2, 3)):
        with pytest.raises(ValueError, match="broadcast"):
            score([(table, table)], np.ones(shape, dtype=bool))
    for shape in ((2, 2), (1, 2, 1, 2)):
        with pytest.raises(ValueError, match=rf"window of shape \({shape[0]}, .* does not fit"):
            score([(table, table)], np.ones(shape, dtype=bool))


def test_scoring_tiers_and_overflow():
    scoring = Scoring(1e-8)
    window = GradedBasis(2, 6).window(2)
    entries = [scoring.entry("x.y", "x = y", 5e-9, tier, window)
               for tier in ("exact", "windowed", "strict")]
    assert [e.tolerance for e in entries] == [0.0, 1e-8, 1e-8 * STRICT_FACTOR]
    assert [e.passed for e in entries] == [False, True, False]
    assert all(e.window == window.text and e.error is None for e in entries)
    assert scoring.entry("x.y", "x = y", 0.0, "exact", FULL_SPACE).passed
    for value in (np.nan, np.inf):
        entry = scoring.entry("x.y", "x = y", value, "strict", window)
        assert (entry.residual, entry.passed, entry.window) == (None, False, window.text)
        assert entry.error == "the products of this identity overflow float64"
    with pytest.raises(KeyError):
        scoring.entry("x.y", "x = y", 0.0, "loose", window)


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
    window = rep.basis.window(2)
    residuals = algebra_relation_residuals([rep], window)
    assert len(residuals) == 1
    entries = Scoring(1e-10).entries(
        {f"algebra.{key}": (val, window) for key, val in residuals[0].items()})
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
    for key, residual in algebra_relation_residuals([rep], rep.basis.window(2))[0].items():
        assert residual < 1e-10, (key, residual)


def test_grading_commutes_with_number_exactly():
    rep = make_rep(3, 8)
    K, N = rep.K.dense(), rep.N.dense()
    comm = K @ N - N @ K
    assert np.linalg.norm(comm) == 0.0


# dyadic weights keep every product and sum exact, so the graded-shift
# results must equal the dense ones bit for bit
dyadic = st.builds(lambda re, im: complex(re, im) / 8, st.integers(-16, 16), st.integers(-16, 16))


@st.composite
def shifts(draw, shape, dn=None, ds=None):
    """A graded shift with weight table ``shape``, random steps unless given and
    dyadic weights; the columns without a row hold 0.  The level step reaches
    past twice the d levels, as the powers of Q- do at k > d."""
    *_, K, d = shape
    dn = draw(st.integers(-2 * d - 1, 2 * d + 1)) if dn is None else dn
    ds = draw(st.integers(-2 * K, 2 * K)) if ds is None else ds
    weight = np.array(draw(st.lists(dyadic, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))).reshape(shape)
    level = np.arange(d) + dn
    weight[..., (level < 0) | (level >= d)] = 0
    return Shift(dn, ds, weight)


def dense_oracle(op: Shift) -> np.ndarray:
    """The dense matrix of a graded shift, one column at a time: column
    |b, g, n> of the C order holds its weight in row |b, g + ds mod K, n + dn>."""
    *_, K, d = op.weight.shape
    mat = np.zeros((op.dim, op.dim), dtype=complex)
    for col, (b, g, n) in enumerate(np.ndindex(op.dim // (K * d), K, d)):
        if 0 <= n + op.dn < d:
            mat[(b * K + (g + op.ds) % K) * d + n + op.dn, col] = op.weight.flat[col]
    return mat


def dense_residual(lhs: np.ndarray, rhs: np.ndarray, window: np.ndarray) -> list[float]:
    """Column 1-norm of lhs - rhs over max(1, column 1-norms), largest on the
    window columns of each block; the window is the table mask, flattened
    for the dense matrices."""
    col = lambda m: np.abs(m).sum(axis=0)
    dev = col(lhs - rhs) / np.maximum(1.0, np.maximum(col(lhs), col(rhs)))
    blocks = window.reshape(window.shape[0], -1)
    dev = dev.reshape(blocks.shape)
    return [float(d[w].max(initial=0.0)) for d, w in zip(dev, blocks)]


@given(blocks=st.integers(1, 2), K=st.integers(2, 4), d=st.integers(2, 6), data=st.data())
@settings(max_examples=60, deadline=None)
def test_column_map_matches_dense_oracle(blocks, K, d, data):
    shape = (blocks, K, d)
    dim = blocks * K * d
    A = data.draw(shifts(shape))
    B = data.draw(shifts(shape))
    assert np.array_equal((A @ B).dense(), A.dense() @ B.dense())
    assert np.array_equal((A ** 3).dense(), np.linalg.matrix_power(A.dense(), 3))
    # every column has its own row, so every shift has an adjoint
    assert np.array_equal(A.adjoint().dense(), A.dense().conj().T)
    c = data.draw(dyadic)
    assert np.array_equal((c * A).dense(), c * A.dense())
    # each column's weight sits in its row, and entries() lists the nonzero
    # ones row by row
    oracle = dense_oracle(A)
    assert np.array_equal(A.dense(), oracle)
    rows, cols, weights = A.entries()
    assert np.all(np.diff(rows) > 0)
    assert [rows.tolist(), cols.tolist()] == [i.tolist() for i in np.nonzero(oracle)]
    assert np.array_equal(weights, oracle[rows, cols])

    # the same shift, its grade step possibly a multiple of K apart
    C = data.draw(shifts(shape, A.dn, A.ds + K * data.draw(st.integers(-1, 1))))
    assert np.array_equal((A + C).dense(), A.dense() + C.dense())
    assert np.array_equal((A - C).dense(), A.dense() - C.dense())

    window = np.array(data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    window = window.reshape(shape)
    Wd = np.diag(window.ravel().astype(complex))
    assert score([(A, C)], window).tolist() == dense_residual(A.dense(), C.dense(), window)
    assert score([(A, B)]).tolist() == dense_residual(A.dense(), B.dense(), np.ones(shape, bool))
    assert np.array_equal(A.masked(window).dense(), A.dense() @ Wd)
    # a sector mask broadcasts over the blocks and levels
    sector = np.array(data.draw(st.lists(st.booleans(), min_size=K, max_size=K)))[:, None]
    assert np.array_equal(A.masked(sector).dense(),
                          A.dense() @ np.diag(np.broadcast_to(sector, shape).ravel()))

    # another grade step moves every column's row: + and - refuse it, the
    # residual counts both weights in every column, and blocks of one
    # operator must share one shift
    D = Shift(A.dn, A.ds + 1, A.weight)
    for combine in (A.__add__, A.__sub__):
        with pytest.raises(ValueError, match="different steps"):
            combine(D)
    assert score([(A, D)], window).tolist() == dense_residual(A.dense(), D.dense(), window)
    with pytest.raises(ValueError, match="one shift"):
        Shift.stack([A, D])
    stacked = Shift.stack([A, C])
    assert stacked.weight.shape == (2, *shape)
    assert np.array_equal(stacked.dense()[:dim, :dim], A.dense())
    assert np.array_equal(stacked.dense()[dim:, dim:], C.dense())
