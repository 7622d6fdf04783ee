import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsusy.errors import (
    ConfigError,
    DegenerateSpaceError,
    DomainError,
    InvalidOrderError,
)
from fsusy.fock import (
    GradedBasis,
    StructureSpec,
    effective_dimension,
    load_table_csv,
    solve_structure_function,
)


def telescoped(spec, s, n):
    # closed form of the marching recursion, summed along its one orbit
    return sum(spec.f((s - j) % spec.k, n - j) for j in range(1, n + 1))


def dyadic_tables(max_k=6, max_d=25):
    # sixteenths keep every sum exact in binary floating point
    return st.integers(2, max_k).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.integers(2, max_d),
            st.lists(st.integers(-32, 64), min_size=k * max_d, max_size=k * max_d),
        )
    )


class TestStructureSpec:
    def test_constant_broadcast(self):
        spec = StructureSpec.constant_values(3, 2.0)
        assert spec.constants == (2.0, 2.0, 2.0)
        assert spec.f(0, 5) == 2.0
        assert spec.f(7, 0) == 2.0  # sector index is cyclic

    def test_constant_per_sector(self):
        spec = StructureSpec.constant_values(3, [1.0, 2.0, 3.0])
        assert [spec.f(s, 9) for s in range(3)] == [1.0, 2.0, 3.0]

    def test_affine(self):
        spec = StructureSpec.affine_family(4, 0.5, 1.0)
        assert spec.f(2, 4) == 3.0

    def test_table_and_missing_argument(self):
        spec = StructureSpec.from_table(2, {(0, 0): 1.0, (1, 0): 2.0})
        assert spec.f(0, 0) == 1.0
        with pytest.raises(DomainError):
            spec.f(0, 5)

    def test_presets(self):
        assert StructureSpec.affine_family(3, 0.0, 1.0).preset == "harmonic"
        assert StructureSpec.affine_family(3, -0.1, 2.0).preset == "morse"
        assert StructureSpec.affine_family(3, 0.5, 1.0).preset == "poschl-teller"
        assert StructureSpec.constant_values(3, 1.0).preset is None
        assert StructureSpec.affine_family(3, 1.0, -1.0).preset is None

    def test_validation(self):
        with pytest.raises(InvalidOrderError):
            StructureSpec.constant_values(1, 1.0)
        with pytest.raises(ConfigError):
            StructureSpec(k=3, family="weird")
        with pytest.raises(ConfigError):
            StructureSpec(k=3, family="constant", constants=(1.0,))
        with pytest.raises(ConfigError):
            StructureSpec(k=3, family="affine", a=1.0)
        with pytest.raises(ConfigError):
            StructureSpec.from_table(2, {(5, 0): 1.0})

    @pytest.mark.parametrize("kwargs", [
        dict(family="constant", constants=(1.0, float("nan"))),
        dict(family="constant", constants=(float("inf"), 1.0)),
        dict(family="affine", a=float("nan"), b=1.0),
        dict(family="affine", a=0.5, b=float("-inf")),
        dict(family="table", table={(0, 0): 1.0, (1, 0): float("nan")}),
    ])
    def test_rejects_non_finite_values(self, kwargs):
        with pytest.raises(ConfigError, match="must be finite"):
            StructureSpec(k=2, **kwargs)


class TestGradedBasis:
    def test_layout(self):
        basis = GradedBasis(3, 4)
        assert basis.dim == 12
        assert basis.index(0, 0) == 0
        assert basis.index(2, 1) == 6
        assert basis.index(1, 3) == 1  # sector wraps mod k

    def test_bounds(self):
        basis = GradedBasis(3, 4)
        with pytest.raises(ValueError):
            basis.index(4, 0)
        with pytest.raises(ValueError):
            basis.state(12)
        with pytest.raises(InvalidOrderError):
            GradedBasis(1, 4)
        with pytest.raises(DegenerateSpaceError):
            GradedBasis(3, 1)

    @given(k=st.integers(2, 6), d=st.integers(2, 20), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_index_state_roundtrip(self, k, d, data):
        basis = GradedBasis(k, d)
        i = data.draw(st.integers(0, basis.dim - 1))
        n, s = basis.state(i)
        assert basis.index(n, s) == i


def test_constant_solution_is_linear():
    spec = StructureSpec.constant_values(3, 1.0)
    F = solve_structure_function(spec, 10)
    for s in range(3):
        for n in range(11):
            assert F.value(s, n) == n


def test_recursion_residual_is_zero():
    spec = StructureSpec.affine_family(4, 0.5, 1.0)
    F = solve_structure_function(spec, 12)
    for s in range(4):
        for n in range(12):
            lhs = F.value((s + 1) % 4, n + 1) - F.value(s, n)
            assert lhs == pytest.approx(spec.f(s, n), abs=1e-13)


@given(dyadic_tables())
@settings(max_examples=50, deadline=None)
def test_solver_matches_telescoped_form_exactly(case):
    k, d, raw = case
    entries = {}
    for s in range(k):
        for n in range(-k, d):
            entries[(s, n)] = raw[(s * d + n) % len(raw)] / 16.0
    spec = StructureSpec.from_table(k, entries)
    F = solve_structure_function(spec, d)
    for s in range(k):
        for n in range(d + 1):
            assert F.value(s, n) == telescoped(spec, s, n)


def test_truncate():
    spec = StructureSpec.constant_values(2, 1.0)
    F = solve_structure_function(spec, 10)
    cut = F.truncate(4)
    assert cut.d == 4
    assert cut.values.shape == (2, 5)
    with pytest.raises(ValueError):
        F.truncate(11)


def test_effective_dimension_truncates_at_sign_change():
    # f_s(n) = 3 - n turns F negative at n = 8 in every sector
    entries = {(s, n): 3.0 - n for s in range(3) for n in range(-3, 21)}
    spec = StructureSpec.from_table(3, entries)
    F = solve_structure_function(spec, 20)
    assert effective_dimension(F, 20) == 8


def test_effective_dimension_passthrough():
    spec = StructureSpec.constant_values(2, 1.0)
    F = solve_structure_function(spec, 15)
    assert effective_dimension(F, 15) == 15
    with pytest.raises(ValueError):
        effective_dimension(F, 16)


AFFINE_A = (-1.0, -0.5, -0.25, -0.125, 0.0, 0.125, 0.5, 2.0)
AFFINE_B = (0.25, 1.0, 1.5, 4.0)


@pytest.mark.parametrize("k", range(2, 6))
def test_affine_family_matches_closed_form(k):
    # f is shared by every sector, so F_s(n) = b n + a n(n-1)/2 for every s;
    # for a < 0 its first negative value sits at floor(1 - 2b/a) + 1, the
    # bound-state count of the Morse-like case
    d = 64
    n = np.arange(d + 1)
    for a in AFFINE_A:
        for b in AFFINE_B:
            F = solve_structure_function(StructureSpec.affine_family(k, a, b), d)
            closed = b * n + a * n * (n - 1) / 2
            for s in range(k):
                np.testing.assert_allclose(F.values[s], closed, rtol=1e-12, atol=0,
                                           err_msg=f"a={a} b={b} s={s}")
            if a < 0:
                expected = min(d, int(np.floor(1 - 2 * b / a)) + 1)
                assert effective_dimension(F, d) == expected, (a, b)


def test_effective_dimension_rejects_immediate_negativity():
    spec = StructureSpec.constant_values(2, -1.0)
    F = solve_structure_function(spec, 10)
    with pytest.raises(DegenerateSpaceError):
        effective_dimension(F, 10)


class TestLoadTableCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_happy_path(self, tmp_path):
        path = self.write(tmp_path, "s,n,f\n0,-1,2.5\n0,0,1.0\n1,0,3.0\n")
        spec = load_table_csv(path, 2)
        assert spec.f(0, -1) == 2.5
        assert spec.f(1, 0) == 3.0

    def test_requires_header(self, tmp_path):
        path = self.write(tmp_path, "0,0,1.0\n")
        with pytest.raises(ConfigError):
            load_table_csv(path, 2)

    def test_rejects_bad_arity(self, tmp_path):
        path = self.write(tmp_path, "s,n,f\n0,0\n")
        with pytest.raises(ConfigError):
            load_table_csv(path, 2)

    def test_rejects_duplicates(self, tmp_path):
        path = self.write(tmp_path, "s,n,f\n0,0,1.0\n0,0,2.0\n")
        with pytest.raises(ConfigError):
            load_table_csv(path, 2)

    def test_rejects_unparseable_numbers(self, tmp_path):
        path = self.write(tmp_path, "s,n,f\n0,zero,1.0\n")
        with pytest.raises(ConfigError):
            load_table_csv(path, 2)

    def test_rejects_out_of_range_sector(self, tmp_path):
        path = self.write(tmp_path, "s,n,f\n5,0,1.0\n")
        with pytest.raises(ConfigError):
            load_table_csv(path, 2)

    def test_skips_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "s,n,f\n\n0,0,1.0\n\n")
        spec = load_table_csv(path, 2)
        assert spec.f(0, 0) == 1.0


def test_solution_shape_and_origin():
    spec = StructureSpec.affine_family(5, 0.25, 0.5)
    F = solve_structure_function(spec, 8)
    assert F.values.shape == (5, 9)
    assert np.all(F.values[:, 0] == 0.0)
