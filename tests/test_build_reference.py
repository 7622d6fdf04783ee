"""The array-built system against the scalar loops it replaced, bit for bit.

The reference functions below are the former level-by-level constructions:
the recursion march, the per-level shift operators, the Hamiltonian
assembled from ColumnMap terms with f evaluated one level at a time, and
the grading resolved over the whole space with every per-level or
per-grade array lifted by np.tile, np.repeat or a Kronecker product with
the identity.  Each array route must give the same float64 bits, the same
targets and the same refusals.
"""

import dataclasses

import numpy as np
import pytest

from fsusy.errors import FactorizationError
from fsusy.fock import (
    NONNEG_TOL,
    GradedBasis,
    StructureFunction,
    StructureSpec,
    effective_dimension,
    solve_structure_function,
)
from fsusy.qarith import primitive_root
from fsusy.realization import build_kfermion_pair, build_tensor_realization
from fsusy.replicas import build_shift_operators
from fsusy.suite import RunConfig, build_system
from fsusy.system import FsusyDoublet, build_hamiltonian_operator, partner_value
from fsusy.wkalg import AlgebraRep, ColumnMap, build_projectors, build_rep

GRID_FAMILIES = {
    "constant_unit": lambda k: StructureSpec.constant_values(k, 1.0),
    "affine_flat": lambda k: StructureSpec.affine_family(k, 0.0, 1.0),
    "affine_rising": lambda k: StructureSpec.affine_family(k, 0.5, 1.0),
    "affine_falling": lambda k: StructureSpec.affine_family(k, -0.1, 2.0),
}
POINTS = [(k, label) for k in (2, 3, 4, 5, 8) for label in GRID_FAMILIES]


def march_structure_function(spec: StructureSpec, d: int) -> StructureFunction:
    values = np.zeros((spec.k, d + 1))
    for n in range(d):
        for s in range(spec.k):
            values[(s + 1) % spec.k, n + 1] = values[s, n] + spec.f(s, n)
    return StructureFunction(spec.k, d, values)


def scan_effective_dimension(F: StructureFunction, requested_d: int) -> int:
    for n in range(requested_d):
        if F.values[:, n].min() < -NONNEG_TOL:
            return n
    return requested_d


def scalar_weight_diagonal(spec, basis, t, shift):
    vals = np.array([spec.f(t, n + shift) for n in range(basis.d)], dtype=complex)
    return ColumnMap.diag(np.tile(vals, basis.k))


def term_hamiltonian(rep: AlgebraRep) -> ColumnMap:
    basis, spec = rep.basis, rep.spec
    k = basis.k
    H = (k - 1) * (rep.Xp @ rep.Xm)
    for s in range(3, k + 1):
        for t in range(2, s):
            H -= (t - 1) * scalar_weight_diagonal(spec, basis, t, t - s) @ rep.projector(s)
    for s in range(1, k):
        for t in range(s, k):
            H -= (t - k) * scalar_weight_diagonal(spec, basis, t, t - s) @ rep.projector(s)
    return H


def scalar_partner_table(rep: AlgebraRep) -> np.ndarray:
    return np.array([[partner_value(rep.spec, rep.F, s, n) for n in range(rep.basis.d)]
                     for s in range(1, rep.basis.k + 1)])


def level_shift_operators(doublet: FsusyDoublet, s: int, slack: int) -> ColumnMap:
    basis = doublet.rep.basis
    d = basis.d
    target = np.full(basis.dim, -1)
    weight = np.zeros(basis.dim, dtype=complex)
    for n in range(1, d):
        v = doublet.partner(s, n)
        if v < -NONNEG_TOL:
            if n > d - 1 - slack:
                continue
            raise FactorizationError(s, n, v)
        target[basis.index(n, s)] = basis.index(n - 1, s - 1)
        weight[basis.index(n, s)] = np.sqrt(max(v, 0.0))
    return ColumnMap(target, weight)


def kron(b: ColumnMap, f: ColumnMap) -> ColumnMap:
    """b (x) f with |m> (x) |t> at t*d + m, evaluated over the whole space."""
    d = b.dim
    m, t = np.arange(f.dim * d) % d, np.arange(f.dim * d) // d
    empty = (b.target[m] < 0) | (f.target[t] < 0)
    return ColumnMap(np.where(empty, -1, f.target[t] * d + b.target[m]), b.weight[m] * f.weight[t])


def full_space_grading(rep: AlgebraRep) -> AlgebraRep:
    """rep with K repeated over every level and each Pi_s resolved from that full K."""
    k, d = rep.basis.k, rep.basis.d
    q = primitive_root(k)
    K = ColumnMap.diag(np.repeat([q ** s for s in range(k)], d))
    projectors = tuple(ColumnMap.diag(P) for P in build_projectors(K.weight, k))
    return dataclasses.replace(rep, K=K, projectors=projectors)


def assert_same_map(a: ColumnMap, b: ColumnMap):
    assert np.array_equal(a.target, b.target)
    assert a.weight.tobytes() == b.weight.tobytes()


@pytest.fixture(scope="module", params=POINTS, ids=[f"k={k}-{label}" for k, label in POINTS])
def built(request):
    k, label = request.param
    spec = GRID_FAMILIES[label](k)
    return spec, build_system(RunConfig(k=k, d=40, spec=spec, margin=k))


def test_structure_function_and_truncation_match_the_march(built):
    spec, system = built
    F = solve_structure_function(spec, 40)
    assert F.values.tobytes() == march_structure_function(spec, 40).values.tobytes()
    assert effective_dimension(F, 40) == scan_effective_dimension(F, 40)
    assert system.rep.F.values.tobytes() == F.truncate(system.d_effective).values.tobytes()


def test_partner_table_matches_the_closed_form(built):
    _, system = built
    assert system.doublet.partners.tobytes() == scalar_partner_table(system.rep).tobytes()


def test_hamiltonian_matches_the_term_by_term_sum(built):
    _, system = built
    assert_same_map(system.doublet.H, term_hamiltonian(system.rep))


def test_shift_operators_and_refusals_match_the_level_loop(built):
    spec, system = built
    refused = {}
    for s in range(2, spec.k + 1):
        try:
            expected = level_shift_operators(system.doublet, s, slack=spec.k)
        except FactorizationError as exc:
            refused[s] = (exc.s, exc.n, exc.value)
            continue
        assert_same_map(system.replicas[s].Xsm, expected)
        assert_same_map(build_shift_operators(system.doublet, s, spec.k)[1], expected.adjoint())
    assert {s: (e.s, e.n, e.value) for s, e in system.refused.items()} == refused


@pytest.mark.parametrize("spec", [
    StructureSpec.constant_values(3, [0.0, -0.0, 1.5]),
    StructureSpec.constant_values(4, [1.25, 0.5, 2.0, 0.75]),
    StructureSpec.from_table(
        3, {(s, n): ((7 * s + 3 * n) % 11 + 1) / 3 for s in range(3) for n in range(-3, 30)}),
], ids=["signed-zeros", "sector-constants", "table"])
def test_other_families_match_the_scalar_loops(spec):
    system = build_system(RunConfig(k=spec.k, d=24, spec=spec, margin=spec.k))
    rep = system.rep
    F = march_structure_function(spec, 24)
    assert rep.F.values.tobytes() == F.truncate(rep.basis.d).values.tobytes()
    assert system.doublet.partners.tobytes() == scalar_partner_table(rep).tobytes()
    assert_same_map(system.doublet.H, term_hamiltonian(rep))
    for s, replica in system.replicas.items():
        assert_same_map(replica.Xsm, level_shift_operators(system.doublet, s, spec.k))


def test_slack_levels_are_dropped_like_the_level_loop():
    # f = 3 - n makes the top partner energies negative inside the slack
    spec = StructureSpec.from_table(3, {(s, n): 3.0 - n for s in range(3) for n in range(-3, 24)})
    F = solve_structure_function(spec, 20)
    d = effective_dimension(F, 20)
    system = build_system(RunConfig(k=3, d=20, spec=spec, margin=3))
    doublet = system.doublet
    assert d == system.d_effective
    for s in (2, 3):
        for slack in range(d):
            try:
                expected = level_shift_operators(doublet, s, slack)
            except FactorizationError as exc:
                with pytest.raises(FactorizationError) as got:
                    build_shift_operators(doublet, s, slack)
                assert (got.value.s, got.value.n, got.value.value) == (exc.s, exc.n, exc.value)
                continue
            assert_same_map(build_shift_operators(doublet, s, slack)[0], expected)



@pytest.mark.parametrize("d", [5, 7, 40, 41])
@pytest.mark.parametrize("k", range(2, 10))
def test_grading_resolved_on_the_grades_matches_the_full_space(k, d):
    # the Fourier sum rounds elementwise, so resolving the k grade values and
    # lifting them gives the full-space bits, whether kd is a multiple of 4 or not
    spec = StructureSpec.affine_family(k, 0.5, 1.0)
    rep = build_rep(spec, GradedBasis(k, d), solve_structure_function(spec, d))
    reference = full_space_grading(rep)
    assert_same_map(rep.K, reference.K)
    for P, expected in zip(rep.projectors, reference.projectors, strict=True):
        assert_same_map(P, expected)
    assert_same_map(build_hamiltonian_operator(rep), term_hamiltonian(reference))

    pair = build_kfermion_pair(k)
    tensor = build_tensor_realization(pair, rep)
    one = ColumnMap.diag(np.ones(d))
    assert_same_map(tensor.K, kron(one, pair.Kf))
    assert_same_map(tensor.N, kron(ColumnMap.diag(np.arange(d)), ColumnMap.diag(np.ones(k))))
    fermion_projectors = build_projectors(pair.Kf.diagonal(), k)
    for P, Pf in zip(tensor.projectors, fermion_projectors, strict=True):
        assert_same_map(P, kron(one, ColumnMap.diag(Pf)))
