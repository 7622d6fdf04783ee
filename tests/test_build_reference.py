"""The array-built system against the scalar loops it replaced, bit for bit.

The reference functions below are the former level-by-level constructions:
the recursion march, the per-level shift operators, the Hamiltonian
assembled from ColumnMap terms with f evaluated one level at a time, and
the grading resolved over the whole space with every per-level or
per-grade array lifted by np.tile, np.repeat or a Kronecker product with
the identity.  Each array route must give the same float64 bits, the same
targets and the same refusals.  The replicas have a reference too: each
replica built on the whole space, one s at a time, against the replica
stack that builds all of them at once.

The checks have references too: each replica verified on the whole space,
one at a time; the charge sum added up from k-1 full-space products; the
order-k multilinear sum from the list of its k ordered products; the
defining relations of one representation with sum_s f_s(N) Pi_s formed
from k diagonal products; and the tensor ladders summed from 2k Kronecker
terms.  The batched checks must give the same entries, residual bits
included.
"""

import dataclasses

import numpy as np
import pytest

import fsusy.wkalg
from fsusy.errors import FactorizationError, FsusyError, WindowTooSmallError
from fsusy.fock import (
    NONNEG_TOL,
    GradedBasis,
    StructureFunction,
    StructureSpec,
    effective_dimension,
    solve_structure_function,
)
from fsusy.qarith import primitive_root, q_factorial
from fsusy.realization import (
    build_kfermion_pair,
    build_tensor_realization,
    compare_realizations,
    verify_kfermions,
)
from fsusy.replicas import (
    ReplicaDoublet,
    build_replicas,
    check_isospectrality,
    k2_reduction_entry,
    verify_replicas,
    verify_sum_identity,
)
from fsusy.report import ReportEntry
from fsusy.suite import RunConfig, build_system, verify_system
from fsusy.system import (
    FsusyDoublet,
    build_doublet,
    build_hamiltonian_operator,
    partner_consistency_entry,
    partner_value,
)
from fsusy.wkalg import (
    _RELATION_STATEMENTS,
    AlgebraRep,
    ColumnMap,
    algebra_relation_residuals,
    build_projectors,
    build_rep,
    STRICT_FACTOR,
    ladder_weights,
)

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


def term_hamiltonian(rep: AlgebraRep, projectors=None) -> ColumnMap:
    """H from full-space ColumnMap terms; Pi_s is projectors[s mod k] when
    given, else rep's projector lifted to the whole space."""
    basis, spec = rep.basis, rep.spec
    k = basis.k
    projector = rep.projector if projectors is None else lambda s: projectors[s % k]
    H = (k - 1) * (rep.Xp @ rep.Xm)
    for s in range(3, k + 1):
        for t in range(2, s):
            H -= (t - 1) * scalar_weight_diagonal(spec, basis, t, t - s) @ projector(s)
    for s in range(1, k):
        for t in range(s, k):
            H -= (t - k) * scalar_weight_diagonal(spec, basis, t, t - s) @ projector(s)
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


def build_shift_operators(
    doublet: FsusyDoublet, s: int, slack: int = 0
) -> tuple[ColumnMap, ColumnMap]:
    """X(s)- and X(s)+ of one replica on the whole space; a negative H_s(n)
    below the top ``slack`` levels raises, one within them is dropped."""
    basis = doublet.rep.basis
    k, d = basis.k, basis.d
    if not 2 <= s <= k:
        raise FsusyError(f"replica index {s} outside 2..{k}")
    n = np.arange(1, d)
    v = doublet.partners[s - 1, 1:]
    negative = v < -NONNEG_TOL
    refused = np.flatnonzero(negative & (n <= d - 1 - slack))
    if refused.size:
        first = refused[0]
        raise FactorizationError(s, int(n[first]), float(v[first]))
    keep = n[~negative]
    target = np.full(basis.dim, -1)
    weight = np.zeros(basis.dim, dtype=complex)
    cols = basis.index(keep, s)
    target[cols] = basis.index(keep - 1, s - 1)
    weight[cols] = np.sqrt(np.maximum(v[keep - 1], 0.0))
    Xsm = ColumnMap(target, weight)
    return Xsm, Xsm.adjoint()


def build_replica(doublet: FsusyDoublet, s: int, slack: int = 0) -> ReplicaDoublet:
    """Replica s on the whole space, its charges and h masked by sector."""
    Xsm, Xsp = build_shift_operators(doublet, s, slack)
    basis = doublet.rep.basis
    lo, hi = basis.sector_mask(s - 1), basis.sector_mask(s)
    h = (Xsm @ Xsp).masked(lo) + (Xsp @ Xsm).masked(hi)
    return ReplicaDoublet(s, Xsm, Xsp, Xsm.masked(hi), Xsp.masked(lo), h)


def reference_replicas(doublet: FsusyDoublet, slack: int):
    """Every replica by s from the one-at-a-time route, and the refused ones."""
    replicas, refused = {}, {}
    for s in range(2, doublet.k + 1):
        try:
            replicas[s] = build_replica(doublet, s, slack)
        except FactorizationError as exc:
            refused[s] = exc
    return replicas, refused


def kron(b: ColumnMap, f: ColumnMap) -> ColumnMap:
    """b (x) f with |m> (x) |t> at t*d + m, evaluated over the whole space."""
    d = b.dim
    m, t = np.arange(f.dim * d) % d, np.arange(f.dim * d) // d
    empty = (b.target[m] < 0) | (f.target[t] < 0)
    return ColumnMap(np.where(empty, -1, f.target[t] * d + b.target[m]), b.weight[m] * f.weight[t])


def full_space_grading(rep: AlgebraRep) -> tuple[ColumnMap, list[ColumnMap]]:
    """K repeated over every level, and each Pi_s resolved from that full K
    as a full-space diagonal map."""
    k, d = rep.basis.k, rep.basis.d
    q = primitive_root(k)
    K = ColumnMap.diag(np.repeat([q ** s for s in range(k)], d))
    return K, [ColumnMap.diag(P) for P in build_projectors(K.weight, k)]


def assert_same_map(a: ColumnMap, b: ColumnMap):
    assert np.array_equal(a.target, b.target)
    assert a.weight.tobytes() == b.weight.tobytes()


def refusal(exc: FactorizationError):
    return exc.s, exc.n, float(exc.value).hex(), str(exc)


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
        assert_same_map(system.replicas[s].Xsp, expected.adjoint())
    assert {s: (e.s, e.n, e.value) for s, e in system.refused.items()} == refused


@pytest.mark.parametrize("spec", [
    StructureSpec.constant_values(3, [0.0, -0.0, 1.5]),
    StructureSpec.constant_values(4, [1.25, 0.5, 2.0, 0.75]),
    StructureSpec.from_table(
        3, {(s, n): ((7 * s + 3 * n) % 11 + 1) / 3 for s in range(3) for n in range(-3, 30)}),
    StructureSpec.constant_values(3, 0.0),
], ids=["signed-zeros", "sector-constants", "table", "zeros"])
def test_other_families_match_the_scalar_loops(spec):
    system = build_system(RunConfig(k=spec.k, d=24, spec=spec, margin=spec.k))
    rep = system.rep
    F = march_structure_function(spec, 24)
    assert rep.F.values.tobytes() == F.truncate(rep.basis.d).values.tobytes()
    assert system.doublet.partners.tobytes() == scalar_partner_table(rep).tobytes()
    assert_same_map(system.doublet.H, term_hamiltonian(rep))
    for s, replica in system.replicas.items():
        assert_same_map(replica.Xsm, level_shift_operators(system.doublet, s, spec.k))
    # with zero structure values the boson weights vanish, and so do their targets
    pair = build_kfermion_pair(spec.k)
    tensor, reference = build_tensor_realization(pair, rep), reference_tensor(pair, rep)
    assert_same_map(tensor.Xm, reference.Xm)
    assert_same_map(tensor.Xp, reference.Xp)


def test_slack_levels_are_dropped_like_the_level_loop():
    # f = 3 - n makes the top partner energies negative inside the slack
    spec = StructureSpec.from_table(3, {(s, n): 3.0 - n for s in range(3) for n in range(-3, 24)})
    F = solve_structure_function(spec, 20)
    d = effective_dimension(F, 20)
    system = build_system(RunConfig(k=3, d=20, spec=spec, margin=3))
    doublet = system.doublet
    assert d == system.d_effective
    for slack in range(d):
        blocks, refused = build_replicas(doublet, slack)
        replicas = blocks.full_space()
        for s in (2, 3):
            try:
                expected = level_shift_operators(doublet, s, slack)
            except FactorizationError as exc:
                assert s not in replicas
                assert refusal(refused[s]) == refusal(exc)
                continue
            assert s not in refused
            assert_same_map(replicas[s].Xsm, expected)



@pytest.mark.parametrize("d", [5, 7, 40, 41])
@pytest.mark.parametrize("k", range(2, 10))
def test_grading_resolved_on_the_grades_matches_the_full_space(k, d):
    # the Fourier sum rounds elementwise, so resolving the k grade values and
    # lifting them gives the full-space bits, whether kd is a multiple of 4 or not
    spec = StructureSpec.affine_family(k, 0.5, 1.0)
    rep = build_rep(spec, GradedBasis(k, d), solve_structure_function(spec, d))
    K, projectors = full_space_grading(rep)
    assert_same_map(rep.K, K)
    assert rep.projectors.shape == (k, k)
    for s, expected in enumerate(projectors):
        assert_same_map(rep.projector(s), expected)
    assert_same_map(build_hamiltonian_operator(rep), term_hamiltonian(rep, projectors))

    pair = build_kfermion_pair(k)
    tensor = build_tensor_realization(pair, rep)
    one = ColumnMap.diag(np.ones(d))
    assert_same_map(tensor.K, kron(one, pair.Kf))
    assert_same_map(tensor.N, kron(ColumnMap.diag(np.arange(d)), ColumnMap.diag(np.ones(k))))
    fermion_projectors = build_projectors(pair.Kf.diagonal(), k)
    assert tensor.projectors.tobytes() == fermion_projectors.tobytes()
    for s, Pf in enumerate(fermion_projectors):
        assert_same_map(tensor.projector(s), kron(one, ColumnMap.diag(Pf)))


# ---------------------------------------------------------------- checks

def residual(lhs, rhs, window=None):
    """Largest relative column deviation of lhs = rhs over the window columns."""
    dev = fsusy.wkalg.deviation(lhs, rhs)
    return float((dev if window is None else dev[window]).max(initial=0.0))


def check(name, statement, residual, tolerance, window="full space"):
    """The entry of an identity asserted at ``tolerance``, 0 for the exact ones."""
    residual = float(residual)
    return ReportEntry(name, statement, residual, float(tolerance), residual <= tolerance, window)


def reference_verify_replica(rd, doublet, margin, tolerance=1e-10, strict=1e-12):
    """One replica's entries, every identity scored over the whole space."""
    basis = doublet.rep.basis
    s = rd.s
    P, win = basis.window(margin)
    qm, qp, h = rd.qm, rd.qp, rd.h
    zero = ColumnMap.diag(np.zeros(basis.dim))
    entries = []
    nil = max(residual(qm @ qm, zero), residual(qp @ qp, zero))
    entries.append(check(
        f"replica{s}.nilpotency", "q- q- = 0 and q+ q+ = 0", nil, 0.0))
    entries.append(check(
        f"replica{s}.pair_adjoint", "q+ is the conjugate transpose of q-",
        residual(qp, qm.adjoint()), 0.0))
    entries.append(check(
        f"replica{s}.anticommutator", "h = q- q+ + q+ q-",
        residual(h, qm @ qp + qp @ qm), 0.0))
    entries.append(check(
        f"replica{s}.hamiltonian_commutes", "[h, q-] = 0 and [h, q+] = 0",
        max(residual(h @ qm, qm @ h), residual(h @ qp, qp @ h)),
        strict, "full space"))
    shifted = ColumnMap.diag(np.append(doublet.partners[s - 1, 1:], 0.0)[basis.level])
    entries.append(check(
        f"replica{s}.shift_product",
        "X(s)- X(s)+ equals the partner ladder shifted one level down, on sector s-1",
        residual(rd.Xsm @ rd.Xsp, shifted, P & basis.sector_mask(s - 1)),
        tolerance, win + f", sector {s - 1}"))
    lo, hi = basis.sector_mask(s - 1), basis.sector_mask(s)
    hi[basis.index(0, s)] = False
    expected = doublet.partner_diagonal(s - 1).masked(lo) + doublet.partner_diagonal(s).masked(hi)
    entries.append(check(
        f"replica{s}.partner_diagonal",
        "h carries the two partner ladders on its pair of sectors and vanishes elsewhere",
        residual(h, expected, P), strict,
        win + f", omitting ground level of sector {s % basis.k}"))
    Dlo, Dhi = doublet.partner_diagonal(s - 1), doublet.partner_diagonal(s)
    inter = max(residual(Dlo @ rd.Xsm, rd.Xsm @ Dhi, P), residual(Dhi @ rd.Xsp, rd.Xsp @ Dlo, P))
    entries.append(check(
        f"replica{s}.intertwining",
        "the shift operators intertwine adjacent partner ladders",
        inter, strict, win))
    return entries


def reference_verify_fsusy(doublet, margin, tolerance=1e-10, strict=1e-12):
    """The doublet axioms with the k ordered products held in a list, summed in order."""
    basis = doublet.rep.basis
    k = basis.k
    P, win = basis.window(margin)
    Qm, Qp, H = doublet.Qm, doublet.Qp, doublet.H
    powers = [ColumnMap.diag(np.ones(basis.dim))]
    for _ in range(k):
        powers.append(powers[-1] @ Qm)
    zero = ColumnMap.diag(np.zeros(basis.dim))
    terms = [powers[k - 1 - j] @ Qp @ powers[j] for j in range(k)]
    return [
        check("fsusy.nilpotency", "Q-^k = 0 and Q+^k = 0",
              max(residual(powers[k], zero), residual(Qp ** k, zero)), 0.0),
        check("fsusy.multilinear", "the k ordered products Q-^(k-1-j) Q+ Q-^j sum to Q-^(k-2) H",
              residual(sum(terms[1:], start=terms[0]), powers[k - 2] @ H, P), tolerance, win),
        check("fsusy.hamiltonian_commutes", "[H, Q-] = 0 and [H, Q+] = 0",
              max(residual(H @ Qm, Qm @ H, P), residual(H @ Qp, Qp @ H, P)), strict, win),
    ]


def reference_sum_identity(doublet, replicas, margin, tolerance=1e-10):
    """The charge sum added up from k-1 full-space products."""
    basis = doublet.rep.basis
    k = basis.k
    name = "fsusy.charge_sum"
    statement = "H equals q(2)- q(2)+ plus the sum of q(s)+ q(s)- over all replicas"
    missing = [s for s in range(2, k + 1) if s not in replicas]
    if missing:
        return ReportEntry.failure(name, statement, f"replicas {missing} could not be factorized")
    rhs = replicas[2].qm @ replicas[2].qp
    for s in range(2, k + 1):
        rhs = rhs + replicas[s].qp @ replicas[s].qm
    P, win = basis.window(margin)
    for s in range(2, k + 1):
        P[basis.index(0, s)] = False
    return check(name, statement, residual(doublet.H, rhs, P), tolerance,
                 win + ", omitting replica ground levels")


def reference_ladder_sum(rep):
    """sum_s f_s(N) Pi_s from k diagonal column-map products."""
    basis = rep.basis
    return sum(
        (ColumnMap.diag(rep.spec.f(s, np.arange(basis.d))[basis.level]) @ rep.projector(s)
         for s in range(basis.k)),
        start=ColumnMap.diag(np.zeros(basis.dim)),
    )


def reference_relation_residuals(rep, margin):
    """The five relation residuals of one representation on its own space."""
    basis = rep.basis
    P, win = basis.window(margin)
    q = primitive_root(basis.k)
    eye = ColumnMap.diag(np.ones(basis.dim))
    Xm, Xp, N, K = rep.Xm, rep.Xp, rep.N, rep.K
    return {
        "ladder_commutator": residual(Xm @ Xp, Xp @ Xm + reference_ladder_sum(rep), P),
        "number_ladder": max(residual(N @ Xm, Xm @ N - Xm, P), residual(N @ Xp, Xp @ N + Xp, P)),
        "grading_ladder": max(residual(K @ Xm, (1 / q) * (Xm @ K), P),
                              residual(K @ Xp, q * (Xp @ K), P)),
        "grading_number": residual(K @ N, N @ K, P),
        "grading_cyclic": residual(K ** basis.k, eye, P),
    }, win


def reference_tensor(pair, rep):
    """The tensor realization with X-+ summed from k Kronecker terms each."""
    basis, k, d = rep.basis, pair.k, rep.basis.d
    Pf = [ColumnMap.diag(P) for P in build_projectors(pair.Kf.diagonal(), k)]
    bm = [ColumnMap(np.arange(d) - 1, np.sqrt(np.maximum(rep.F.values[s, :d], 0.0)).astype(complex))
          for s in range(k)]
    zero = ColumnMap.diag(np.zeros(basis.dim))
    A = pair.fm + (1 / q_factorial(k - 1, primitive_root(k))) * pair.fp ** (k - 1)
    Ak1 = A ** (k - 1)
    Xm = sum((kron(bm[s], A @ Pf[s]) for s in range(k)), start=zero)
    Xp = sum((kron(bm[(s + 1) % k].adjoint(), Ak1 @ Pf[s]) for s in range(k)), start=zero)
    return dataclasses.replace(build_tensor_realization(pair, rep), Xm=Xm, Xp=Xp)


def reference_verify_system(system, config):
    """The suite's entries with every replica built and every check made on
    the whole space, one at a time."""
    rep, doublet = system.rep, system.doublet
    margin, tol, scoring = config.margin, config.tolerance, config.scoring
    strict = tol * STRICT_FACTOR
    replicas, refused = reference_replicas(doublet, margin)
    entries = []
    try:
        residuals, win = reference_relation_residuals(rep, margin)
        entries += [check(f"algebra.{key}", _RELATION_STATEMENTS[key], val, tol, win)
                    for key, val in residuals.items()]
        entries += reference_verify_fsusy(doublet, margin, tol, strict)
        entries.append(partner_consistency_entry(doublet, scoring))
        entries.append(check_isospectrality(doublet, scoring))
        for s in range(2, config.k + 1):
            if s in refused:
                entries.append(ReportEntry.failure(
                    f"replica{s}.factorization",
                    "the partner ladder admits real square roots at every level",
                    refused[s]))
            else:
                entries += reference_verify_replica(replicas[s], doublet, margin, tol, strict)
        entries.append(reference_sum_identity(doublet, replicas, margin, tol))
        if config.k == 2 and 2 in replicas:
            entries.append(k2_reduction_entry(doublet, replicas[2], scoring))
        pair = build_kfermion_pair(config.k)
        entries += verify_kfermions(pair, scoring)
        try:
            tensor = reference_tensor(pair, rep)
        except FsusyError as exc:
            entries.append(ReportEntry.failure(
                "tensor.construction",
                "the tensor-product realization materializes on the truncated space", exc))
        else:
            residuals, win = reference_relation_residuals(tensor, margin)
            entries += [check(f"tensor.{key}", _RELATION_STATEMENTS[key], val, tol, win)
                        for key, val in residuals.items()]
            entries.append(compare_realizations(tensor, rep, scoring))
    except WindowTooSmallError as exc:
        entries.append(ReportEntry.failure(
            "construction.window", "a safe window exists below the truncation ceiling", exc))
    return entries


def entry_bits(entry):
    """Every field of an entry, the residual as its float64 bits."""
    fields = dict(vars(entry))
    if fields["residual"] is not None:
        fields["residual"] = float(fields["residual"]).hex()
    return fields


CHECK_FAMILIES = dict(
    GRID_FAMILIES,
    sector_constants=lambda k: StructureSpec.constant_values(k, [1 + 0.5 * s for s in range(k)]),
    table=lambda k: StructureSpec.from_table(
        k, {(s, n): ((7 * s + 3 * n) % 11 + 1) / 3 for s in range(k) for n in range(-k, 60)}),
)
CHECK_POINTS = [(k, label) for k in range(2, 9) for label in CHECK_FAMILIES]


@pytest.mark.parametrize("k,label", CHECK_POINTS, ids=[f"k={k}-{lb}" for k, lb in CHECK_POINTS])
def test_batched_checks_match_the_one_at_a_time_route(k, label):
    # refused replicas included: k = 4 falling, k = 5 unit, flat and falling,
    # and the constant family's top replicas from k = 5 on
    config = RunConfig(k=k, d=40, spec=CHECK_FAMILIES[label](k), margin=k)
    system = build_system(config)
    got = verify_system(system, config)
    want = reference_verify_system(system, config)
    assert [entry_bits(e) for e in got] == [entry_bits(e) for e in want]
    replicas, _ = reference_replicas(system.doublet, k)
    batch = verify_replicas(system.blocks, system.doublet, config.scoring)
    assert sorted(batch) == sorted(replicas)
    for s, rd in replicas.items():
        one = reference_verify_replica(rd, system.doublet, k)
        assert [entry_bits(e) for e in batch[s]] == [entry_bits(e) for e in one]
    assert (entry_bits(verify_sum_identity(system.doublet, system.blocks, config.scoring))
            == entry_bits(reference_sum_identity(system.doublet, replicas, k)))


@pytest.mark.parametrize("k,label", CHECK_POINTS, ids=[f"k={k}-{lb}" for k, lb in CHECK_POINTS])
def test_replica_stack_matches_the_one_at_a_time_build(k, label):
    # refused replicas included (k = 4 falling, k = 5 unit), and levels
    # dropped inside the top slack (k = 6 .. 8 falling: replica 2 drops n = 39)
    system = build_system(RunConfig(k=k, d=40, spec=CHECK_FAMILIES[label](k), margin=k))
    blocks, basis = system.blocks, system.rep.basis
    replicas, refused = reference_replicas(system.doublet, k)
    assert ({s: refusal(e) for s, e in system.refused.items()}
            == {s: refusal(e) for s, e in refused.items()})
    assert blocks.order == tuple(sorted(replicas))
    if label == "affine_falling" and k >= 6:
        assert system.doublet.partners[1, 39] < -NONNEG_TOL and 2 in blocks.order
    size = 2 * basis.d
    for i, s in enumerate(blocks.order):
        own = np.arange(i * size, (i + 1) * size)
        cols = blocks.cols[own]
        assert np.array_equal(basis.sector[cols], np.repeat([s - 1, s % k], basis.d))
        for name in ("Xsm", "Xsp", "qm", "qp", "h"):
            stacked, full = getattr(blocks, name), getattr(replicas[s], name)
            # the replica's weights all sit on its pair of sectors ...
            assert np.count_nonzero(full.weight) == np.count_nonzero(full.weight[cols])
            weight = stacked.weight[own]
            assert np.array_equal(weight.view(np.int64), full.weight[cols].view(np.int64)), name
            # ... and each nonzero one is sent inside the replica's own block
            to = stacked.target[own][weight != 0]
            assert np.all((to >= own[0]) & (to <= own[-1])), name
            assert np.array_equal(blocks.cols[to], full.target[cols][weight != 0]), name
            # readers of the full space get the one-at-a-time map itself
            assert_same_map(getattr(system.replicas[s], name), full)


@pytest.mark.parametrize("k,label", CHECK_POINTS, ids=[f"k={k}-{lb}" for k, lb in CHECK_POINTS])
def test_paired_relation_pass_equals_each_representation_alone(k, label):
    config = RunConfig(k=k, d=40, spec=CHECK_FAMILIES[label](k), margin=k)
    rep = build_system(config).rep
    tensor = build_tensor_realization(build_kfermion_pair(k), rep)
    (graded, paired_tensor), win = algebra_relation_residuals([rep, tensor], k)
    alone = [algebra_relation_residuals([one], k) for one in (rep, tensor)]
    references = [reference_relation_residuals(one, k) for one in (rep, tensor)]
    for residuals, (single, single_win), (ref, ref_win) in zip(
            (graded, paired_tensor), alone, references, strict=True):
        assert win.text == single_win.text == ref_win
        hexed = {key: val.hex() for key, val in residuals.items()}
        assert hexed == {key: val.hex() for key, val in single[0].items()}
        assert hexed == {key: val.hex() for key, val in ref.items()}


@pytest.mark.parametrize("k,label", CHECK_POINTS, ids=[f"k={k}-{lb}" for k, lb in CHECK_POINTS])
def test_grade_block_sums_match_the_term_sums(k, label):
    config = RunConfig(k=k, d=40, spec=CHECK_FAMILIES[label](k), margin=k)
    rep = build_system(config).rep
    for one in (rep, build_tensor_realization(build_kfermion_pair(k), rep)):
        assert ladder_weights(one).tobytes() == reference_ladder_sum(one).weight.tobytes()
    pair = build_kfermion_pair(k)
    tensor, reference = build_tensor_realization(pair, rep), reference_tensor(pair, rep)
    assert_same_map(tensor.Xm, reference.Xm)
    assert_same_map(tensor.Xp, reference.Xp)


def count_calls(monkeypatch):
    """Count column-map constructions, products, adjoints and per-column
    deviations from now on.

    A power counts as one product, not as its chain of products, and the
    maps that chain makes are not counted.
    """
    counts = dict.fromkeys(("construct", "matmul", "adjoint", "deviation"), 0)
    inside_power = []
    init, matmul, power = ColumnMap.__init__, ColumnMap.__matmul__, ColumnMap.__pow__
    adjoint, deviation = ColumnMap.adjoint, fsusy.wkalg.deviation

    def counted_init(self, *args, **kwargs):
        counts["construct"] += not inside_power
        init(self, *args, **kwargs)

    def counted_matmul(self, other):
        counts["matmul"] += not inside_power
        return matmul(self, other)

    def counted_power(self, n):
        counts["matmul"] += not inside_power
        inside_power.append(n)
        try:
            return power(self, n)
        finally:
            inside_power.pop()

    def counted_adjoint(self):
        counts["adjoint"] += 1
        return adjoint(self)

    def counted_deviation(lhs, rhs):
        counts["deviation"] += 1
        return deviation(lhs, rhs)

    monkeypatch.setattr(ColumnMap, "__init__", counted_init)
    monkeypatch.setattr(ColumnMap, "__matmul__", counted_matmul)
    monkeypatch.setattr(ColumnMap, "__pow__", counted_power)
    monkeypatch.setattr(ColumnMap, "adjoint", counted_adjoint)
    monkeypatch.setattr(fsusy.wkalg, "deviation", counted_deviation)
    return counts


def test_batched_checks_make_the_same_calls_at_every_order(monkeypatch, clear_order_caches):
    # no loop over replicas, grades, projectors or representations may come
    # back into the representation, the doublet, the replica build and
    # checks, the tensor build or the relation pass: k = 3 and k = 8 (every
    # replica built) make equally many column maps, products, adjoints and
    # deviations in each stage.  Each order starts from empty order caches,
    # as a fresh process does, whatever ran before this test
    stages, warm = {}, {}
    for k in (3, 8):
        config = RunConfig(k=k, d=40, spec=StructureSpec.affine_family(k, 0.5, 1.0), margin=k)
        system = build_system(config)
        assert len(system.blocks.order) == k - 1
        F, basis = system.rep.F, system.rep.basis
        clear_order_caches()
        pair = build_kfermion_pair(k)
        with monkeypatch.context() as patch:
            counts = count_calls(patch)
            stage = {}

            def done(name):
                stage[name] = dict(counts)
                counts.update(dict.fromkeys(counts, 0))

            build_doublet(build_rep(config.spec, basis, F))
            done("representation and doublet")
            blocks, _ = build_replicas(system.doublet, config.margin)
            done("replica build")
            verify_replicas(blocks, system.doublet, config.scoring)
            verify_sum_identity(system.doublet, blocks, config.scoring)
            done("replica checks")
            tensor = build_tensor_realization(pair, system.rep)
            done("tensor build")
            algebra_relation_residuals([system.rep, tensor], k)
            done("relation pass")
            # the pair keeps its fermion factors: a second tensor build at
            # this order forms no product
            build_tensor_realization(build_kfermion_pair(k), system.rep)
            warm[k] = dict(counts)
        stages[k] = stage
    assert stages[3] == stages[8]
    assert all(stage["construct"] > 0 and stage["matmul"] > 0 for stage in stages[3].values())
    assert stages[3]["replica build"]["adjoint"] == 1
    assert stages[3]["replica checks"]["deviation"] > 0
    assert stages[3]["relation pass"]["deviation"] > 0
    assert warm[3] == warm[8]
    assert warm[3]["matmul"] == 0 and warm[3]["construct"] > 0
