"""The array-built system against the scalar loops it replaced, bit for bit.

The reference functions below are the former level-by-level constructions:
the recursion march, the per-level shift operators, the Hamiltonian
assembled from graded-shift terms with f evaluated one level at a time, and
the grading and its Fourier projector table resolved over the whole space
with every per-level or per-grade array lifted by np.tile, np.repeat or a
Kronecker product with the identity.  Each array route must give the same float64 bits, the same
shifts and the same refusals.  The replicas have a reference too: each
replica built on the whole space, one s at a time, against the replica
stack that builds all of them at once.

The checks have references too: each replica verified on the whole space,
one at a time; the level shift compared one pair of partner energies at a
time; the charge sum added up from k-1 full-space products; the k = 2
reduction read off the full-space replica; the order-k multilinear sum
from the list of its k ordered products; the defining relations of one
representation with sum_s f_s(N) Pi_s formed from k diagonal products with
exact sector masks; and the tensor ladders summed from 2k Kronecker terms
with exact grade masks.  The batched checks must give the same entries,
residual bits included; the one exception is the multilinear residual, which the program
forms by a recursion that rounds differently and which must agree within
``multilinear_roundoff``.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

import fsusy.wkalg
from conftest import multilinear_roundoff
from fsusy.errors import FactorizationError, FsusyError, WindowTooSmallError
from fsusy.fock import (
    NONNEG_TOL,
    GradedBasis,
    StructureSpec,
    effective_dimension,
    solve_structure_function,
)
from fsusy.qarith import primitive_root, q_numbers, roots
from fsusy.realization import build_kfermion_pair, build_tensor_realization, compare_realizations
from fsusy.replicas import build_replicas, verify_replicas
from fsusy.report import ReportEntry
from fsusy.suite import RunConfig, build_system, verify_system
from fsusy.system import FsusyDoublet, build_doublet, build_hamiltonian_operator, partner_value
from fsusy.wkalg import (
    AlgebraRep,
    Shift,
    algebra_relation_residuals,
    build_rep,
    STRICT_FACTOR,
    _grading,
)

GRID_FAMILIES = {
    "constant_unit": lambda k: StructureSpec.constant_values(k, 1.0),
    "affine_flat": lambda k: StructureSpec.affine_family(k, 0.0, 1.0),
    "affine_rising": lambda k: StructureSpec.affine_family(k, 0.5, 1.0),
    "affine_falling": lambda k: StructureSpec.affine_family(k, -0.1, 2.0),
}
POINTS = [(k, label) for k in (2, 3, 4, 5, 8) for label in GRID_FAMILIES]


def march_structure_function(spec: StructureSpec, d: int) -> np.ndarray:
    F = np.zeros((spec.k, d))
    for n in range(d - 1):
        for s in range(spec.k):
            F[(s + 1) % spec.k, n + 1] = F[s, n] + spec.f(s, n)
    return F


def scan_effective_dimension(F: np.ndarray) -> int:
    for n in range(F.shape[1]):
        if F[:, n].min() < -NONNEG_TOL:
            return n
    return F.shape[1]


def scalar_weight_diagonal(spec, basis, t, shift):
    vals = np.array([spec.f(t, n + shift) for n in range(basis.d)], dtype=complex)
    return Shift.diag(np.tile(vals, (basis.k, 1)))


def lifted_projector(basis: GradedBasis, s: int) -> Shift:
    """Row s mod k of the Fourier table of ``_grading``, the Pi_s that H and
    the dump read, repeated over every level as a full-space diagonal."""
    return Shift.diag(np.repeat(_grading(basis.k)[1][s % basis.k][:, None], basis.d, 1))


def term_hamiltonian(rep: AlgebraRep, projectors=None) -> Shift:
    """H from full-space graded-shift terms; Pi_s is projectors[s mod k] when
    given, else the Fourier table's row lifted to the whole space."""
    basis, spec = rep.basis, rep.spec
    k = basis.k
    projector = (partial(lifted_projector, basis) if projectors is None
                 else lambda s: projectors[s % k])
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


def level_shift_operators(doublet: FsusyDoublet, s: int, slack: int) -> Shift:
    basis = doublet.rep.basis
    d = basis.d
    weight = np.zeros((basis.k, d), dtype=complex)
    for n in range(1, d):
        v = float(doublet.partners[s - 1, n])
        if v < -NONNEG_TOL:
            if n > d - 1 - slack:
                continue
            raise FactorizationError(s, n, v)
        weight[s % basis.k, n] = np.sqrt(max(v, 0.0))
    return Shift(-1, -1, weight)


def build_shift_operators(
    doublet: FsusyDoublet, s: int, slack: int = 0
) -> tuple[Shift, Shift]:
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
    weight = np.zeros((k, d), dtype=complex)
    weight[s % k, keep] = np.sqrt(np.maximum(v[keep - 1], 0.0))
    Xsm = Shift(-1, -1, weight)
    return Xsm, Xsm.adjoint()


def sector_mask(basis: GradedBasis, s: int) -> np.ndarray:
    """The (k, d) columns of sector s, the sector cyclic, as a fresh mask."""
    mask = np.zeros((basis.k, basis.d), dtype=bool)
    mask[s % basis.k] = True
    return mask


@dataclasses.dataclass(frozen=True)
class ReplicaDoublet:
    """One replica on the whole space: shift operators, charges and h."""

    s: int
    Xsm: Shift
    Xsp: Shift
    qm: Shift
    qp: Shift
    h: Shift


def build_replica(doublet: FsusyDoublet, s: int, slack: int = 0) -> ReplicaDoublet:
    """Replica s on the whole space, its charges and h masked by sector."""
    Xsm, Xsp = build_shift_operators(doublet, s, slack)
    basis = doublet.rep.basis
    lo, hi = (sector_mask(basis, t) for t in (s - 1, s))
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


def kron(b: Shift, f: Shift) -> Shift:
    """b (x) f with |m> (x) |t> at t*d + m, evaluated over the whole space, for
    a boson b on one grade of d levels and a fermion f on k grades of one level."""
    return Shift(b.dn, f.ds, b.weight[0] * f.weight)


def grades(k: int) -> np.ndarray:
    """The k grades q^s, powers of a Python complex q."""
    q = primitive_root(k)
    return np.array([q ** s for s in range(k)])


def fourier_projectors(K: np.ndarray, k: int) -> np.ndarray:
    """Resolve a cyclic grading K, given by its diagonal, into the projectors
    Pi_s = (1/k) sum_t q^(-s t) K^t; row s of the result is Pi_s's diagonal.

    The coefficients are powers of a Python complex q and the powers K^t come
    from the complex product written out on the real and imaginary parts;
    each row adds its terms in order t = 0 .. k-1 and is divided by k once."""
    q = primitive_root(k)
    projectors = np.zeros((k, K.size), dtype=complex)
    power = np.ones(K.size, dtype=complex)
    for t in range(k):
        for s, acc in enumerate(projectors):
            acc += q ** (-s * t) * power
        product = np.empty(K.size, dtype=complex)
        product.real = power.real * K.real - power.imag * K.imag
        product.imag = power.real * K.imag + power.imag * K.real
        power = product
    return projectors / k


def full_space_grading(rep: AlgebraRep) -> tuple[Shift, list[Shift]]:
    """K repeated over every level, and each Pi_s resolved from that full K
    as a full-space diagonal map."""
    k, d = rep.basis.k, rep.basis.d
    K = Shift.diag(np.repeat(grades(k), d).reshape(k, d))
    return K, [Shift.diag(P.reshape(k, d)) for P in fourier_projectors(K.weight.ravel(), k)]


def assert_same_map(a: Shift, b: Shift):
    assert a.dn == b.dn and (a.ds - b.ds) % a.weight.shape[-2] == 0
    assert a.weight.shape == b.weight.shape
    assert a.weight.tobytes() == b.weight.tobytes()


def assert_same_tensor_ladders(tensor: AlgebraRep, reference: AlgebraRep):
    """X- and X+ bit for bit but for the sign of a zero weight: the program
    forms each weight as one product and keeps the sign of a zero product,
    the Kronecker sum adds its terms to +0 and loses it.  No output reads
    the sign."""
    for name in ("Xm", "Xp"):
        a, b = getattr(tensor, name), getattr(reference, name)
        assert_same_map(dataclasses.replace(a, weight=a.weight + 0.0),
                        dataclasses.replace(b, weight=b.weight + 0.0))


def refusal(exc: FactorizationError):
    return exc.s, exc.n, float(exc.value).hex(), str(exc)


@pytest.fixture(scope="module", params=POINTS, ids=[f"k={k}-{label}" for k, label in POINTS])
def built(request):
    k, label = request.param
    spec = GRID_FAMILIES[label](k)
    return spec, build_system(RunConfig(k=k, d=40, spec=spec, margin=k))


def test_structure_function_and_truncation_match_the_march(built):
    spec, system = built
    F, march = solve_structure_function(spec, 40), march_structure_function(spec, 40)
    assert F.tobytes() == march.tobytes()
    assert effective_dimension(F) == scan_effective_dimension(F)
    assert system.rep.F.shape == (system.rep.basis.k, system.d_effective)
    assert system.rep.F.tobytes() == march[:, :system.d_effective].tobytes()


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
        assert_same_map(system.replicas.lift("Xsm", s), expected)
        assert_same_map(system.replicas.lift("Xsp", s), expected.adjoint())
    assert {s: (e.s, e.n, e.value) for s, e in system.replicas.refused.items()} == refused


@pytest.mark.parametrize("spec", [
    StructureSpec.constant_values(3, [0.0, -0.0, 1.5]),
    StructureSpec.constant_values(4, [1.25, 0.5, 2.0, 0.75]),
    StructureSpec.from_table(
        3, {(s, n): ((7 * s + 3 * n) % 11 + 1) / 3 for s in range(3) for n in range(-3, 30)}),
    StructureSpec.constant_values(3, 0.0),
    # only partner s = 1 reads f_1, at n >= 0; the other sectors from n = -k
    StructureSpec.from_table(
        4, {(s, n): ((7 * s + 3 * n) % 11 + 1) / 3
            for s in range(4) for n in range(0 if s == 1 else -4, 32)}),
], ids=["signed-zeros", "sector-constants", "table", "zeros", "table-f1-from-0"])
def test_other_families_match_the_scalar_loops(spec):
    system = build_system(RunConfig(k=spec.k, d=24, spec=spec, margin=spec.k))
    rep = system.rep
    F = march_structure_function(spec, 24)
    assert rep.F.tobytes() == F[:, :rep.basis.d].tobytes()
    assert system.doublet.partners.tobytes() == scalar_partner_table(rep).tobytes()
    assert_same_map(system.doublet.H, term_hamiltonian(rep))
    for s in system.replicas:
        assert_same_map(system.replicas.lift("Xsm", s),
                        level_shift_operators(system.doublet, s, spec.k))
    # with zero structure values the boson weights vanish
    pair = build_kfermion_pair(spec.k)
    tensor, reference = build_tensor_realization(pair, rep), reference_tensor(pair, rep)
    assert_same_tensor_ladders(tensor, reference)


def test_slack_levels_are_dropped_like_the_level_loop():
    # f = 3 - n makes the top partner energies negative inside the slack
    spec = StructureSpec.from_table(3, {(s, n): 3.0 - n for s in range(3) for n in range(-3, 24)})
    F = solve_structure_function(spec, 20)
    d = effective_dimension(F)
    system = build_system(RunConfig(k=3, d=20, spec=spec, margin=3))
    doublet = system.doublet
    assert d == system.d_effective
    for slack in range(d):
        replicas = build_replicas(doublet, slack)
        for s in (2, 3):
            try:
                expected = level_shift_operators(doublet, s, slack)
            except FactorizationError as exc:
                assert s not in replicas
                assert refusal(replicas.refused[s]) == refusal(exc)
                continue
            assert s not in replicas.refused
            assert_same_map(replicas.lift("Xsm", s), expected)



@pytest.mark.parametrize("k", [*range(2, 81), 128, 203, 204, 256, 512])
def test_grading_table_matches_the_reference_route(k):
    # the grades and the Fourier table that H and the dumped Pi_s read,
    # formed on the k grades, carry the reference route's bits
    expected = grades(k)
    ours, table = _grading(k)
    assert ours.dtype == expected.dtype and ours.tobytes() == expected.tobytes()
    reference = fourier_projectors(expected, k)
    assert table.shape == (k, k) and table.dtype == reference.dtype
    assert table.tobytes() == reference.tobytes()


@pytest.mark.parametrize("d", [5, 7, 40, 41])
@pytest.mark.parametrize("k", range(2, 10))
def test_grading_resolved_on_the_grades_matches_the_full_space(k, d):
    # the Fourier sum rounds elementwise, so resolving the k grade values and
    # lifting them gives the full-space bits, whether kd is a multiple of 4 or not
    spec = StructureSpec.affine_family(k, 0.5, 1.0)
    rep = build_rep(spec, solve_structure_function(spec, d))
    K, projectors = full_space_grading(rep)
    assert_same_map(rep.K, K)
    assert _grading(k)[1].shape == (k, k)
    for s, expected in enumerate(projectors):
        assert_same_map(lifted_projector(rep.basis, s), expected)
    assert_same_map(build_hamiltonian_operator(rep), term_hamiltonian(rep, projectors))

    pair = build_kfermion_pair(k)
    tensor = build_tensor_realization(pair, rep)
    one = Shift.diag(np.ones((1, d)))
    assert_same_map(tensor.K, kron(one, pair.Kf))
    assert_same_map(tensor.N, kron(Shift.diag(np.arange(d)[None]), Shift.diag(np.ones((k, 1)))))


# ---------------------------------------------------------------- checks

def residual(lhs, rhs, window=None):
    """Largest relative column deviation of lhs = rhs over the window columns."""
    dev = fsusy.wkalg.deviation(lhs, rhs)
    return float((dev if window is None else dev[np.broadcast_to(window, dev.shape)]).max(
        initial=0.0))


def check(name, statement, residual, tolerance, window="full space"):
    """The entry of an identity asserted at ``tolerance``, 0 for the exact ones."""
    residual = float(residual)
    return ReportEntry(name, statement, residual, float(tolerance), residual <= tolerance, window)


def partner_diagonal(doublet, s):
    """H_s(N) as a full-space diagonal: value H_s(n) at every |n, .>."""
    return Shift.diag(np.broadcast_to(doublet.partners[s - 1], (doublet.k, doublet.d)))


def reference_level_shift(doublet, margin, tolerance=1e-10):
    """H_(s-1)(n-1) against H_s(n), one pair of partner energies at a time,
    over the window's levels from n = 1."""
    P, _ = doublet.rep.basis.window(margin)
    top = int(np.flatnonzero(P)[-1])
    H = doublet.partners
    dev = max((abs(H[s - 2, n - 1] - H[s - 1, n]) / max(1.0, abs(H[s - 2, n - 1]), abs(H[s - 1, n]))
               for s in range(2, doublet.k + 1) for n in range(1, top + 1)), default=0.0)
    return check("partners.level_shift",
                 "adjacent partner ladders agree after a one-level shift (wrap pair exempt)",
                 dev, tolerance, f"levels 1 <= n <= {top}")


def reference_verify_replica(rd, doublet, margin, tolerance=1e-10, strict=1e-12):
    """One replica's entries, every identity scored over the whole space."""
    basis = doublet.rep.basis
    k, d, s = basis.k, basis.d, rd.s
    P, win = basis.window(margin)
    qm, qp, h = rd.qm, rd.qp, rd.h
    zero = Shift.diag(np.zeros((k, d)))
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
    shifted = Shift.diag(np.tile(np.append(doublet.partners[s - 1, 1:], 0.0), (k, 1)))
    entries.append(check(
        f"replica{s}.shift_product",
        "X(s)- X(s)+ equals the partner ladder shifted one level down, on sector s-1",
        residual(rd.Xsm @ rd.Xsp, shifted, P & sector_mask(basis, s - 1)),
        tolerance, win + f", sector {s - 1}"))
    lo, hi = sector_mask(basis, s - 1), sector_mask(basis, s)
    hi[s % k, 0] = False
    expected = partner_diagonal(doublet, s - 1).masked(lo) + partner_diagonal(doublet, s).masked(hi)
    entries.append(check(
        f"replica{s}.partner_diagonal",
        "h carries the two partner ladders on its pair of sectors and vanishes elsewhere",
        residual(h, expected, P), strict,
        win + f", omitting ground level of sector {s % basis.k}"))
    Dlo, Dhi = partner_diagonal(doublet, s - 1), partner_diagonal(doublet, s)
    inter = max(residual(Dlo @ rd.Xsm, rd.Xsm @ Dhi, P), residual(Dhi @ rd.Xsp, rd.Xsp @ Dlo, P))
    entries.append(check(
        f"replica{s}.intertwining",
        "the shift operators intertwine adjacent partner ladders",
        inter, strict, win))
    return entries


def reference_verify_fsusy(doublet, margin, tolerance=1e-10, strict=1e-12):
    """The doublet axioms with the k ordered products held in a list, summed
    in order, and diag(H) against the partner energies read one at a time."""
    basis = doublet.rep.basis
    k = basis.k
    partners = Shift.diag([[float(doublet.partners[(s or k) - 1, n]) for n in range(basis.d)]
                           for s in range(k)])
    P, win = basis.window(margin)
    Qm, Qp, H = doublet.Qm, doublet.Qp, doublet.H
    powers = [Shift.diag(np.ones((k, basis.d)))]
    for _ in range(k):
        powers.append(powers[-1] @ Qm)
    zero = Shift.diag(np.zeros((k, basis.d)))
    terms = [powers[k - 1 - j] @ Qp @ powers[j] for j in range(k)]
    return [
        check("fsusy.nilpotency", "Q-^k = 0 and Q+^k = 0",
              max(residual(powers[k], zero), residual(Qp ** k, zero)), 0.0),
        check("fsusy.multilinear", "the k ordered products Q-^(k-1-j) Q+ Q-^j sum to Q-^(k-2) H",
              residual(sum(terms[1:], start=terms[0]), powers[k - 2] @ H, P), tolerance, win),
        check("fsusy.hamiltonian_commutes", "[H, Q-] = 0 and [H, Q+] = 0",
              max(residual(H @ Qm, Qm @ H, P), residual(H @ Qp, Qp @ H, P)), strict, win),
        check("fsusy.partner_diagonal",
              "H is diagonal and its diagonal matches the closed-form partner energies",
              residual(H, partners), strict),
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
    P = np.tile(P, (k, 1))
    for s in range(2, k + 1):
        P[s % k, 0] = False
    return check(name, statement, residual(doublet.H, rhs, P), tolerance,
                 win + ", omitting replica ground levels")


RELATION_STATEMENTS = {
    "ladder_commutator": "[X-, X+] equals the sector-weighted structure values sum_s f_s(N) Pi_s",
    "number_ladder": "[N, X-] = -X- and [N, X+] = +X+",
    "grading_ladder": "K X- = q^(-1) X- K and K X+ = q^(+1) X+ K",
    "grading_number": "[K, N] = 0",
    "grading_cyclic": "K^k = 1",
}


def reference_ladder_sum(rep):
    """sum_s f_s(N) Pi_s from k diagonal column-map products, Pi_s the mask
    of sector s."""
    basis = rep.basis
    return sum(
        (Shift.diag(np.tile(rep.spec.f(s, np.arange(basis.d)), (basis.k, 1)))
         @ Shift.diag(sector_mask(basis, s)) for s in range(basis.k)),
        start=Shift.diag(np.zeros((basis.k, basis.d))),
    )


def reference_relation_residuals(rep, margin):
    """The five relation residuals of one representation on its own space."""
    basis = rep.basis
    P, win = basis.window(margin)
    q = roots(basis.k)
    eye = Shift.diag(np.ones((basis.k, basis.d)))
    Xm, Xp, N, K = rep.Xm, rep.Xp, rep.N, rep.K
    return {
        "ladder_commutator": residual(Xm @ Xp, Xp @ Xm + reference_ladder_sum(rep), P),
        "number_ladder": max(residual(N @ Xm, Xm @ N - Xm, P), residual(N @ Xp, Xp @ N + Xp, P)),
        "grading_ladder": max(residual(K @ Xm, q[-1] * (Xm @ K), P),
                              residual(K @ Xp, q[1] * (Xp @ K), P)),
        "grading_number": residual(K @ N, N @ K, P),
        "grading_cyclic": residual(K ** basis.k, eye, P),
    }, win


def reference_tensor(pair, rep):
    """The tensor realization with X-+ summed from k Kronecker terms each,
    Pf_s the mask of grade s."""
    k, d = pair.k, rep.basis.d
    Pf = [Shift.diag((np.arange(k) == s)[:, None]) for s in range(k)]
    bm = [Shift(-1, 0, np.sqrt(np.maximum(rep.F[s], 0.0)).astype(complex)[None])
          for s in range(k)]
    # A = f- + (f+ [N+1]_q^(-1))^(k-1), with [N+1]_q read from the table of
    # q-numbers and divided on f+'s support alone
    fp, step = pair.fp.weight, np.zeros((k, 1), dtype=complex)
    np.divide(fp, q_numbers(k)[1:, None], out=step, where=fp != 0)
    A = pair.fm + Shift(0, 1, step) ** (k - 1)
    Ak1 = A ** (k - 1)
    # each sum starts from zero weights on the steps of its terms
    Xm = sum((kron(bm[s], A @ Pf[s]) for s in range(k)), start=Shift(-1, -1, np.zeros((k, d))))
    Xp = sum((kron(bm[(s + 1) % k].adjoint(), Ak1 @ Pf[s]) for s in range(k)),
             start=Shift(1, 1, np.zeros((k, d))))
    return dataclasses.replace(build_tensor_realization(pair, rep), Xm=Xm, Xp=Xp)


def reference_verify_system(system, config):
    """The suite's entries with every replica built and every check made on
    the whole space, one at a time; the k-fermions and the spectra are the
    program's own checks."""
    rep, doublet, basis = system.rep, system.doublet, system.rep.basis
    margin, tol, scoring = config.margin, config.tolerance, config.scoring
    strict = tol * STRICT_FACTOR
    replicas, refused = reference_replicas(doublet, margin)
    entries = []
    try:
        residuals, win = reference_relation_residuals(rep, margin)
        entries += [check(f"algebra.{key}", RELATION_STATEMENTS[key], val, tol, win)
                    for key, val in residuals.items()]
        entries += reference_verify_fsusy(doublet, margin, tol, strict)
        entries.append(reference_level_shift(doublet, margin, tol))
        for s in range(2, config.k + 1):
            if s in refused:
                entries.append(ReportEntry.failure(
                    f"replica{s}.factorization",
                    "the partner ladder admits real square roots at every level",
                    refused[s]))
            else:
                entries += reference_verify_replica(replicas[s], doublet, margin, tol, strict)
        entries.append(reference_sum_identity(doublet, replicas, margin, tol))
        if config.k == 2:
            P, win = basis.window(margin)
            entries.append(check(
                "reduction.total_hamiltonian",
                "for order 2 the replica Hamiltonian h(2) equals H entrywise",
                residual(replicas[2].h, doublet.H, P), strict, win))
        pair = build_kfermion_pair(config.k)
        entries += scoring.entries(pair.residuals)
        tensor = reference_tensor(pair, rep)
        residuals, win = reference_relation_residuals(tensor, margin)
        entries += [check(f"tensor.{key}", RELATION_STATEMENTS[key], val, tol, win)
                    for key, val in residuals.items()]
        entries += scoring.entries(compare_realizations(tensor, rep))
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
    # the recursion forms and adds the k ordered products in another order
    # than the list: the multilinear residual agrees within their round-off
    # bound, every other field and entry bit for bit
    residuals = [[e.residual for e in entries if e.name == "fsusy.multilinear"]
                 for entries in (got, want)]
    assert np.allclose(*residuals, rtol=0, atol=multilinear_roundoff(k))
    got, want = ([dataclasses.replace(e, residual=None) if e.name == "fsusy.multilinear" else e
                  for e in entries] for entries in (got, want))
    assert [entry_bits(e) for e in got] == [entry_bits(e) for e in want]
    replicas, _ = reference_replicas(system.doublet, k)
    window = system.rep.basis.window(k)
    batch = {e.name: e for e in config.scoring.entries(
        verify_replicas(system.replicas, system.doublet, window))}
    assert [s for s in range(2, k + 1) if f"replica{s}.nilpotency" in batch] == sorted(replicas)
    for s, rd in replicas.items():
        one = reference_verify_replica(rd, system.doublet, k)
        assert [entry_bits(batch[e.name]) for e in one] == [entry_bits(e) for e in one]
    assert (entry_bits(batch["fsusy.charge_sum"])
            == entry_bits(reference_sum_identity(system.doublet, replicas, k)))


@pytest.mark.parametrize("k,label", CHECK_POINTS, ids=[f"k={k}-{lb}" for k, lb in CHECK_POINTS])
def test_replica_stack_matches_the_one_at_a_time_build(k, label):
    # refused replicas included (k = 4 falling, k = 5 unit), and levels
    # dropped inside the top slack (k = 6 .. 8 falling: replica 2 drops n = 39)
    system = build_system(RunConfig(k=k, d=40, spec=CHECK_FAMILIES[label](k), margin=k))
    blocks, basis = system.replicas, system.rep.basis
    replicas, refused = reference_replicas(system.doublet, k)
    assert ({s: refusal(e) for s, e in blocks.refused.items()}
            == {s: refusal(e) for s, e in refused.items()})
    assert blocks.order == tuple(sorted(replicas))
    if label == "affine_falling" and k >= 6:
        assert system.doublet.partners[1, 39] < -NONNEG_TOL and 2 in blocks.order
    for i, s in enumerate(blocks.order):
        pair = [s - 1, s % k]
        # the stack holds no q(s)-+: the projector-formed charges of the
        # reference route are X(s)-+ by value (the mask multiply turns a
        # -0.0 of X(s)+ into +0.0)
        for q, X in (("qm", "Xsm"), ("qp", "Xsp")):
            full, lifted = getattr(replicas[s], q), blocks.lift(X, s)
            assert (full.dn, full.ds) == (lifted.dn, lifted.ds), q
            assert np.array_equal(full.weight, lifted.weight), q
        for name in ("Xsm", "Xsp", "h"):
            stacked, full = getattr(blocks, name), getattr(replicas[s], name)
            # the replica's weights all sit on its pair of sectors, block i of
            # the stack, whose rows stay in the block ...
            assert np.count_nonzero(full.weight) == np.count_nonzero(full.weight[pair])
            weight = stacked.weight[i]
            assert np.array_equal(weight.view(np.int64), full.weight[pair].view(np.int64)), name
            # ... with the replica's own steps between its sectors
            assert (stacked.dn, stacked.ds) == (full.dn, full.ds), name
            # readers of the full space get the one-at-a-time map itself
            assert_same_map(blocks.lift(name, s), full)


@pytest.mark.parametrize("label", list(CHECK_FAMILIES))
def test_order_two_never_refuses_its_replica(label):
    # at k = 2 the partner table gives H_2 = F_0, which is >= -NONNEG_TOL on
    # every built level, so replica 2 is always built and the report always
    # holds the reduction h(2) = H
    config = RunConfig(k=2, d=40, spec=CHECK_FAMILIES[label](2), margin=2)
    system = build_system(config)
    assert np.array_equal(system.doublet.partners[1], system.rep.F[0])
    assert (system.rep.F[0] >= -NONNEG_TOL).all()
    assert system.replicas.order == (2,) and not system.replicas.refused
    names = [e.name for e in verify_system(system, config)]
    assert "reduction.total_hamiltonian" in names


@pytest.mark.parametrize("k,label", CHECK_POINTS, ids=[f"k={k}-{lb}" for k, lb in CHECK_POINTS])
def test_paired_relation_pass_equals_each_representation_alone(k, label):
    config = RunConfig(k=k, d=40, spec=CHECK_FAMILIES[label](k), margin=k)
    rep = build_system(config).rep
    tensor = build_tensor_realization(build_kfermion_pair(k), rep)
    window = rep.basis.window(k)
    graded, paired_tensor = algebra_relation_residuals([rep, tensor], window)
    alone = [algebra_relation_residuals([one], window) for one in (rep, tensor)]
    references = [reference_relation_residuals(one, k) for one in (rep, tensor)]
    for residuals, single, (ref, ref_win) in zip(
            (graded, paired_tensor), alone, references, strict=True):
        assert window.text == ref_win
        hexed = {key: val.hex() for key, val in residuals.items()}
        assert hexed == {key: val.hex() for key, val in single[0].items()}
        assert hexed == {key: val.hex() for key, val in ref.items()}


@pytest.mark.parametrize("k,label", CHECK_POINTS, ids=[f"k={k}-{lb}" for k, lb in CHECK_POINTS])
def test_grade_block_sums_match_the_term_sums(k, label):
    config = RunConfig(k=k, d=40, spec=CHECK_FAMILIES[label](k), margin=k)
    rep = build_system(config).rep
    pair = build_kfermion_pair(k)
    tensor, reference = build_tensor_realization(pair, rep), reference_tensor(pair, rep)
    assert_same_tensor_ladders(tensor, reference)


def count_calls(monkeypatch):
    """Count graded-shift constructions, products, adjoints and per-column
    deviations from now on.

    A power counts as one product, not as its chain of products, and the
    maps that chain makes are not counted.
    """
    counts = dict.fromkeys(("construct", "matmul", "adjoint", "deviation"), 0)
    inside_power = []
    init, matmul, power = Shift.__init__, Shift.__matmul__, Shift.__pow__
    adjoint, deviation = Shift.adjoint, fsusy.wkalg.deviation

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

    monkeypatch.setattr(Shift, "__init__", counted_init)
    monkeypatch.setattr(Shift, "__matmul__", counted_matmul)
    monkeypatch.setattr(Shift, "__pow__", counted_power)
    monkeypatch.setattr(Shift, "adjoint", counted_adjoint)
    monkeypatch.setattr(fsusy.wkalg, "deviation", counted_deviation)
    return counts


def test_batched_checks_make_the_same_calls_at_every_order(monkeypatch, clear_order_caches):
    # no loop over replicas, grades, projectors or representations may come
    # back into the representation, the doublet, the replica build and
    # checks, the tensor build or the relation pass: k = 3 and k = 8 (every
    # replica built) make equally many graded shifts, products, adjoints and
    # deviations in each stage.  Each order starts from empty order caches,
    # as a fresh process does, whatever ran before this test
    stages, warm = {}, {}
    for k in (3, 8):
        config = RunConfig(k=k, d=40, spec=StructureSpec.affine_family(k, 0.5, 1.0), margin=k)
        system = build_system(config)
        assert len(system.replicas.order) == k - 1
        F, basis = system.rep.F, system.rep.basis
        clear_order_caches()
        pair = build_kfermion_pair(k)
        with monkeypatch.context() as patch:
            counts = count_calls(patch)
            stage = {}

            def done(name):
                stage[name] = dict(counts)
                counts.update(dict.fromkeys(counts, 0))

            build_doublet(build_rep(config.spec, F))
            done("representation and doublet")
            blocks = build_replicas(system.doublet, config.margin)
            done("replica build")
            verify_replicas(blocks, system.doublet, basis.window(k))
            done("replica checks")
            tensor = build_tensor_realization(pair, system.rep)
            done("tensor build")
            algebra_relation_residuals([system.rep, tensor], basis.window(k))
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
