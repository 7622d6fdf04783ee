"""Acceptance gate: one test per release criterion.

Every test sweeps the full grid (k in 2..5, d = 40, margin = k, four
structure families) built once per module.  Criteria are asserted at their
fixed tolerances.

Replica s exists only where its partner ladder admits real square roots:
H_s(n) >= 0 for 1 <= n <= d_eff - 1 - margin.  The replica criteria (04, 05,
07) take that precondition from the closed form ``partner_value``, not from
the suite.  Where it holds, every replica identity is asserted; where it
fails, the documented refusal is asserted instead: a failing
``replica{s}.factorization`` entry naming the first negative energy, no
identity entry for that replica, a failing ``fsusy.charge_sum`` naming it,
and a failing verdict.  The refused points must be exactly ``REFUSALS``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from fsusy.cli import main
from fsusy.fock import (
    NONNEG_TOL,
    StructureSpec,
    effective_dimension,
    solve_structure_function,
)
from fsusy.realization import build_kfermion_pair
from fsusy.suite import RunConfig, run_verification_suite
from fsusy.system import build_doublet, partner_value
from fsusy.wkalg import Scoring, build_rep

GRID_K = (2, 3, 4, 5)
GRID_D = 40
GOLDEN = Path(__file__).parent / "data" / "golden_report_k3.json"

RELATIONS = (
    "ladder_commutator",
    "number_ladder",
    "grading_ladder",
    "grading_number",
    "grading_cyclic",
)

# (k, family, s) -> (n, H_s(n)): the first negative partner energy of every
# grid replica that cannot be factorized; everywhere else all replicas exist
REFUSALS = {
    (4, "affine_falling", 4): (1, -0.1),
    (5, "constant_unit", 5): (1, -2.0),
    (5, "affine_flat", 5): (1, -2.0),
    (5, "affine_falling", 5): (1, -4.4),
}


def grid_specs(k):
    return {
        "constant_unit": StructureSpec.constant_values(k, 1.0),
        "affine_flat": StructureSpec.affine_family(k, 0.0, 1.0),
        "affine_rising": StructureSpec.affine_family(k, 0.5, 1.0),
        "affine_falling": StructureSpec.affine_family(k, -0.1, 2.0),
    }


@pytest.fixture(scope="module")
def grid():
    reports = {}
    start = time.perf_counter()
    for k in GRID_K:
        for label, spec in grid_specs(k).items():
            config = RunConfig(k=k, d=GRID_D, spec=spec, margin=k)
            reports[k, label] = run_verification_suite(config)
    return reports, time.perf_counter() - start


def by_name(report):
    return {e.name: e for e in report.entries}


def by_name_list(entries):
    return {e.name: e for e in entries}


def check_residual(entries, name, bound, point, bad, exact=False):
    entry = entries.get(name)
    if entry is None or entry.residual is None:
        reason = entry.error if entry is not None else "entry missing"
        detail = entries.get(name.split(".")[0] + ".factorization")
        if detail is not None:
            reason = detail.error
        bad.append(f"{point} {name}: {reason}")
        return
    ok = entry.residual == 0.0 if exact else entry.residual < bound
    if not ok:
        bad.append(f"{point} {name}: residual {entry.residual:.3g}")


def closed_form_refusals(spec, d):
    """Replicas the closed form refuses at margin = k: s -> first negative (n, H_s(n)).

    Levels above d_eff - 1 - margin are outside the range a replica must
    factorize (the suite drops them as truncation junk), so they are not
    scanned.  Values above -NONNEG_TOL count as nonnegative, as in the solver.
    """
    found = {}
    F = solve_structure_function(spec, d)
    top = effective_dimension(F) - 1 - spec.k
    for s in range(2, spec.k + 1):
        for n in range(1, top + 1):
            value = partner_value(spec, F, s, n)
            if value < -NONNEG_TOL:
                found[s] = (n, value)
                break
    return found


@pytest.fixture(scope="module")
def refused():
    """Closed-form refusals on the grid: (k, family, s) -> first negative (n, H_s(n))."""
    return {(k, label, s): first
            for k in GRID_K
            for label, spec in grid_specs(k).items()
            for s, first in closed_form_refusals(spec, GRID_D).items()}


def assert_documented_refusals(refused):
    assert set(refused) == set(REFUSALS)
    for key, (n, value) in REFUSALS.items():
        assert refused[key][0] == n, key
        assert refused[key][1] == pytest.approx(value, abs=1e-12), key


def check_refusal(report, s, first_negative, point, bad):
    """Replica s is refused: named in a failing entry, never verified."""
    n, value = first_negative
    energy = f"H_{s}({n}) = {value:.6g}"
    entries = by_name(report)
    entry = entries.get(f"replica{s}.factorization")
    if entry is None or entry.passed:
        bad.append(f"{point}: no failing replica{s}.factorization entry")
    elif energy not in (entry.error or ""):
        bad.append(f"{point}: refusal reads {entry.error!r}, expected {energy}")
    verified = [name for name in entries
                if name.startswith(f"replica{s}.")
                and name != f"replica{s}.factorization"]
    if verified:
        bad.append(f"{point}: refused replica reports {verified}")
    if report.verdict != "fail":
        bad.append(f"{point}: verdict {report.verdict} despite the refusal")


def test_criterion_01_defining_relations_across_grid(grid):
    reports, elapsed = grid
    bad = []
    for (k, label), report in reports.items():
        entries = by_name(report)
        for rel in RELATIONS:
            check_residual(entries, f"algebra.{rel}", 1e-10, f"k={k} {label}", bad)
    assert elapsed < 60.0, f"grid build took {elapsed:.1f}s"
    assert not bad, "\n".join(bad)


def test_criterion_02_supersymmetry_axioms(grid):
    reports, _ = grid
    bad = []
    for (k, label), report in reports.items():
        entries = by_name(report)
        point = f"k={k} {label}"
        check_residual(entries, "fsusy.nilpotency", 0.0, point, bad, exact=True)
        check_residual(entries, "fsusy.multilinear", 1e-10, point, bad)
        check_residual(entries, "fsusy.hamiltonian_commutes", 1e-12, point, bad)
    assert not bad, "\n".join(bad)


def test_criterion_03_hamiltonian_matches_partner_formula(grid):
    reports, _ = grid
    bad = []
    for (k, label), report in reports.items():
        check_residual(by_name(report), "fsusy.partner_diagonal", 1e-12,
                       f"k={k} {label}", bad)
    assert not bad, "\n".join(bad)


def test_criterion_04_replica_subsystems(grid, refused):
    reports, _ = grid
    assert_documented_refusals(refused)
    bad = []
    for (k, label), report in reports.items():
        entries = by_name(report)
        for s in range(2, k + 1):
            point = f"k={k} {label} s={s}"
            if (k, label, s) in refused:
                check_refusal(report, s, refused[k, label, s], point, bad)
                continue
            check_residual(entries, f"replica{s}.nilpotency", 0.0, point, bad,
                           exact=True)
            check_residual(entries, f"replica{s}.pair_adjoint", 0.0, point, bad,
                           exact=True)
            check_residual(entries, f"replica{s}.anticommutator", 1e-12, point, bad)
            check_residual(entries, f"replica{s}.hamiltonian_commutes", 1e-12,
                           point, bad)
            check_residual(entries, f"replica{s}.partner_diagonal", 1e-12,
                           point, bad)
            check_residual(entries, f"replica{s}.shift_product", 1e-10, point, bad)
    assert not bad, "\n".join(bad)


def test_criterion_05_intertwining_relations(grid, refused):
    reports, _ = grid
    assert_documented_refusals(refused)
    bad = []
    for (k, label), report in reports.items():
        entries = by_name(report)
        for s in range(2, k + 1):
            point = f"k={k} {label} s={s}"
            if (k, label, s) in refused:
                check_refusal(report, s, refused[k, label, s], point, bad)
                continue
            check_residual(entries, f"replica{s}.intertwining", 1e-12, point, bad)
    assert not bad, "\n".join(bad)


def test_criterion_06_isospectral_shift_and_wrap_guard(grid):
    reports, _ = grid
    bad = []
    for (k, label), report in reports.items():
        entries = by_name(report)
        check_residual(entries, "partners.level_shift", 1e-10,
                       f"k={k} {label}", bad)
        # the wrap pair (top sector against sector 1) is not isospectral,
        # so no entry may assert it
        assert not any("wrap" in name for name in entries), (k, label)
    assert not bad, "\n".join(bad)
    spec = StructureSpec.constant_values(3, 1.0)
    doublet = build_doublet(build_rep(spec, solve_structure_function(spec, 12)))
    wrap_dev = max(
        abs(doublet.partners[2, n - 1] - doublet.partners[0, n]) for n in range(1, 8)
    )
    assert wrap_dev == pytest.approx(6.0)


def test_criterion_07_reduction_and_charge_sum(grid, refused):
    reports, _ = grid
    assert_documented_refusals(refused)
    bad = []
    for (k, label), report in reports.items():
        entries = by_name(report)
        point = f"k={k} {label}"
        missing = [s for s in range(2, k + 1) if (k, label, s) in refused]
        if missing:
            entry = entries.get("fsusy.charge_sum")
            if entry is None or entry.passed or str(missing) not in (entry.error or ""):
                bad.append(f"{point} fsusy.charge_sum: expected a failure naming "
                           f"replicas {missing}, got {entry}")
            if report.verdict != "fail":
                bad.append(f"{point}: verdict {report.verdict} without replicas {missing}")
            continue
        if k == 2:
            check_residual(entries, "reduction.total_hamiltonian", 1e-12,
                           point, bad)
        check_residual(entries, "fsusy.charge_sum", 1e-10, point, bad)
    assert not bad, "\n".join(bad)


def test_criterion_08_solver_matches_telescoped_form():
    rng = np.random.default_rng(20260814)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(5, 26))
        table = {
            (s, n): float(rng.uniform(-1.0, 2.0))
            for s in range(k)
            for n in range(d)
        }
        spec = StructureSpec.from_table(k, table)
        solved = solve_structure_function(spec, d)
        for s in range(k):
            for n in range(d):
                closed = sum(
                    table[(s - j) % k, n - j] for j in range(1, n + 1)
                )
                assert abs(solved[s, n] - closed) < 1e-12


def test_criterion_09_kfermions_and_tensor_realization(grid):
    bad = []
    for k in range(2, 9):
        entries = by_name_list(Scoring(1e-10).entries(build_kfermion_pair(k).residuals))
        point = f"k={k}"
        check_residual(entries, "kfermion.q_commutator", 1e-12, point, bad)
        check_residual(entries, "kfermion.nilpotency", 0.0, point, bad, exact=True)
        check_residual(entries, "kfermion.grading_spectrum", 1e-12, point, bad)
    relations = [f"tensor.{key}" for key in (
        "ladder_commutator", "number_ladder", "grading_ladder", "grading_number",
        "grading_cyclic")]
    reports, _ = grid
    for (k, label), report in reports.items():
        entries = by_name_list(report.entries)
        tensor = sorted(name for name in entries if name.startswith("tensor."))
        assert tensor == sorted(relations + ["tensor.spectral_distance"]), (k, label)
        # every relation and the spectral distance are asserted at every k
        for name in relations + ["tensor.spectral_distance"]:
            assert not entries[name].informative, (k, label, name)
            check_residual(entries, name, 1e-10, f"k={k} {label}", bad)
    assert not bad, "\n".join(bad)


def failing_entries(report):
    return sorted(e.name for e in report.entries if not e.passed)


def test_verdicts_do_not_depend_on_d(grid):
    # a verdict depends on the mathematics, not on the truncation: the same
    # families at d = 150, 400 and 1000 give the verdict and failing entries
    # of d = 40, unless the closed form refuses another set of replicas there
    reports, _ = grid
    bad = []
    for k in GRID_K:
        for label, spec in grid_specs(k).items():
            base = reports[k, label]
            base_refusals = closed_form_refusals(spec, GRID_D)
            for d in (150, 400, 1000):
                if closed_form_refusals(spec, d) != base_refusals:
                    continue
                report = run_verification_suite(RunConfig(k=k, d=d, spec=spec, margin=k))
                if (report.verdict, failing_entries(report)) != (
                        base.verdict, failing_entries(base)):
                    worst = {e.name: e.residual for e in report.entries
                             if not e.passed and e.residual is not None}
                    bad.append(f"k={k} {label} d={d}: verdict {report.verdict}, failing "
                               f"{failing_entries(report)} {worst}; at d={GRID_D} "
                               f"{base.verdict}, {failing_entries(base)}")
    assert not bad, "\n".join(bad)


def test_commutator_residuals_stay_at_round_off_as_d_grows():
    # X- X+ is compared with X+ X- + f(N) and N X-+ with X-+ N -+ X-+, not a
    # difference of two products of size F ~ n against f, so the residual
    # does not grow with d; the commutator against f read 2.3e-13 at
    # d = 1000 and 1.5e-11 at d = 50000
    spec = StructureSpec.constant_values(2, 1.0)
    names = [f"{group}.{relation}" for group in ("algebra", "tensor")
             for relation in ("ladder_commutator", "number_ladder")]
    for d in (1000, 10000, 50000):
        report = run_verification_suite(RunConfig(k=2, d=d, spec=spec, margin=2))
        residuals = {e.name: e.residual for e in report.entries}
        assert report.verdict == "pass"
        for name in names:
            assert residuals[name] <= 4 * np.finfo(float).eps, (d, name, residuals[name])


def test_criterion_10_cli_contract(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--k", "3", "--d", "12", "--out_report", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for volatile in ("generated_at", "version"):
        got.pop(volatile), want.pop(volatile)
    assert got["config"] == want["config"]
    assert got["verdict"] == want["verdict"]
    assert [e["name"] for e in got["entries"]] == [e["name"] for e in want["entries"]]
    for g, w in zip(got["entries"], want["entries"]):
        residual = g.pop("residual"), w.pop("residual")
        assert g == w
        assert residual[0] == pytest.approx(residual[1], abs=1e-12)
    assert main(["verify", "--k", "1", "--d", "12"]) == 2
    assert main(["verify", "--k", "3", "--d", "12", "--tolerance", "1e-18"]) == 1
