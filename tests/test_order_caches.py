"""What depends on the order k alone is built once per process and shared
by every system of that order: the k roots of unity and the q-numbers read
from them, the grades and their projector table, and the k-fermion pair
with its fermion factors and residuals.

These tests hold the caches to three promises: every shared array is
read-only, a sequence of runs in one process writes the reports that one
fresh run per point writes, and a pair changed by ``dataclasses.replace``
is checked afresh, never read from its canonical pair's residuals.
"""

import dataclasses
import random
import re

import numpy as np
import pytest

from fsusy.fock import StructureSpec
from fsusy.qarith import q_numbers, roots
from fsusy.realization import build_kfermion_pair, build_tensor_realization
from fsusy.suite import RunConfig, build_system, run_verification_suite
from fsusy.wkalg import Scoring, _grading

POINT_ORDERS = (2, 3, 4, 5, 8)
POINT_D = 24


def point_specs(k):
    return {
        "constant": StructureSpec.constant_values(k, 1.0),
        "affine(0,1)": StructureSpec.affine_family(k, 0.0, 1.0),
        "affine(0.5,1)": StructureSpec.affine_family(k, 0.5, 1.0),
        "affine(-0.1,2)": StructureSpec.affine_family(k, -0.1, 2.0),
        "sector-constants": StructureSpec.constant_values(k, [1 + s / 2 for s in range(k)]),
    }


POINTS = [(k, label) for k in POINT_ORDERS for label in point_specs(k)]


def shared_arrays(k):
    """Every array the order caches hold at k, by name."""
    pair = build_kfermion_pair(k)
    grades, projectors = _grading(k)
    arrays = {"roots": roots(k), "q_numbers": q_numbers(k), "grades": grades,
              "projectors": projectors}
    for name in ("fm", "fp", "Kf", "A", "Ak1"):
        op = getattr(pair, name)
        arrays[f"{name}.weight"] = op.weight
    return arrays


@pytest.mark.parametrize("k", (2, 5))
def test_every_shared_array_is_read_only(k):
    for name, array in shared_arrays(k).items():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array
        assert not array.flags.writeable, name
    with pytest.raises(TypeError):
        build_kfermion_pair(k).residuals["kfermion.q_commutator"] = (0.0, None)


def test_systems_of_one_order_share_the_order_objects(clear_order_caches):
    clear_order_caches()
    first, second = (build_system(RunConfig(k=4, d=12, spec=spec, margin=4)).rep
                     for spec in (StructureSpec.constant_values(4, 1.0),
                                  StructureSpec.affine_family(4, 0.5, 1.0)))
    # the grades and the projector table of H and the dump are built once
    assert _grading.cache_info().misses == 1
    assert build_kfermion_pair(4) is build_kfermion_pair(4)
    pair = build_kfermion_pair(4)
    tensors = [build_tensor_realization(pair, rep) for rep in (first, second)]
    # what reads f is not shared
    assert not np.array_equal(tensors[0].Xm.weight, tensors[1].Xm.weight)


def report_text(path) -> str:
    text = path.read_text(encoding="utf-8")
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": null', text)


def run_point(k, label, path) -> str:
    config = RunConfig(k=k, d=POINT_D, spec=point_specs(k)[label], margin=k,
                       out_report=str(path))
    run_verification_suite(config)
    return report_text(path)


def test_runs_in_one_process_write_the_reports_of_fresh_runs(tmp_path, clear_order_caches):
    fresh = {}
    for k, label in POINTS:
        clear_order_caches()
        fresh[k, label] = run_point(k, label, tmp_path / "fresh.json")
    clear_order_caches()
    sequence = POINTS * 2
    random.Random(5).shuffle(sequence)
    for i, (k, label) in enumerate(sequence):
        assert run_point(k, label, tmp_path / "shared.json") == fresh[k, label], (i, k, label)


SCALE = 1 + 1e-9


@pytest.mark.parametrize("k,field", [(5, "fm"), (5, "fp"), (5, "Kf"), (2, "fp")])
def test_a_replaced_pair_is_checked_afresh(k, field):
    pair = build_kfermion_pair(k)
    scoring = Scoring(1e-10)
    assert all(entry.passed for entry in scoring.entries(pair.residuals))
    op = getattr(pair, field)
    weight = op.weight.copy()
    weight[np.flatnonzero(weight)[-1]] *= SCALE
    mutated = dataclasses.replace(pair, **{field: dataclasses.replace(op, weight=weight)})
    assert build_kfermion_pair(k) is pair
    assert not all(entry.passed for entry in scoring.entries(mutated.residuals))
    assert mutated.A is not pair.A
    # the canonical pair still reads its own residuals
    assert all(entry.passed for entry in scoring.entries(pair.residuals))
