import csv
import dataclasses
import gc
import io
import json
import tomllib
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import mmread

import fsusy.suite
from fsusy.errors import ConfigError
from fsusy.fock import FULL_SPACE, StructureSpec, solve_structure_function
from fsusy.replicas import build_replicas
from fsusy.report import VerificationReport
from fsusy.suite import (
    GradedSystem,
    RunConfig,
    build_system,
    dump_operators,
    emit_spectrum,
    named_operators,
    run_verification_suite,
    write_matrix_market,
)
from fsusy.system import build_doublet
from fsusy.wkalg import Shift, build_rep

UNIT3 = StructureSpec.constant_values(3, 1.0)


def small_system(k, d, spec=None):
    spec = spec or StructureSpec.constant_values(k, 1.0)
    doublet = build_doublet(build_rep(spec, solve_structure_function(spec, d)))
    return GradedSystem(doublet.rep, doublet, build_replicas(doublet))


# float64 parts a formatting memo must tell apart: 0.0 and -0.0 are equal
# values with different bits, 1.0 and its successor are one ulp apart, and
# 0.1 + 0.2 is not 0.3; plus a subnormal and a tiny negative
WEIGHT_POOL = [0.0, -0.0, 1.0, float(np.nextafter(1.0, 2.0)), 0.1 + 0.2, 0.3,
               5e-324, -1e-300]


def entrywise_matrix_market(op: Shift) -> str:
    """Matrix Market text from a plain loop over every dense entry, row-major."""
    M = op.dense()
    n = op.dim
    body = [f"{i + 1} {j + 1} {float(M[i, j].real)!r} {float(M[i, j].imag)!r}"
            for i in range(n) for j in range(n) if M[i, j] != 0]
    lines = ["%%MatrixMarket matrix coordinate complex general", f"{n} {n} {len(body)}"]
    return "\n".join(lines + body) + "\n"


def entrywise_spectrum(doublet, replicas) -> str:
    """Spectrum CSV from the row-by-row loop of the former writer, each
    replica's energies read off its h lifted to the full space."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["s", "n", "energy", "replica_s"])
    for s in range(1, doublet.k + 1):
        for n in range(doublet.d):
            writer.writerow([s, n, float(doublet.partners[s - 1, n]), ""])
    for s in sorted(replicas):
        h = replicas.lift("h", s).weight
        for ladder in (s - 1, s):
            for n in range(doublet.d):
                writer.writerow([ladder, n, float(h[ladder % doublet.k, n].real), s])
    return out.getvalue()


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(k=3, d=12, spec=UNIT3, margin=3)
        assert cfg.tolerance == 1e-10
        strict = cfg.scoring.entry("x", "x", 0.0, "strict", FULL_SPACE)
        assert strict.tolerance == pytest.approx(1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=1, d=12, spec=StructureSpec.constant_values(2, 1.0), margin=1),
            dict(k=3, d=3, spec=UNIT3, margin=1),
            dict(k=3, d=12, spec=UNIT3, margin=0),
            dict(k=3, d=12, spec=UNIT3, margin=11),
            dict(k=3, d=12, spec=UNIT3, margin=3, tolerance=0.0),
            dict(k=3, d=12, spec=UNIT3, margin=3, tolerance=float("nan")),
            dict(k=4, d=12, spec=UNIT3, margin=4),
            dict(k=3, d=12, spec=UNIT3, margin=3, tolerance=float("inf")),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_refuses_a_system_that_exceeds_memory(self, monkeypatch):
        # a run at k=3, d=12 is counted as 16 (41 k d + 2 k^2) = 23904 bytes
        monkeypatch.setattr(fsusy.suite, "_physical_memory", lambda: 23904)
        RunConfig.check_space(3, 12, 3)
        monkeypatch.setattr(fsusy.suite, "_physical_memory", lambda: 23903)
        with pytest.raises(ConfigError, match="^the system at k=3, d=12 is too large to allocate$"):
            RunConfig.check_space(3, 12, 3)

    def test_counts_the_grade_tables(self, monkeypatch):
        # at k=100000, d=4 the (k, d) tables would fit in twice 16 * 41 k d
        # bytes, but one (k, k) table alone takes 160 GB
        monkeypatch.setattr(fsusy.suite, "_physical_memory", lambda: 2 * 16 * 41 * 100000 * 4)
        with pytest.raises(ConfigError, match="^the system at k=100000, d=4 is too large"):
            RunConfig.check_space(100000, 4, 1)

    def test_refuses_a_sweep_grid_that_exceeds_memory(self, monkeypatch):
        # a 10 x 30 grid is counted at 96 bytes a point, 28800 bytes
        monkeypatch.setattr(fsusy.suite, "_physical_memory", lambda: 28800)
        RunConfig.check_sweep(10, 30)
        monkeypatch.setattr(fsusy.suite, "_physical_memory", lambda: 28799)
        with pytest.raises(ConfigError, match="^a sweep grid of 10 a-range by 30 b-range steps"):
            RunConfig.check_sweep(10, 30)
        # a range alone is counted at 8 bytes a step
        with pytest.raises(ConfigError, match="^--b-range step count 3600 is too large"):
            RunConfig.check_sweep(1, 3600)

    def test_echo_is_json_ready(self):
        cfg = RunConfig(k=3, d=12, spec=StructureSpec.affine_family(3, -0.1, 2.0), margin=3)
        echo = cfg.echo(10)
        json.dumps(echo)
        assert echo["k"] == 3
        assert echo["d_requested"] == 12
        assert echo["d_effective"] == 10
        assert echo["family"] == "affine"
        assert echo["preset"] == "morse"
        assert echo["margin"] == 3
        assert echo["tolerance"] == 1e-10


class TestRunVerificationSuite:
    def test_unit_constant_passes(self):
        report = run_verification_suite(RunConfig(k=3, d=30, spec=UNIT3, margin=3))
        assert report.verdict == "pass"
        names = [e.name for e in report.entries]
        assert "algebra.ladder_commutator" in names
        assert "fsusy.nilpotency" in names
        assert "replica2.shift_product" in names
        assert "fsusy.charge_sum" in names
        assert "kfermion.q_commutator" in names
        assert "tensor.spectral_distance" in names

    def test_k2_includes_reduction(self):
        spec = StructureSpec.constant_values(2, 1.0)
        report = run_verification_suite(RunConfig(k=2, d=20, spec=spec, margin=2))
        assert report.verdict == "pass"
        by_name = {e.name: e for e in report.entries}
        assert by_name["reduction.total_hamiltonian"].passed

    def test_auto_truncation_is_recorded(self):
        entries = {(s, n): 3.0 - n for s in range(3) for n in range(-3, 24)}
        spec = StructureSpec.from_table(3, entries)
        report = run_verification_suite(RunConfig(k=3, d=20, spec=spec, margin=3))
        assert report.config["d_requested"] == 20
        assert report.config["d_effective"] == 8
        assert report.verdict == "pass"

    def test_unfactorizable_replica_fails_the_run(self):
        spec = StructureSpec.constant_values(5, 1.0)
        report = run_verification_suite(RunConfig(k=5, d=20, spec=spec, margin=5))
        assert report.verdict == "fail"
        by_name = {e.name: e for e in report.entries}
        assert by_name["replica5.factorization"].error is not None
        assert by_name["fsusy.charge_sum"].error is not None
        # the buildable replicas are still verified
        assert by_name["replica2.shift_product"].passed

    def test_construction_error_becomes_entry(self):
        # the table covers no negative arguments, so assembly cannot evaluate
        # the shifted weights and the run must fail structurally
        entries = {(s, n): 1.0 for s in range(3) for n in range(12)}
        spec = StructureSpec.from_table(3, entries)
        report = run_verification_suite(RunConfig(k=3, d=8, spec=spec, margin=2))
        assert report.verdict == "fail"
        assert report.entries[0].name == "construction.representation"
        assert report.entries[0].error is not None

    def test_report_written_when_requested(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = RunConfig(k=2, d=10, spec=StructureSpec.constant_values(2, 1.0), margin=2)
        report = run_verification_suite(cfg)
        report.write(out)
        on_disk = json.loads(out.read_text(encoding="utf-8"))
        assert on_disk["verdict"] == report.verdict
        assert on_disk["config"]["k"] == 2

    def test_returns_the_report_and_writes_nothing(self, tmp_path, monkeypatch):
        # output paths are the CLI's settings, not inputs of a run
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "k", "d", "spec", "margin", "tolerance"]
        monkeypatch.chdir(tmp_path)
        report = run_verification_suite(RunConfig(k=3, d=12, spec=UNIT3, margin=3))
        assert report.verdict == "pass"
        assert list(tmp_path.iterdir()) == []

    def test_every_entry_gates_the_verdict(self):
        # no entry is informative, so one failing entry, the spectral
        # distance included, fails the run
        report = run_verification_suite(RunConfig(k=3, d=16, spec=UNIT3, margin=3))
        assert report.verdict == "pass"
        assert not any(e.informative for e in report.entries)
        for entry in report.entries:
            flipped = dataclasses.replace(entry, passed=False)
            others = [flipped if e is entry else e for e in report.entries]
            assert VerificationReport.compile(report.config, others).verdict == "fail"

    def test_k2_tensor_comparison_gates_the_verdict(self):
        # sector-dependent weights: the tensor realization reads the coupled
        # F, so its asserted comparison passes with every doublet and
        # replica identity
        spec = StructureSpec.constant_values(2, [2.0, 0.5])
        report = run_verification_suite(RunConfig(k=2, d=12, spec=spec, margin=2))
        assert report.verdict == "pass"
        by_name = {e.name: e for e in report.entries}
        assert not by_name["tensor.ladder_commutator"].informative
        assert by_name["tensor.ladder_commutator"].passed
        assert by_name["fsusy.multilinear"].passed
        assert by_name["replica2.intertwining"].passed
        assert by_name["reduction.total_hamiltonian"].passed


def indented_json(report: VerificationReport) -> str:
    """The report through the indenting pure-Python encoder, the oracle of to_json."""
    return json.dumps(report.to_dict(), indent=2) + "\n"


class TestReportJson:
    @pytest.mark.parametrize("k,d,spec", [
        (3, 12, UNIT3),
        (5, 20, StructureSpec.constant_values(5, [1.0, 0.5, 2.0, 1.5, 0.25])),
        (3, 10, StructureSpec.from_table(
            3, {(s, n): 1.0 + 0.25 * s for s in range(3) for n in range(-3, 14)})),
        (3, 20, StructureSpec.from_table(
            3, {(s, n): 3.0 - n for s in range(3) for n in range(-3, 24)})),
    ], ids=["golden-config-k3", "constants-refused-replica", "table", "truncating-table"])
    def test_suite_reports_match_the_indenting_encoder(self, k, d, spec):
        report = run_verification_suite(RunConfig(k=k, d=d, spec=spec, margin=k))
        assert report.to_json() == indented_json(report)

    def test_failure_entries_with_quotes_and_non_ascii_text(self):
        failure = fsusy.report.ReportEntry.failure
        entries = [
            failure("construction.representation", 'the "graded" ladder\tmaterializes',
                    'partner energy H₅(1) = -2 is "negative"; \\ no root'),
            failure("construction.window", "a window exists", "ü\n€ and \u2028"),
            # the text between two entries, escaped inside a string
            failure("construction.window", "},\n      {", "}\n    },\n    {"),
        ]
        config = RunConfig(k=5, d=40, spec=StructureSpec.constant_values(5, 1.0),
                           margin=5).echo(None)
        report = VerificationReport.compile(config, entries)
        assert report.to_json() == indented_json(report)
        assert "H\\u2085(1)" in report.to_json()

    def test_report_without_entries(self):
        report = VerificationReport.compile({"k": 2}, [])
        assert report.to_json() == indented_json(report)

    def test_one_version_string(self):
        # the package, its reports and its distribution metadata name one version
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
        assert fsusy.__version__ == VerificationReport.compile({}, []).version == version


class TestEmitSpectrum:
    def test_rows_and_values(self, tmp_path):
        system = small_system(3, 5)
        path = tmp_path / "spectrum.csv"
        emit_spectrum(system.doublet, system.replicas, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "s,n,energy,replica_s"
        # partner rows: k*d, replica rows: two ladders per replica
        assert len(lines) == 1 + 3 * 5 + 2 * 2 * 5
        assert "2,1,3.0," in lines
        # replica energies come from the built operator diagonal, so they
        # match the partner table only up to round-off
        replica_rows = [line.split(",") for line in lines[1:]
                        if line.split(",")[3] == "2"]
        row = next(r for r in replica_rows if r[0] == "2" and r[1] == "1")
        assert float(row[2]) == pytest.approx(3.0, abs=1e-12)

    def test_zero_structure_energies(self, tmp_path):
        system = small_system(2, 5, StructureSpec.constant_values(2, 0.0))
        path = tmp_path / "spectrum.csv"
        emit_spectrum(system.doublet, system.replicas, str(path))
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_idempotent(self, tmp_path):
        system = small_system(2, 6)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_spectrum(system.doublet, system.replicas, str(a))
        emit_spectrum(system.doublet, system.replicas, str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("k, spec", [
        (2, StructureSpec.constant_values(2, [1.0, 2.0])),
        (5, StructureSpec.constant_values(5, 1.0)),  # replica 5 refused
        (5, StructureSpec.affine_family(5, 0.5, 1.0)),
    ])
    def test_matches_row_by_row_reference(self, tmp_path, k, spec):
        d = 30 if k == 2 else 40
        system = build_system(RunConfig(k=k, d=d, spec=spec, margin=k))
        path = tmp_path / "spectrum.csv"
        emit_spectrum(system.doublet, system.replicas, str(path))
        assert path.read_bytes() == entrywise_spectrum(
            system.doublet, system.replicas).encode("utf-8")

    @staticmethod
    def refusing(rows):
        """A k=4 doublet whose partner rows ``rows`` are negative at level 1,
        and its replicas."""
        doublet = small_system(4, 12, StructureSpec.affine_family(4, 0.5, 1.0)).doublet
        partners = doublet.partners.copy()
        partners[rows, 1] = -1.0
        doublet = dataclasses.replace(doublet, partners=partners)
        return doublet, build_replicas(doublet)

    def test_replicas_other_than_the_first_ones(self, tmp_path):
        # H_3(1) < 0: replica 3 is refused, so the stack holds replicas 2 and 4
        doublet, replicas = self.refusing([2])
        assert sorted(replicas.refused) == [3]
        assert list(replicas) == [2, 4]
        assert 3 not in replicas and 4 in replicas
        for s in (0, 1, 3, 5):
            with pytest.raises(KeyError):
                replicas.lift("h", s)
        path = tmp_path / "spectrum.csv"
        emit_spectrum(doublet, replicas, str(path))
        assert path.read_bytes() == entrywise_spectrum(doublet, replicas).encode("utf-8")
        assert {line.split(",")[3] for line in path.read_text(encoding="utf-8").splitlines()[1:]} \
            == {"", "2", "4"}

    def test_every_replica_refused(self, tmp_path):
        doublet, replicas = self.refusing([1, 2, 3])
        assert sorted(replicas.refused) == [2, 3, 4]
        assert list(replicas) == []
        path = tmp_path / "spectrum.csv"
        emit_spectrum(doublet, replicas, str(path))
        assert path.read_bytes() == entrywise_spectrum(doublet, replicas).encode("utf-8")
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1 + 4 * 12


def shift_with(dn, ds, weight):
    """A graded shift with these steps and weights, 0 in the columns without a row."""
    weight = np.array(weight)
    level = np.arange(weight.shape[-1]) + dn
    weight[..., (level < 0) | (level >= weight.shape[-1])] = 0
    return Shift(dn, ds, weight)


class TestMatrixMarket:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        weight = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        weight[rng.random((2, 3, 4)) < 0.3] = 0.0
        op = shift_with(-1, 2, weight)
        path = tmp_path / "m.mtx"
        write_matrix_market(str(path), op)
        back = mmread(str(path))
        assert np.array_equal(np.asarray(back.todense()), op.dense())

    def test_matches_entrywise_reference(self, tmp_path):
        # round-off sized and purely imaginary entries, an all-zero complex
        # -0.0 weight (not written), and rows in another order than columns
        rng = np.random.default_rng(5)
        weight = rng.normal(size=9) * 1e-17 + 1j * rng.normal(size=9)
        weight[[4, 8]] = 0.0
        weight[0], weight[1], weight[2] = -0.0, 1e-300, 2.5j
        op = shift_with(1, -1, weight.reshape(3, 3))
        path = tmp_path / "r.mtx"
        write_matrix_market(str(path), op)
        assert path.read_text(encoding="utf-8") == entrywise_matrix_market(op)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_memo_matches_entrywise_reference(self, tmp_path_factory, data):
        # both parts drawn from a small pool, so values repeat across
        # entries and parts, and signed zeros sit beside nonzero partners
        K, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        dn, ds = data.draw(st.integers(-d, d)), data.draw(st.integers(-K, K))
        parts = st.lists(st.sampled_from(WEIGHT_POOL), min_size=K * d, max_size=K * d)
        weight = np.array(data.draw(parts)) + 1j * np.array(data.draw(parts))
        op = shift_with(dn, ds, weight.reshape(K, d))
        path = tmp_path_factory.mktemp("memo") / "m.mtx"
        write_matrix_market(str(path), op)
        assert path.read_text(encoding="utf-8") == entrywise_matrix_market(op)

    def test_zero_matrix(self, tmp_path):
        path = tmp_path / "z.mtx"
        write_matrix_market(str(path), Shift(-1, 1, np.zeros((2, 2), dtype=complex)))
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "%%MatrixMarket matrix coordinate complex general"
        assert text.splitlines()[1] == "4 4 0"
        assert np.count_nonzero(np.asarray(mmread(str(path)).todense())) == 0

    def test_real_weights_match_entrywise_reference(self, tmp_path):
        op = Shift(1, 0, np.array([[2.0, -0.5, 0.0]]))
        path = tmp_path / "x.mtx"
        write_matrix_market(str(path), op)
        assert path.read_text(encoding="utf-8") == entrywise_matrix_market(op)

    def test_header_and_one_based_indices(self, tmp_path):
        op = Shift(-2, 0, np.array([[0, 0, 1.5 - 0.25j]]))
        path = tmp_path / "e.mtx"
        write_matrix_market(str(path), op)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "3 3 1"
        assert lines[2] == "1 3 1.5 -0.25"


class TestDumpOperators:
    def test_file_census_for_k2(self, tmp_path):
        # 4 algebra + 2 projectors + 3 doublet + 5 replica operators
        system = small_system(2, 3)
        written = dump_operators(system, str(tmp_path / "ops"))
        assert len(written) == 14
        names = sorted(p.split("/")[-1] for p in written)
        assert names == sorted([
            "Xm.mtx", "Xp.mtx", "N.mtx", "K.mtx", "Pi_0.mtx", "Pi_1.mtx",
            "Qm.mtx", "Qp.mtx", "H.mtx",
            "X2m.mtx", "X2p.mtx", "q2m.mtx", "q2p.mtx", "h2.mtx",
        ])

    def test_dump_round_trips_hamiltonian(self, tmp_path):
        system = small_system(3, 6)
        dump_operators(system, str(tmp_path))
        back = np.asarray(mmread(str(tmp_path / "H.mtx")).todense())
        assert np.array_equal(back, system.doublet.H.dense())

    def test_redump_is_byte_identical(self, tmp_path):
        system = small_system(2, 4)
        first = tmp_path / "one"
        second = tmp_path / "two"
        dump_operators(system, str(first))
        dump_operators(system, str(second))
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_every_file_reads_back_bit_exactly(self, tmp_path):
        # shortest-repr text round-trips every float64, signed zeros included
        spec = StructureSpec.affine_family(5, 0.5, 1.0)
        system = build_system(RunConfig(k=5, d=40, spec=spec, margin=5))
        ops = {name: make() for name, make in named_operators(system).items()}
        written = dump_operators(system, str(tmp_path))
        assert [p.split("/")[-1] for p in written] == [f"{name}.mtx" for name in ops]
        for name, op in ops.items():
            coo = mmread(str(tmp_path / f"{name}.mtx"))
            back = np.zeros((op.dim, op.dim), dtype=complex)
            back[coo.row, coo.col] = coo.data
            assert np.array_equal(back.view(np.int64), op.dense().view(np.int64)), name

    @pytest.mark.parametrize("k, d, spec", [
        (5, 40, StructureSpec.affine_family(5, 0.5, 1.0)),
        # X- carries +0.0 imaginary parts and X+, its conjugate, -0.0 ones
        (2, 6, StructureSpec.constant_values(2, 1.0)),
    ], ids=["k=5", "k=2-signed-zeros"])
    def test_shared_text_table_matches_entrywise_reference(self, tmp_path, k, d, spec):
        # one memo serves every file of a dump; it must neither mix 0.0 with
        # -0.0 nor carry one file's entries into the next
        system = build_system(RunConfig(k=k, d=d, spec=spec, margin=k))
        ops = {name: make() for name, make in named_operators(system).items()}
        dump_operators(system, str(tmp_path))
        texts = {name: (tmp_path / f"{name}.mtx").read_text(encoding="utf-8") for name in ops}
        parts = {part for text in texts.values()
                 for line in text.splitlines()[2:] for part in line.split()[2:]}
        assert {"0.0", "-0.0"} <= parts
        for name, op in ops.items():
            assert texts[name] == entrywise_matrix_market(op), name

    def test_stale_files_refused_before_writing(self, tmp_path):
        dump_operators(small_system(3, 6), str(tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ConfigError, match=r"Pi_2\.mtx.*X3m\.mtx"):
            dump_operators(small_system(2, 4), str(tmp_path))
        # nothing deleted, nothing overwritten
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_other_files_are_not_stale(self, tmp_path):
        (tmp_path / "notes.txt").write_text("kept\n", encoding="utf-8")
        dump_operators(small_system(2, 4), str(tmp_path))
        assert (tmp_path / "notes.txt").read_text(encoding="utf-8") == "kept\n"


def test_build_system_skips_unfactorizable_replicas():
    spec = StructureSpec.constant_values(5, 1.0)
    system = build_system(RunConfig(k=5, d=16, spec=spec, margin=5))
    assert sorted(system.replicas) == [2, 3, 4]
    assert sorted(system.replicas.refused) == [5]
    # H_5(1) = 4 F_0(1) - (1 f_2(-2) + 2 f_3(-1) + 3 f_4(0)) = 4 - 6
    assert system.replicas.refused[5].n == 1
    assert system.replicas.refused[5].value == -2
    assert system.d_effective == 16


def test_refused_replica_leaves_no_reference_cycle():
    # a stored traceback would tie the build frame and the system into a
    # cycle that only the cyclic collector frees, with every dense operator
    spec = StructureSpec.constant_values(5, 1.0)
    gc.disable()
    try:
        system = build_system(RunConfig(k=5, d=12, spec=spec, margin=5))
        assert system.replicas.refused
        alive = [weakref.ref(system), weakref.ref(system.replicas)]
        del system
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


def traced_peak(run, config):
    gc.collect()
    tracemalloc.start()
    try:
        run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_system_memory_is_linear_in_dimension():
    # at k=4, d=400 a single (kd) x (kd) complex array would take 41 MB; at
    # k=64, d=500 and k=16, d=2000 a build that evaluates all of H's and the
    # partner table's terms at once peaks at 67 and 20 MiB
    for k, d in [(4, 400), (64, 500), (16, 2000)]:
        config = RunConfig(k=k, d=d, spec=StructureSpec.affine_family(k, 0.5, 1.0), margin=k)
        peak = traced_peak(build_system, config)
        assert peak < 16 * 2**20, (k, d, peak)


def build_and_emit(tmp_path):
    """Build a system, then write its spectrum."""
    def run(config):
        system = build_system(config)
        emit_spectrum(system.doublet, system.replicas, str(tmp_path / "spectrum.csv"))
    return run


def build_and_dump(tmp_path):
    """Build a system, then dump its operators."""
    def run(config):
        system = build_system(config)
        dump_operators(system, str(tmp_path / "ops"))
    return run


def test_spectrum_memory_is_linear_in_dimension(tmp_path):
    # lifting all 63 replicas to the full space at once, 5 maps of kd
    # columns each, peaks at 64 MiB with the spectrum and at 74 MiB with the
    # dump, which also lifts every projector before writing a file
    config = RunConfig(k=64, d=125, spec=StructureSpec.affine_family(64, 0.5, 1.0), margin=64)
    for output in (build_and_emit, build_and_dump):
        peak = traced_peak(output(tmp_path), config)
        assert peak < 16 * 2**20, (output.__name__, peak)


def assert_counted(monkeypatch, peak, k, d):
    """A machine one byte short of the traced peak is refused."""
    monkeypatch.setattr(fsusy.suite, "_physical_memory", lambda: peak - 1)
    with pytest.raises(ConfigError, match="too large to allocate"):
        RunConfig.check_space(k, d, 1)


@pytest.mark.parametrize("k, d", [(8, 1000), (32, 250), (64, 125)])
def test_size_check_counts_the_peak_of_a_verify_run(
        monkeypatch, tmp_path, clear_order_caches, k, d):
    # every peak is traced with empty per-order caches, as in a fresh process
    config = RunConfig(k=k, d=d, spec=StructureSpec.affine_family(k, 0.5, 1.0), margin=k)
    # the dump lifts one map at a time and stays within the count
    clear_order_caches()
    assert_counted(monkeypatch, traced_peak(build_and_dump(tmp_path), config), k, d)
    clear_order_caches()
    peak = traced_peak(run_verification_suite, config)
    assert_counted(monkeypatch, peak, k, d)
    # a machine that holds a quarter more than the peak is not refused
    monkeypatch.setattr(fsusy.suite, "_physical_memory", lambda: int(1.25 * peak))
    RunConfig.check_space(k, d, k)


@pytest.mark.parametrize("k, d", [(64, 8), (128, 8), (200, 4), (256, 4)])
def test_size_check_counts_the_grade_tables_of_a_verify_run(monkeypatch, clear_order_caches, k, d):
    # at k >> d the (k, k) grade tables outweigh the (k, d) weight tables;
    # from k = 204 on the tensor is refused
    config = RunConfig(k=k, d=d, spec=StructureSpec.affine_family(k, 0.5, 1.0), margin=1)
    clear_order_caches()
    assert_counted(monkeypatch, traced_peak(run_verification_suite, config), k, d)


EXPORT_REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"


def test_library_calls_of_the_export_benchmark(tmp_path, monkeypatch):
    # perfbench's export workload makes these calls through fsusy.suite, and
    # its tracer wraps write_matrix_market by that module-global name and
    # counts the nonzeros of its second argument; a rename fails here
    calls = []
    original = fsusy.suite.write_matrix_market

    def recording(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(fsusy.suite, "write_matrix_market", recording)
    suite = fsusy.suite
    config = suite.RunConfig(k=5, d=40, spec=StructureSpec.affine_family(5, 0.5, 1.0), margin=5)
    system = suite.build_system(config)
    suite.emit_spectrum(system.doublet, system.replicas, str(tmp_path / "spectrum.csv"))
    written = suite.dump_operators(system, str(tmp_path / "ops"))
    assert sorted(system.replicas) == [2, 3, 4, 5]
    assert len(written) == 32
    assert [path for path, _ in calls] == written
    # the two header lines of every file are the ones perfbench pins, so a
    # change in the round-off of Pi_s, H or K that moves a nonzero count
    # fails here too
    with open(EXPORT_REFERENCE, encoding="utf-8") as fh:
        pinned = json.load(fh)["export"]["op"]["mtx"]
    headers = {}
    for path, op in calls:
        with open(path, encoding="utf-8") as fh:
            header = headers[Path(path).name] = fh.read().splitlines()[:2]
        nnz = int(header[1].split()[2])
        assert isinstance(op, Shift) and np.count_nonzero(op) == nnz, path
    assert headers == pinned


def test_suite_builds_once_and_reports_every_refusal(monkeypatch):
    built = []
    original = fsusy.suite.build_system

    def counting_build_system(config):
        built.append(original(config))
        return built[-1]

    monkeypatch.setattr(fsusy.suite, "build_system", counting_build_system)
    spec = StructureSpec.constant_values(5, 1.0)
    report = run_verification_suite(RunConfig(k=5, d=16, spec=spec, margin=5))
    assert len(built) == 1
    factorization = {e.name for e in report.entries if e.name.endswith(".factorization")}
    refused = built[0].replicas.refused
    assert factorization == {f"replica{s}.factorization" for s in refused}
    assert refused
