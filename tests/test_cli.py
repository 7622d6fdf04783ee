import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fsusy.cli
import fsusy.suite
from fsusy.cli import main, parse_config_file
from fsusy.errors import ConfigError

GOLDEN = Path(__file__).parent / "data" / "golden_report_k3.json"


def write_table(path, k, d):
    # partner energies evaluate f a few levels past the truncation edge
    lines = ["s,n,f"]
    for s in range(k):
        for n in range(-k, d + k + 1):
            lines.append(f"{s},{n},1.0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestParseConfigFile:
    def test_values_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run settings\n"
            "\n"
            "k = 3\n"
            "d=12\n"
            "tolerance = 1e-9\n"
            "c1 = 0.5\n",
            encoding="utf-8",
        )
        assert parse_config_file(str(cfg)) == {
            "k": "3", "d": "12", "tolerance": "1e-9", "c1": "0.5",
        }

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected key = value"):
            parse_config_file(str(cfg))

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key 'order'"):
            parse_config_file(str(cfg))

    def test_duplicate_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\nk = 4\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate key 'k'"):
            parse_config_file(str(cfg))

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["verify", "--config", str(tmp_path / "absent.cfg")]) == 2
        assert "cannot read config file" in capsys.readouterr().err


def run_with_and_without_bom(tmp_path, capsys, name, text, argv):
    """Exit code, stdout and report (without its stamp) of one run with the
    input file saved plainly and one with a UTF-8 byte-order mark."""
    results = []
    for encoding in ("utf-8", "utf-8-sig"):
        path = tmp_path / f"{encoding}-{name}"
        path.write_text(text, encoding=encoding)
        out = tmp_path / f"{encoding}-report.json"
        code = main([part.replace("INPUT", str(path)) for part in argv]
                    + ["--out_report", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        report.pop("generated_at")
        results.append((code, capsys.readouterr(), report))
    assert (tmp_path / f"utf-8-sig-{name}").read_bytes().startswith(b"\xef\xbb\xbf")
    return results


class TestByteOrderMark:
    def test_table_csv_with_bom_reads_as_without(self, tmp_path, capsys):
        lines = ["s,n,f"] + [f"{s},{n},1.0" for s in range(2) for n in range(-2, 13)]
        plain, marked = run_with_and_without_bom(
            tmp_path, capsys, "table.csv", "\n".join(lines) + "\n",
            ["verify", "--k", "2", "--d", "10", "--table", "INPUT"])
        assert plain[0] == 0
        assert marked == plain

    def test_config_file_with_bom_reads_as_without(self, tmp_path, capsys):
        plain, marked = run_with_and_without_bom(
            tmp_path, capsys, "run.cfg", "k = 3\nd = 12\n", ["verify", "--config", "INPUT"])
        assert plain[0] == 0
        assert marked == plain


def report_tolerance(tmp_path, argv, monkeypatch=None, env=None):
    if monkeypatch is not None and env is not None:
        monkeypatch.setenv("FSUSY_TOLERANCE", env)
    out = tmp_path / "report.json"
    code = main(argv + ["--out_report", str(out)])
    assert code == 0
    return json.loads(out.read_text(encoding="utf-8"))["config"]["tolerance"]


class TestPrecedence:
    BASE = ["verify", "--k", "3", "--d", "12"]

    def test_environment_sets_tolerance(self, tmp_path, monkeypatch):
        tol = report_tolerance(tmp_path, list(self.BASE), monkeypatch, "1e-8")
        assert tol == 1e-8

    def test_file_overrides_environment(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tolerance = 1e-7\n", encoding="utf-8")
        argv = self.BASE + ["--config", str(cfg)]
        assert report_tolerance(tmp_path, argv, monkeypatch, "1e-8") == 1e-7

    def test_flag_overrides_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tolerance = 1e-7\n", encoding="utf-8")
        argv = self.BASE + ["--config", str(cfg), "--tolerance", "1e-6"]
        assert report_tolerance(tmp_path, argv, monkeypatch, "1e-8") == 1e-6

    def test_file_supplies_required_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\nd = 12\n", encoding="utf-8")
        assert main(["verify", "--config", str(cfg)]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_invalid_environment_value_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("FSUSY_TOLERANCE", "tight")
        assert main(list(self.BASE)) == 2
        assert capsys.readouterr().err == (
            "error: environment variable FSUSY_TOLERANCE has invalid value 'tight'\n")

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_infinite_tolerance_exits_2(self, source, monkeypatch, capsys):
        # an infinite tolerance would pass every windowed entry; this run
        # fails its strict partner_diagonal entries at any finite tolerance
        argv = ["verify", "--k", "3", "--d", "1000", "--a", "0.5", "--b", "1"]
        if source == "flag":
            argv += ["--tolerance", "inf"]
        else:
            monkeypatch.setenv("FSUSY_TOLERANCE", "inf")
        assert main(argv) == 2
        assert "tolerance must be positive and finite, got inf" in capsys.readouterr().err


class TestSpecSelection:
    def test_sector_constant_flags(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--k", "3", "--d", "12",
                     "--c0", "2.0", "--c1", "0.5", "--out_report", str(out)])
        assert code == 0
        config = json.loads(out.read_text(encoding="utf-8"))["config"]
        assert config["family"] == "constant"
        # unset sectors keep the default weight
        assert config["constants"] == [2.0, 0.5, 1.0]

    def test_sector_constant_alias_flag_exits_2(self, capsys):
        # --c00 would otherwise override --c0 for the same sector
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--k", "2", "--d", "8", "--c0", "1", "--c00", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --c00" in capsys.readouterr().err

    def test_sector_constant_alias_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nd = 8\nc0 = 1\nc00 = 3\n", encoding="utf-8")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "unknown key 'c00'" in capsys.readouterr().err

    def test_sector_constant_out_of_range(self, capsys):
        code = main(["verify", "--k", "2", "--d", "10", "--c5", "1.0"])
        assert code == 2
        assert "outside 0..1" in capsys.readouterr().err

    def test_affine_needs_both_coefficients(self, capsys):
        code = main(["verify", "--k", "3", "--d", "12", "--a", "1.0"])
        assert code == 2
        assert "needs both a and b" in capsys.readouterr().err

    def test_affine_flags_select_family(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--k", "3", "--d", "12",
                     "--a", "0.0", "--b", "1.0", "--out_report", str(out)])
        assert code == 0
        config = json.loads(out.read_text(encoding="utf-8"))["config"]
        assert config["family"] == "affine"
        assert (config["a"], config["b"]) == (0.0, 1.0)

    def test_table_family_from_csv(self, tmp_path):
        table = tmp_path / "structure.csv"
        write_table(table, 2, 10)
        out = tmp_path / "report.json"
        code = main(["verify", "--k", "2", "--d", "10",
                     "--table", str(table), "--out_report", str(out)])
        assert code == 0
        config = json.loads(out.read_text(encoding="utf-8"))["config"]
        assert config["family"] == "table"
        assert config["table_size"] == 2 * (10 + 2 * 2 + 1)

    def test_table_missing_a_below_ground_argument_fails_construction(self, tmp_path, capsys):
        # the partner table reads f_t(n - s + t) for t = 2 .. k-1, every s and
        # n >= 0, in that order, and f_1(n); f_0 is never read.  At k = 3 of
        # the dropped keys only (2, -1) is read.  At k = 5 f_2 reaches -3 at
        # s = 5, and f_3 -1 at s = 4 and f_4 -1 at s = 5 are read after it:
        # an order by s, or by t from the top, or H's term order would name
        # (3, -1) or (4, -1)
        cases = [(3, {(2, -1), (0, -1), (1, -2), (2, -2)}, (2, -1)),
                 (5, {(4, -1), (3, -1), (2, -3), (0, -1), (1, -2)}, (2, -3))]
        d = 10
        for k, dropped, first in cases:
            rows = [f"{s},{n},1.0" for s in range(k) for n in range(-k, d + k + 1)
                    if (s, n) not in dropped]
            table = tmp_path / f"structure{k}.csv"
            table.write_text("\n".join(["s,n,f", *rows]) + "\n", encoding="utf-8")
            out = tmp_path / f"report{k}.json"
            code = main(["verify", "--k", str(k), "--d", str(d),
                         "--table", str(table), "--out_report", str(out)])
            assert code == 1
            assert "verdict: fail" in capsys.readouterr().out
            entries = json.loads(out.read_text(encoding="utf-8"))["entries"]
            assert [e["name"] for e in entries] == ["construction.representation"]
            named = re.fullmatch(
                r"table spec has no value for sector (\d+) at argument n = (-?\d+)",
                entries[0]["error"])
            assert named is not None, entries[0]["error"]
            assert (int(named[1]), int(named[2])) == first

    @pytest.mark.parametrize("dropped", [(0, 9), (1, 9), (2, 9), (0, 10)])
    def test_table_missing_the_top_level_argument_fails_construction(self, tmp_path, capsys,
                                                                     dropped):
        # the solver reads f on all d = 10 levels: F needs f_s(n) for n < 9
        # only, but the ladder relation at the top level reads f_s(9).
        # f_0(10) is read by nothing
        k, d = 3, 10
        rows = [f"{s},{n},1.0" for s in range(k) for n in range(-k, d + k + 1)
                if (s, n) != dropped]
        table = tmp_path / "structure.csv"
        table.write_text("\n".join(["s,n,f", *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "report.json"
        code = main(["verify", "--k", str(k), "--d", str(d),
                     "--table", str(table), "--out_report", str(out)])
        capsys.readouterr()
        if dropped[1] == d:
            assert code == 0
            return
        assert code == 1
        entries = json.loads(out.read_text(encoding="utf-8"))["entries"]
        assert [e["name"] for e in entries] == ["construction.representation"]
        assert entries[0]["error"] == (
            f"table spec has no value for sector {dropped[0]} at argument n = {d - 1}")

    @pytest.mark.parametrize("flags", [
        ["--a", "nan", "--b", "1"],
        ["--c0", "inf"],
    ])
    def test_non_finite_structure_values_exit_2(self, capsys, flags):
        code = main(["verify", "--k", "2", "--d", "8", *flags])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--a", "1e308", "--b", "1e308"],
        ["--c0", "1e308", "--c1", "1e308", "--c2", "1e308"],
    ], ids=["affine", "constant"])
    def test_overflowing_structure_values_fail_construction(self, tmp_path, capsys, flags):
        # f_s(1) = 2e308 and F_s(2) = 2e308 overflow float64; any warning
        # numpy raised on the way would fail this test
        out = tmp_path / "report.json"
        code = main(["verify", "--k", "3", "--d", "40", *flags, "--out_report", str(out)])
        assert code == 1
        assert "verdict: fail" in capsys.readouterr().out
        # a NaN or an Infinity in the report, which strict JSON lacks, fails here
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=pytest.fail)
        assert report["verdict"] == "fail"
        [entry] = report["entries"]
        assert entry["name"] == "construction.representation"
        assert entry["residual"] is None
        assert entry["error"] == ("F_0(2) = inf is not finite; "
                                  "the structure values overflow float64")

    def test_overflowing_partner_energies_fail_construction(self, tmp_path, capsys):
        # F stays finite (up to about 1.5e308), but (k-1) F_s(n) overflows in
        # the partner table; any numpy warning would fail this test
        out = tmp_path / "report.json"
        flags = ["--k", "3", "--d", "40", "--a", "2e305", "--b", "1"]
        message = "H_1(29) = inf is not finite; the partner energies overflow float64"
        assert main(["verify", *flags, "--out_report", str(out)]) == 1
        captured = capsys.readouterr()
        assert "verdict: fail" in captured.out
        assert captured.err == ""
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=pytest.fail)
        assert report["verdict"] == "fail"
        [entry] = report["entries"]
        assert entry["name"] == "construction.representation"
        assert entry["residual"] is None
        assert entry["error"] == message
        for command, flag, target in (("spectrum", "--out_spectrum", tmp_path / "spec.csv"),
                                      ("dump", "--out_operators", tmp_path / "ops")):
            assert main([command, *flags, flag, str(target)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not target.exists()

    def test_overflowing_products_fail_their_entries(self, tmp_path, capsys):
        # F stays finite (up to about 7.8e307), but products of its weights
        # overflow; any numpy warning would fail this test
        out = tmp_path / "report.json"
        code = main(["verify", "--k", "3", "--d", "40", "--a", "1e305", "--b", "1",
                     "--out_report", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=pytest.fail)
        window = "levels n <= 36 of 40 (margin 3)"
        overflowing = {
            "fsusy.multilinear": (1e-10, window),
            "fsusy.hamiltonian_commutes": (1e-12, window),
            "replica2.hamiltonian_commutes": (1e-12, "full space"),
            "replica2.intertwining": (1e-12, window),
            "replica3.hamiltonian_commutes": (1e-12, "full space"),
            "replica3.intertwining": (1e-12, window),
        }
        failing = {e["name"]: e for e in report["entries"] if not e["passed"]}
        assert sorted(failing) == sorted([*overflowing, "fsusy.partner_diagonal",
                                          "fsusy.charge_sum"])
        for name, (tolerance, text) in overflowing.items():
            entry = failing[name]
            assert entry["residual"] is None
            assert entry["tolerance"] == pytest.approx(tolerance, rel=1e-12)
            assert entry["window"] == text
            assert entry["error"] == "the products of this identity overflow float64"
        # H's assembly cancels to residual 1 here, which is not an overflow
        for name in ("fsusy.partner_diagonal", "fsusy.charge_sum"):
            assert failing[name]["residual"] == 1.0
            assert failing[name]["error"] is None

    @pytest.mark.parametrize("flags, message", [
        (["--family", "constant", "--a", "1", "--b", "2"],
         "the constant family in use takes no a (affine family), b (affine family)"),
        (["--family", "affine", "--a", "0.5", "--b", "1", "--c0", "3"],
         "the affine family in use takes no c0 (constant family)"),
        (["--a", "0.5", "--b", "1", "--c1", "7"],
         "the affine family in use takes no c1 (constant family)"),
        (["--family", "affine", "--a", "0.5", "--b", "1", "--table", "t.csv"],
         "the affine family in use takes no table (table family)"),
    ])
    def test_parameter_of_another_family_exits_2(self, capsys, flags, message):
        assert main(["verify", "--k", "3", "--d", "12", *flags]) == 2
        assert message in capsys.readouterr().err

    def test_parameter_of_another_family_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\nd = 12\nfamily = affine\na = 0.5\nb = 1\nc1 = 7\n",
                       encoding="utf-8")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "the affine family in use takes no c1 (constant family)" in capsys.readouterr().err

    def test_family_flag_is_validated_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--k", "3", "--d", "12", "--family", "bogus"])
        assert "invalid choice" in capsys.readouterr().err


class TestExitCodes:
    def test_passing_run_exits_0(self, capsys):
        assert main(["verify", "--k", "3", "--d", "12"]) == 0
        out = capsys.readouterr().out
        assert "verdict: pass" in out
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("k", [128, 203, 204, 256], ids=lambda k: f"k={k}")
    def test_order_frontier_writes_a_report(self, tmp_path, capsys, k):
        # the textbook k-fermion basis stopped here: its X+ overflowed at
        # k = 203 and A's weight 1/[k-1]_q! was subnormal from k = 204 on;
        # in the basis where A is the unit cyclic shift every entry passes
        path = tmp_path / "report.json"
        assert main(["verify", "--k", str(k), "--d", "8", "--margin", "1", "--a", "0.5",
                     "--b", "1", "--out_report", str(path)]) == 0
        assert capsys.readouterr().err == ""
        entries = {e["name"]: e for e in json.loads(path.read_text())["entries"]}
        assert all(e["passed"] for e in entries.values())
        # f+^k = 0 exactly, also where its column products, [k-1]_q!, overflow
        assert entries["kfermion.nilpotency"]["residual"] == 0.0
        assert [name for name in entries if name.startswith("tensor.")] == [
            f"tensor.{key}" for key in ("ladder_commutator", "number_ladder", "grading_ladder",
                                        "grading_number", "grading_cyclic", "spectral_distance")]

    def test_empty_replica_stack_fails_naming_every_refusal(self, tmp_path, capsys):
        # d is truncated to 3 levels, and every partner ladder is negative at
        # level 1: no replica is built, and the charge sum names all four
        path = tmp_path / "report.json"
        assert main(["verify", "--k", "5", "--d", "12", "--a", "-2", "--b", "1",
                     "--margin", "1", "--out_report", str(path)]) == 1
        assert "verdict: fail" in capsys.readouterr().out
        report = json.loads(path.read_text())
        assert report["config"]["d_effective"] == 3
        assert report["verdict"] == "fail"
        entries = {e["name"]: e for e in report["entries"]}
        assert "partners.level_shift" in entries
        assert [name for name in entries if name.startswith(("replica", "reduction"))] == [
            f"replica{s}.factorization" for s in (2, 3, 4, 5)]
        for s, value in ((2, -10), (3, -2), (4, -2), (5, -10)):
            entry = entries[f"replica{s}.factorization"]
            assert not entry["passed"]
            assert entry["error"].startswith(f"partner energy H_{s}(1) = {value} is negative")
        charge_sum = entries["fsusy.charge_sum"]
        assert not charge_sum["passed"] and charge_sum["residual"] is None
        assert charge_sum["error"] == "replicas [2, 3, 4, 5] could not be factorized"

    def test_invalid_order_exits_2(self, capsys):
        assert main(["verify", "--k", "1", "--d", "12"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unallocatable_truncation_exits_2(self, capsys):
        # a verify run is counted at 1.9e15 bytes: refused before anything is built
        assert main(["verify", "--k", "3", "--d", "1000000000000"]) == 2
        assert capsys.readouterr().err == (
            "error: the system at k=3, d=1000000000000 is too large to allocate\n")

    def test_margin_is_checked_before_the_spec_is_built(self, monkeypatch, capsys):
        # the constant family would first make a list of 10^9 sector values
        def build_spec(*args):
            pytest.fail("the structure spec was built before the margin was checked")

        monkeypatch.setattr(fsusy.cli, "_build_spec", build_spec)
        assert main(["verify", "--k", "1000000000", "--d", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: margin 1000000000 leaves no window inside 4 levels\n")

    def test_huge_order_is_refused_before_the_spec_is_built(self, monkeypatch, capsys):
        # margin 1 leaves a window, but the constant family would first make a
        # list of 10^9 sector values, and a verify run is counted at 9.6e19 bytes
        def build_spec(*args):
            pytest.fail("the structure spec was built for a system too large to allocate")

        monkeypatch.setattr(fsusy.cli, "_build_spec", build_spec)
        assert main(["verify", "--k", "1000000000", "--d", "4", "--margin", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: the system at k=1000000000, d=4 is too large to allocate\n")

    @pytest.mark.parametrize("command, builder, output", [
        ("verify", "run_verification_suite", "--out_report"),
        ("spectrum", "build_system", "--out_spectrum"),
        ("dump", "build_system", "--out_operators"),
    ])
    @pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
    def test_memory_error_in_the_build_names_the_system(
            self, tmp_path, monkeypatch, capsys, command, builder, output, from_config):
        # under a process limit below physical memory the system passes
        # check_space and runs out while it is built; the message reads k
        # and d from wherever the settings came from
        def out_of_memory(*args):
            raise MemoryError
        monkeypatch.setattr(fsusy.cli, builder, out_of_memory)
        if from_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("k = 3\nd = 12\n", encoding="utf-8")
            size = ["--config", str(cfg)]
        else:
            size = ["--k", "3", "--d", "12"]
        out = tmp_path / "out"
        assert main([command, *size, output, str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the system at k=3, d=12 is too large to allocate\n")
        assert not out.exists()

    def test_unreachable_tolerance_exits_1(self, capsys):
        code = main(["verify", "--k", "3", "--d", "12", "--tolerance", "1e-18"])
        assert code == 1
        assert "verdict: fail" in capsys.readouterr().out

    def test_spectrum_requires_output_path(self, capsys):
        assert main(["spectrum", "--k", "3", "--d", "8"]) == 2
        assert "out_spectrum" in capsys.readouterr().err

    def test_spectrum_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        code = main(["spectrum", "--k", "3", "--d", "8",
                     "--out_spectrum", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "s,n,energy,replica_s"
        assert len(lines) == 1 + 3 * 8 + 2 * 2 * 8

    def test_spectrum_names_refused_replica(self, tmp_path, capsys):
        # H_5(1) = -2 admits no replica 5: its rows are left out, the
        # refusal goes to stderr, and the run still succeeds
        out = tmp_path / "spectrum.csv"
        code = main(["spectrum", "--k", "5", "--d", "40",
                     "--out_spectrum", str(out)])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("replica 5 skipped: partner energy H_5(1) = -2 is negative")
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert sorted({r[3] for r in rows if r[3]}) == ["2", "3", "4"]

    def test_dump_names_refused_replica(self, tmp_path, capsys):
        out_dir = tmp_path / "ops"
        assert main(["dump", "--k", "5", "--d", "12",
                     "--out_operators", str(out_dir)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("replica 5 skipped:")
        assert (out_dir / "X4m.mtx").exists()
        assert not (out_dir / "X5m.mtx").exists()

    def test_dump_refuses_stale_files_of_a_larger_system(self, tmp_path, capsys):
        out_dir = tmp_path / "ops"
        assert main(["dump", "--k", "5", "--d", "12", "--out_operators", str(out_dir)]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert main(["dump", "--k", "2", "--d", "8", "--out_operators", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "Pi_4.mtx" in err and "X4m.mtx" in err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_dump_refuses_file_of_a_replica_now_refused(self, tmp_path, capsys):
        # affine (0.5, 1) builds replica 5; the unit constants refuse it
        out_dir = tmp_path / "ops"
        assert main(["dump", "--k", "5", "--d", "12", "--a", "0.5", "--b", "1",
                     "--out_operators", str(out_dir)]) == 0
        assert main(["dump", "--k", "5", "--d", "12",
                     "--out_operators", str(out_dir)]) == 2
        assert "X5m.mtx" in capsys.readouterr().err

    def test_dump_same_config_twice_into_one_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "ops"
        argv = ["dump", "--k", "5", "--d", "12", "--out_operators", str(out_dir)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert main(argv) == 0
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first
        # 4 algebra + 5 projectors + 3 doublet + 5 for each of replicas 2..4
        assert capsys.readouterr().out.splitlines().count(
            f"27 operators written to {out_dir}") == 2

    def test_dump_requires_output_directory(self, capsys):
        assert main(["dump", "--k", "2", "--d", "6"]) == 2
        assert "out_operators" in capsys.readouterr().err

    def test_dump_writes_matrix_market_files(self, tmp_path, capsys):
        out_dir = tmp_path / "ops"
        code = main(["dump", "--k", "2", "--d", "6",
                     "--out_operators", str(out_dir)])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert "Xm.mtx" in names
        assert "q2m.mtx" in names
        header = (out_dir / "H.mtx").read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("%%MatrixMarket")


class TestOutputFlags:
    """Each subcommand takes only the output flag it writes; a config file
    may hold every output key, and each subcommand reads its own."""

    @pytest.mark.parametrize("command, flags", [
        ("verify", ["--out_spectrum", "x.csv", "--out_operators", "ops/"]),
        ("spectrum", ["--out_spectrum", "s.csv", "--out_report", "r.json"]),
        ("dump", ["--out_operators", "ops", "--out_spectrum", "s.csv"]),
    ])
    def test_foreign_output_flag_exits_2(self, tmp_path, capsys, monkeypatch, command, flags):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--k", "3", "--d", "12", "--a", "0.5", "--b", "1", *flags])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_file_holds_every_output(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\nd = 12\nout_report = r.json\nout_spectrum = s.csv\n"
                       "out_operators = ops\n", encoding="utf-8")
        for command, written in (("verify", "r.json"), ("spectrum", "s.csv"), ("dump", "ops")):
            workdir = tmp_path / command
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert main([command, "--config", str(cfg)]) == 0
            assert [p.name for p in workdir.iterdir()] == [written]

    def test_verify_without_out_report_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--k", "3", "--d", "12"]) == 0
        assert "verdict: pass" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_grid_reports_and_index(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--k", "3", "--d", "10",
                     "--a-range", "0", "1", "2", "--b-range", "1", "1", "1",
                     "--out-dir", str(out_dir)])
        assert code == 0
        index = json.loads((out_dir / "index.json").read_text(encoding="utf-8"))
        assert index["k"] == 3 and index["d"] == 10
        assert [p["a"] for p in index["points"]] == [0.0, 1.0]
        for point in index["points"]:
            assert point["verdict"] == "pass"
            assert point["error"] is None
            assert (out_dir / point["path"]).exists()
        assert "2/2 points pass" in capsys.readouterr().out

    def test_failing_point_exits_1(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--k", "5", "--d", "10",
                     "--a-range", "0", "0", "1", "--b-range", "1", "1", "1",
                     "--out-dir", str(out_dir)])
        assert code == 1
        index = json.loads((out_dir / "index.json").read_text(encoding="utf-8"))
        assert index["points"][0]["verdict"] == "fail"
        assert "0/1 points pass" in capsys.readouterr().out

    def test_degenerate_point_fails_with_construction_entry(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--k", "3", "--d", "10",
                     "--a-range", "0", "0", "1", "--b-range", "-1", "-1", "1",
                     "--out-dir", str(out_dir)])
        assert code == 1
        index = json.loads((out_dir / "index.json").read_text(encoding="utf-8"))
        point = index["points"][0]
        assert point["verdict"] == "fail"
        report = json.loads((out_dir / point["path"]).read_text(encoding="utf-8"))
        assert report["entries"][0]["name"] == "construction.representation"
        assert report["entries"][0]["error"]

    def test_bad_step_count_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--k", "3", "--d", "10",
                     "--a-range", "0", "1", "0", "--b-range", "1", "1", "1",
                     "--out-dir", str(tmp_path / "sweep")])
        assert code == 2
        assert "step count" in capsys.readouterr().err

    def test_unallocatable_step_count_exits_2_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--k", "3", "--d", "10",
                     "--a-range", "0", "1", "1e30", "--b-range", "1", "1", "1",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert "--a-range step count 1e+30 is too large to allocate" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_grid_too_large_to_list_exits_2_before_running(self, tmp_path, capsys, monkeypatch):
        # the system at k=3, d=10 is counted at 19968 bytes and fits; the
        # 10 x 30 grid's 300 points at 96 bytes each do not
        monkeypatch.setattr(fsusy.suite, "_physical_memory", lambda: 24480)
        monkeypatch.setattr(fsusy.cli, "run_verification_suite",
                            lambda config: pytest.fail("a point ran"))
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--k", "3", "--d", "10",
                     "--a-range", "0", "1", "10", "--b-range", "1", "2", "30",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a sweep grid of 10 a-range by 30 b-range steps is too large to list\n")
        assert not out_dir.exists()

    def test_memory_error_while_listing_names_the_grid(self, tmp_path, capsys, monkeypatch):
        # under a process limit below physical memory the grid passes
        # check_sweep and runs out while its tasks are listed
        def out_of_memory(*args):
            raise MemoryError
        monkeypatch.setattr(fsusy.cli.np, "linspace", out_of_memory)
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--k", "3", "--d", "12",
                     "--a-range", "0", "1", "3000", "--b-range", "1", "2", "3000",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a sweep grid of 3000 a-range by 3000 b-range steps is too large to list\n")
        assert not out_dir.exists()

    def test_invalid_order_exits_2_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--k", "1", "--d", "10",
                     "--a-range", "0", "1", "2", "--b-range", "1", "1", "1",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert "cyclic order must be at least 2, got 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_finite_range_exits_2_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--k", "2", "--d", "8",
                     "--a-range", "nan", "1", "2", "--b-range", "1", "1", "1",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert "a-range values must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [
        ["--a", "5", "--b", "1"],
        ["--out_report", "x.json"],
        ["--family", "table"],
        ["--c0", "2"],
    ])
    def test_point_flags_are_refused_by_parser(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--k", "2", "--d", "8", *flags,
                  "--a-range", "0", "0", "1", "--b-range", "1", "1", "1",
                  "--out-dir", str(out_dir)])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_point_keys_in_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 2\nd = 8\na = 5\nc1 = 2\n", encoding="utf-8")
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg),
                     "--a-range", "0", "0", "1", "--b-range", "1", "1", "1",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert "sweep does not take a, c1" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--k", "2", "--d", "8",
                     "--a-range", "0", "1", "2", "--b-range", "1", "1", "1",
                     "--out-dir", str(out_dir), "--jobs", jobs])
        assert code == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("cpus, jobs, workers", [
        (2, "64", [2]),
        (1, "2", []),
        (None, "2", []),
    ])
    def test_jobs_capped_at_cpu_count(self, tmp_path, monkeypatch, cpus, jobs, workers):
        # a stand-in pool records the worker count and starts no process
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(fsusy.cli.os, "cpu_count", lambda: cpus)
        # cmd_sweep imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        code = main(["sweep", "--k", "2", "--d", "8",
                     "--a-range", "0", "1", "2", "--b-range", "1", "1", "1",
                     "--out-dir", str(tmp_path / "sweep"), "--jobs", jobs])
        assert code == 0
        assert started == workers

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        argv = ["sweep", "--k", "2", "--d", "8",
                "--a-range", "0", "1", "2", "--b-range", "1", "1", "1"]
        assert main(argv + ["--out-dir", str(serial)]) == 0
        assert main(argv + ["--out-dir", str(parallel), "--jobs", "2"]) == 0
        load = lambda p: json.loads((p / "index.json").read_text(encoding="utf-8"))
        assert load(serial) == load(parallel)


class TestGoldenReport:
    def test_matches_golden_modulo_volatile_fields(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--k", "3", "--d", "12",
                     "--out_report", str(out)]) == 0
        got = json.loads(out.read_text(encoding="utf-8"))
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))
        for volatile in ("generated_at", "version"):
            got.pop(volatile), want.pop(volatile)
        assert got["config"] == want["config"]
        assert got["verdict"] == want["verdict"] == "pass"
        assert len(got["entries"]) == len(want["entries"])
        for g, w in zip(got["entries"], want["entries"]):
            residual = g.pop("residual"), w.pop("residual")
            assert g == w
            # residuals are round-off sized and may drift across BLAS builds
            assert residual[0] == pytest.approx(residual[1], abs=1e-12)


    def test_tolerance_scales_every_tier(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--k", "3", "--d", "12", "--tolerance", "1e-8",
                     "--out_report", str(out)]) == 0
        got = json.loads(out.read_text(encoding="utf-8"))["entries"]
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))["entries"]
        assert [e["name"] for e in got] == [e["name"] for e in want]
        assert any(w["tolerance"] == 0.0 for w in want)
        for g, w in zip(got, want):
            # exact entries stay at 0; windowed and strict ones scale with --tolerance
            assert g["tolerance"] == pytest.approx(w["tolerance"] * 100, rel=1e-12), g["name"]
            assert (g["tolerance"] == 0.0) == (w["tolerance"] == 0.0), g["name"]


def child_env():
    # the child imports the same fsusy as this process, installed or not
    src = str(Path(fsusy.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


HELP = Path(__file__).parent / "data" / "help"
HELP_CASES = [
    (["-h"], "fsusy.txt"),
    (["verify", "-h"], "verify.txt"),
    (["spectrum", "-h"], "spectrum.txt"),
    (["dump", "-h"], "dump.txt"),
    (["sweep", "-h"], "sweep.txt"),
    (["verify", "--c0", "1", "--c2", "3", "-h"], "verify_c0_c2.txt"),
]
USAGE_ERRORS = [
    (["bogus"], "invalid_choice.txt"),
    ([], "no_command.txt"),
]


class TestParserText:
    """Help and usage errors, byte for byte (argparse of Python 3.11 at 80
    columns)."""

    @pytest.mark.parametrize("argv, golden", HELP_CASES)
    def test_help(self, monkeypatch, capsys, argv, golden):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == (HELP / golden).read_text(encoding="utf-8")

    def test_only_the_invoked_subcommand_gets_flags(self):
        parser = fsusy.cli.build_parser(["spectrum", "--k", "3"])
        subcommands = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        flags = {name: [a.dest for a in p._actions] for name, p in subcommands.items()}
        assert flags["verify"] == flags["dump"] == flags["sweep"] == ["help"]
        assert "k" in flags["spectrum"] and "out_spectrum" in flags["spectrum"]

    @pytest.mark.parametrize("argv, golden", USAGE_ERRORS)
    def test_usage_errors(self, monkeypatch, capsys, argv, golden):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == (HELP / golden).read_text(encoding="utf-8")


class TestParserCache:
    """build_parser builds one parser per subcommand and set of --cN flags
    in a process, and hands it to every call that names the same ones."""

    def test_same_key_same_parser(self):
        build = fsusy.cli.build_parser
        verify = build(["verify", "--k", "3", "--d", "40"])
        assert build(["verify", "--k", "5", "--a", "0.5", "--b", "1"]) is verify
        assert build(["verify", "--c1", "2", "--c0=1"]) is build(["verify", "--c1", "3", "--c0", "2"])

    def test_other_subcommand_or_sector_flags_other_parser(self):
        parsers = [fsusy.cli.build_parser(argv) for argv in (
            ["verify", "--k", "3"], ["spectrum", "--k", "3"], ["verify", "--c1", "2"],
            ["verify", "--c0", "2"], ["dump", "--c1", "2"], ["verify", "--c1", "2", "--c0", "1"])]
        for i, parser in enumerate(parsers):
            assert all(parser is not other for other in parsers[i + 1:])

    def test_sector_flag_after_a_parser_without_one(self, tmp_path):
        base = ["verify", "--k", "3", "--d", "12", "--out_report", str(tmp_path / "r.json")]
        assert main(base) == 0
        assert main([*base, "--c1", "2"]) == 0
        config = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["config"]
        assert config["constants"] == [1.0, 2.0, 1.0]

    def test_repeated_sector_flag_takes_its_last_value(self):
        argv = ["verify", "--c1", "1", "--c1", "2"]
        assert fsusy.cli.build_parser(argv).parse_args(argv).c1 == 2.0

    def test_text_unchanged_after_verify_calls(self, monkeypatch, capsys, tmp_path):
        # built at another width: the help is laid out when it is printed
        monkeypatch.setenv("COLUMNS", "200")
        report = ["--out_report", str(tmp_path / "r.json")]
        assert main(["verify", "--k", "3", "--d", "12", *report]) == 0
        assert main(["verify", "--k", "3", "--d", "12", "--c0", "1", "--c2", "3", *report]) == 0
        monkeypatch.setenv("COLUMNS", "80")
        capsys.readouterr()
        for argv, golden in HELP_CASES + USAGE_ERRORS:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == (0 if argv and argv[-1] == "-h" else 2)
            out, err = capsys.readouterr()
            assert (out if exc.value.code == 0 else err) == (HELP / golden).read_text(
                encoding="utf-8"), golden

    def test_clear_order_caches_empties_it(self, clear_order_caches):
        argv = ["sweep", "--k", "3"]
        first = fsusy.cli.build_parser(argv)
        clear_order_caches()
        assert fsusy.cli._parser.cache_info().currsize == 0
        assert fsusy.cli.build_parser(argv) is not first


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fsusy", "verify", "--k", "2", "--d", "8"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert "verdict: pass" in proc.stdout

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; scipy would about double the
        # start-up time and memory of every run
        code = "import sys, fsusy.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_only_a_parallel_sweep_loads_the_process_pool(self, tmp_path):
        # the pool stack (multiprocessing, socket, logging, ...) costs every
        # process about 1.2 MB; a verify run must not load it
        code = ("import sys, fsusy.cli; "
                "code = fsusy.cli.main(['verify', '--k', '3', '--d', '12', '--a', '0.5', "
                f"'--b', '1', '--out_report', {str(tmp_path / 'report.json')!r}]); "
                "print(code, [m for m in ('multiprocessing', 'concurrent.futures.process') "
                "if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"
