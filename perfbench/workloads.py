"""Workloads of the fsusy benchmark and the correctness check of each operation.

Every workload has fixed inputs.  The seed only permutes the order of the
points of ``grid-small``; the other workloads ignore it.  An operation is run
in two steps: ``run`` is the timed call into fsusy, ``observe`` reads what the
call returned or wrote (untimed) into a small JSON-ready observation that
``check`` compares with the reference recorded in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil

# `python3 perfbench/run.py --record-reference` regenerates this file.
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

FACTORIZATION = re.compile(r"^replica\d+\.factorization$")

GRID_K = (2, 3, 4, 5)
GRID_D = 40
GRID_FAMILIES = {
    "constant": ["--family", "constant"],
    "affine(0,1)": ["--a", "0", "--b", "1"],
    "affine(0.5,1)": ["--a", "0.5", "--b", "1"],
    "affine(-0.1,2)": ["--a", "-0.1", "--b", "2"],
}

# ---------------------------------------------------------------- reports

def report_observation(report: dict) -> dict:
    """Verdict plus passing and failing entry names of one report."""
    entries = report["entries"]
    return {
        "verdict": report["verdict"],
        "passing": sorted(e["name"] for e in entries
                          if e["passed"] and e["residual"] is not None),
        "failing": sorted(e["name"] for e in entries
                          if not e["passed"] and not e["informative"]),
        "present": sorted(e["name"] for e in entries),
        "informative": sorted(e["name"] for e in entries if e["informative"]),
    }


def check_report(ref: dict, obs: dict, where: str, notes: list[str]) -> list[str]:
    """Problems that make the operation fail; fixes and absences go to notes.

    A reference pass that now fails or loses its residual is a problem, as is
    any change in the set of replica factorization failures or a verdict
    turning from pass to fail.  A reference fail that now passes and an entry
    no longer reported are only noted.
    """
    problems = []
    present, passing = set(obs["present"]), set(obs["passing"])
    for name in ref["passing"]:
        if name not in present:
            notes.append(f"{where}: {name} absent")
        elif name not in passing:
            problems.append(f"{where}: {name} passed in the reference, now fails")
    for name in ref["failing"]:
        if name in passing:
            notes.append(f"{where}: {name} failed in the reference, now passes")
    ref_fact = {n for n in ref["failing"] if FACTORIZATION.match(n)}
    obs_fact = {n for n in obs["failing"] if FACTORIZATION.match(n)}
    if ref_fact != obs_fact:
        problems.append(f"{where}: factorization failures {sorted(obs_fact)}, "
                        f"reference {sorted(ref_fact)}")
    if ref["verdict"] == "pass" and obs["verdict"] != "pass":
        problems.append(f"{where}: verdict {obs['verdict']}, reference pass")
    return problems


def read_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report.get("entries"), list) or report.get("verdict") not in ("pass", "fail"):
        raise ValueError(f"{os.path.basename(path)}: malformed report")
    return report


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def fresh(path: str) -> None:
    """Remove the output a previous operation left at path."""
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


# ---------------------------------------------------------------- workloads

class Workload:
    """Fixed operations of one workload; subclasses define run and observe."""

    name = ""
    dim = 0  # largest operator dimension, for the computed-bytes line

    def __init__(self, fsusy, workdir: str):
        self.fsusy = fsusy
        self.workdir = workdir

    def keys(self, seed: int) -> list[str]:
        return ["op"]

    def prepare(self, key: str) -> None:
        """Untimed: remove the outputs of the previous operation."""

    def run(self, key: str):
        raise NotImplementedError

    def observe(self, key: str, result) -> dict:
        raise NotImplementedError

    def check(self, key: str, ref: dict, obs: dict, notes: list[str]) -> list[str]:
        return check_report(ref, obs, f"{self.name} {key}", notes)


class GridSmall(Workload):
    """The acceptance grid through ``fsusy.cli.main(["verify", ...])``.

    k in {2,3,4,5}, d=40, four families (constant 1; affine (0,1), (0.5,1)
    and (-0.1,2)); one operation is one grid point, one pass runs all 16,
    and the run repeats whole passes.  The seed permutes the order of the
    points, which is the only thing any seed changes in this benchmark.

    Why: many small systems (about 30 ms at k=2 up to 0.4 s at k=5).  This
    covers cli, report.write and the k=2-only branches, and the by-design
    factorization failures: four points fail replica{4,5}.factorization and
    fsusy.charge_sum, which are expected verdicts, not failed operations.  It
    calls every check stage, so a faster operator kernel shows here; one that
    scales with (kd)^3 gains most on the k=5 points, and RSS should barely
    move.
    """

    name = "grid-small"
    dim = 5 * GRID_D

    def keys(self, seed):
        keys = [f"k={k} {family}" for k in GRID_K for family in GRID_FAMILIES]
        random.Random(seed).shuffle(keys)
        return keys

    @property
    def report_path(self):
        return os.path.join(self.workdir, "report.json")

    def prepare(self, key):
        fresh(self.report_path)

    def run(self, key):
        k, family = key.split(" ", 1)
        argv = ["verify", "--k", k[2:], "--d", str(GRID_D), *GRID_FAMILIES[family],
                "--out_report", self.report_path]
        return call_cli(self.fsusy.cli, argv)

    def observe(self, key, result):
        rc, out, err = result
        obs = report_observation(read_report(self.report_path))
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if rc != (0 if obs["verdict"] == "pass" else 1) or last != f"verdict: {obs['verdict']}":
            raise ValueError(f"exit {rc} and summary {last!r} disagree with the "
                             f"report verdict {obs['verdict']} {err.strip()}")
        return obs


class Export(Workload):
    """``build_system``, ``emit_spectrum`` and ``dump_operators`` at k=5, d=40, affine (0.5, 1).

    Why: it builds without verifying, then writes.  The Matrix Market
    writer's per-entry Python loop over (kd)^2 entries is most of the
    operation (32 files, about 108 kB).  A monomial operator core that still
    densifies to dump could slow this workload while it speeds up the others.
    """

    name = "export"
    dim = 5 * 40

    def __init__(self, fsusy, workdir):
        super().__init__(fsusy, workdir)
        from fsusy.fock import StructureSpec
        from fsusy.suite import RunConfig
        self.config = RunConfig(k=5, d=40, spec=StructureSpec.affine_family(5, 0.5, 1.0),
                                margin=5)
        self.csv = os.path.join(workdir, "spectrum.csv")
        self.ops = os.path.join(workdir, "operators")

    def prepare(self, key):
        fresh(self.csv)
        fresh(self.ops)

    def run(self, key):
        suite = self.fsusy.suite
        system = suite.build_system(self.config)
        suite.emit_spectrum(system.doublet, system.replicas, self.csv)
        suite.dump_operators(system, self.ops)
        return sorted(system.replicas)

    def observe(self, key, result):
        with open(self.csv, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        mtx = {}
        for name in sorted(os.listdir(self.ops)):
            with open(os.path.join(self.ops, name), encoding="utf-8") as fh:
                body = fh.read().splitlines()
            banner, size = body[0], body[1]
            nnz = int(size.split()[2])
            if len(body) != 2 + nnz or any(len(row.split()) != 4 for row in body[2:]):
                raise ValueError(f"{name}: malformed Matrix Market body")
            mtx[name] = [banner, size]
        return {"replicas": result, "csv_header": lines[0], "csv_rows": len(lines) - 1,
                "mtx": mtx}

    def check(self, key, ref, obs, notes):
        problems = [f"{self.name}: {field} {obs[field]!r}, reference {ref[field]!r}"
                    for field in ("replicas", "csv_header", "csv_rows")
                    if obs[field] != ref[field]]
        if sorted(obs["mtx"]) != sorted(ref["mtx"]):
            problems.append(f"{self.name}: files {sorted(obs['mtx'])}, "
                            f"reference {sorted(ref['mtx'])}")
        problems += [f"{self.name}: {name} header {obs['mtx'][name]}, reference {head}"
                     for name, head in ref["mtx"].items()
                     if name in obs["mtx"] and obs["mtx"][name] != head]
        return problems


WORKLOADS = {w.name: w for w in (GridSmall, Export)}


def strip_for_reference(obs: dict) -> dict:
    """What the reference keeps of an observation: asserted outcomes only."""
    if "present" in obs:
        kept = {key: value for key, value in obs.items()
                if key not in ("present", "informative")}
        kept["passing"] = [n for n in obs["passing"] if n not in obs["informative"]]
        return kept
    return obs
