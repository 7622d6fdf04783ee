"""Compare what two source trees of fsusy write, byte for byte.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each root is a checkout holding ``src/fsusy``.  Every configuration below
goes through ``verify``, ``spectrum`` and ``dump`` (the large ones through
``verify`` only, or at k=64, d=500 through ``verify`` and ``spectrum``, one
affine grid through ``sweep``, serially and with two workers, and the
parser's text through ``verify -h`` and an unknown subcommand), each call in a fresh ``python3 -m fsusy`` subprocess with that
tree's ``src`` alone on the path, one BLAS thread, and its own empty working
directory.  The exit code, stdout, stderr and every file the call writes
(report, spectrum CSV, each ``.mtx``, a sweep's reports and ``index.json``)
are compared between the trees.

A second, in-process pass then runs every call of each tree through
``fsusy.cli.main`` in one interpreter, in an order shuffled with the fixed
seed ``SEED``, and compares each call's outputs with that tree's
fresh-process ones, so state that one call leaves to the next shows: the
per-order caches, and the parser shared by calls of one subcommand and set
of ``--cN`` flags.

Every report's ``generated_at`` value and the tree and working-directory
paths are replaced by placeholders first.  Prints each difference and exits
1 if there is any, else 0.  Each output that differs is listed with its
first ``MAX_LINES`` differing lines, every later line whose verdict differs
(a ``"passed"`` or ``"verdict"`` value, or a printed ``[PASS]``/``[FAIL]``
or verdict line) and a count of the rest.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FAMILIES = {
    "constant": ["--family", "constant"],
    "affine(0,1)": ["--a", "0", "--b", "1"],
    "affine(0.5,1)": ["--a", "0.5", "--b", "1"],
    "affine(-0.1,2)": ["--a", "-0.1", "--b", "2"],
    "affine(-0.5,3)": ["--a", "-0.5", "--b", "3"],
    "sector-constants": None,  # c_s = 1 + s/2, filled in per k
}


def table_csv(k: int, f1_from: int | None = None) -> str:
    """A table spec of order k over the arguments -k .. 59, sector 1's from
    f1_from if it is given."""
    return "s,n,f\n" + "".join(f"{s},{n},{((7 * s + 3 * n) % 11 + 1) / 3!r}\n" for s in range(k)
                               for n in range(-k if f1_from is None or s != 1 else f1_from, 60))


# f_1 is read by partner s = 1 alone, only at n >= 0, so the last table
# defines it from there
TABLES = {"table.csv": table_csv(3), "table5.csv": table_csv(5),
          "table4_f1_from_0.csv": table_csv(4, f1_from=0)}


def family_flags(name: str, k: int) -> list[str]:
    if name == "sector-constants":
        return [arg for s in range(k) for arg in (f"--c{s}", repr(1 + 0.5 * s))]
    return FAMILIES[name]


def configurations() -> dict[str, tuple[list[str], tuple[str, ...]]]:
    """Id -> (flags, subcommands)."""
    every = ("verify", "spectrum", "dump")
    configs = {}
    # k = 2..8 x d in {12, 40}: the 16 grid-small points (k <= 5, d = 40, the
    # first four families) and the constant family's refused replicas at k = 5, 6
    for k in range(2, 9):
        for d in (12, 40):
            for name in FAMILIES:
                configs[f"k={k} d={d} {name}"] = (
                    ["--k", str(k), "--d", str(d), *family_flags(name, k)], every)
    configs.update({
        "k=16 d=40 constant (refused replicas)": (
            ["--k", "16", "--d", "40", "--family", "constant"], every),
        "k=3 d=40 affine(1e305,1) (overflowing products)": (
            ["--k", "3", "--d", "40", "--a", "1e305", "--b", "1"], every),
        "k=3 d=40 affine(2e305,1) (overflowing partner energies)": (
            ["--k", "3", "--d", "40", "--a", "2e305", "--b", "1"], every),
        "k=3 d=40 table": (["--k", "3", "--d", "40", "--table", "table.csv"], every),
        "k=5 d=40 table": (["--k", "5", "--d", "40", "--table", "table5.csv"], every),
        "k=4 d=40 table, f_1 from n = 0": (
            ["--k", "4", "--d", "40", "--table", "table4_f1_from_0.csv"], every),
        "k=3 d=12 margin 10": (["--k", "3", "--d", "12", "--margin", "10"], every),
        # d is truncated to 6 levels, which leave no window below margin 10
        "k=3 d=12 margin 10 affine(-0.5,1) (no window)": (
            ["--k", "3", "--d", "12", "--margin", "10", "--a", "-0.5", "--b", "1"], every),
        "k=7 d=30 constant": (["--k", "7", "--d", "30", "--family", "constant"], every),
        "k=7 d=30 affine(0.5,1)": (["--k", "7", "--d", "30", "--a", "0.5", "--b", "1"], every),
        "k=8 d=100 affine(0.5,1)": (["--k", "8", "--d", "100", "--a", "0.5", "--b", "1"], every),
        # H sums (k-1)^2 = 529 terms here, each partner energy 22 f_t terms
        "k=24 d=60 affine(0.5,1)": (["--k", "24", "--d", "60", "--a", "0.5", "--b", "1"], every),
        "k=24 d=60 constant": (["--k", "24", "--d", "60", "--family", "constant"], every),
        # 63 replicas on one stack; the constant family refuses 30 of them
        "k=64 d=500 affine(0.5,1)": (
            ["--k", "64", "--d", "500", "--a", "0.5", "--b", "1"], ("verify", "spectrum")),
        "k=64 d=500 constant": (
            ["--k", "64", "--d", "500", "--family", "constant"], ("verify", "spectrum")),
        "k=32 d=1000 affine(0.5,1)": (
            ["--k", "32", "--d", "1000", "--a", "0.5", "--b", "1"], ("verify",)),
        # nilpotency decided on supports: Q-^k's products of up to k-1
        # nonzero weights overflow float64 before they meet Q-'s zeros
        "k=128 d=600 affine(0.5,1)": (
            ["--k", "128", "--d", "600", "--a", "0.5", "--b", "1"], ("verify",)),
        "k=64 d=100 affine(1e7,1)": (
            ["--k", "64", "--d", "100", "--a", "1e7", "--b", "1"], ("verify",)),
        # the order frontier: A's weight 1/[k-1]_q! is 6e-308 at k=203 and
        # subnormal from k=204 on
        "k=203 d=8 margin 1 affine(0.5,1)": (
            ["--k", "203", "--d", "8", "--margin", "1", "--a", "0.5", "--b", "1"], ("verify",)),
        "k=204 d=8 margin 1 affine(0.5,1)": (
            ["--k", "204", "--d", "8", "--margin", "1", "--a", "0.5", "--b", "1"], ("verify",)),
        # orders above the levels: the powers of Q- step past every level
        "k=12 d=4 margin 1 affine(0.5,1)": (
            ["--k", "12", "--d", "4", "--margin", "1", "--a", "0.5", "--b", "1"], every),
        "k=40 d=6 margin 1 constant": (
            ["--k", "40", "--d", "6", "--margin", "1", "--family", "constant"], ("verify",)),
    })
    # a 3 x 2 grid of affine points, with and without the process pool
    grid = ["--k", "3", "--d", "12", "--a-range", "-0.5", "0.5", "3", "--b-range", "1", "2", "2"]
    configs["k=3 d=12 sweep 3x2"] = (grid, ("sweep",))
    configs["k=3 d=12 sweep 3x2 jobs 2"] = ([*grid, "--jobs", "2"], ("sweep",))
    # the parser's own text: a subcommand's help, and a usage error
    configs["help"] = (["-h"], ("verify",))
    configs["usage error"] = ([], ("bogus",))
    return configs


OUTPUT_FLAGS = {
    "verify": ["--out_report", "report.json"],
    "spectrum": ["--out_spectrum", "spectrum.csv"],
    "dump": ["--out_operators", "ops"],
    "sweep": ["--out-dir", "sweep"],
}


SEED = 0

# runs the calls given as JSON on stdin, [[workdir, argv], ...], in
# order through one interpreter; prints each call's exit code, stdout and
# stderr as one JSON line
IN_PROCESS = """
import contextlib, io, json, os, sys, traceback
from fsusy.cli import main
for workdir, argv in json.load(sys.stdin):
    os.chdir(workdir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # the exit code and stderr a fresh interpreter would give
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


def environment(root: Path) -> dict[str, str]:
    env = {key: val for key, val in os.environ.items() if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def prepare(workdir: Path, command: str, flags: list[str]) -> list[str]:
    """An empty working directory with the table CSVs; the call's argv."""
    workdir.mkdir(parents=True)
    for name, text in TABLES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return [command, *flags, *OUTPUT_FLAGS.get(command, [])]


def outputs(root: Path, workdir: Path, code: int, stdout: bytes,
            stderr: bytes) -> dict[str, bytes]:
    """Every output of one call by name, paths and the report time stripped."""
    out = {"exit code": str(code).encode(), "stdout": stdout, "stderr": stderr}
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name not in TABLES:
            out[str(path.relative_to(workdir))] = path.read_bytes()
    for name, data in out.items():
        for place, text in ((workdir, b"<workdir>"), (root, b"<root>")):
            data = data.replace(str(place.resolve()).encode(), text)
        if name.endswith(".json"):
            data = re.sub(rb'"generated_at": "[^"]*"', b'"generated_at": null', data)
        out[name] = data
    return out


def run(root: Path, workdir: Path, command: str, flags: list[str]) -> dict[str, bytes]:
    """One CLI call of the tree at root in a fresh process in workdir."""
    argv = prepare(workdir, command, flags)
    proc = subprocess.run([sys.executable, "-m", "fsusy", *argv], cwd=workdir,
                          env=environment(root), capture_output=True, check=False)
    return outputs(root, workdir, proc.returncode, proc.stdout, proc.stderr)


def run_in_process(root: Path, scratch: Path,
                   calls: list[tuple[str, str, list[str]]]) -> list[dict[str, bytes]]:
    """The (name, command, flags) calls of the tree at root, in order, in one interpreter."""
    workdirs = [scratch / name for name, _, _ in calls]
    batch = [[str(workdir), prepare(workdir, command, flags)]
             for workdir, (_, command, flags) in zip(workdirs, calls)]
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS], input=json.dumps(batch).encode(),
                          env=environment(root), capture_output=True, check=False)
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    if proc.returncode != 0 or len(results) != len(calls):
        raise RuntimeError(f"the in-process pass of {root} stopped after {len(results)} "
                           f"of {len(calls)} calls: {proc.stderr.decode()[-2000:]}")
    return [outputs(root, workdir, code, out.encode(), err.encode())
            for workdir, (code, out, err) in zip(workdirs, results)]


# differing lines listed for each output before only verdict lines are
MAX_LINES = 10

# how a line reads a verdict: a report's "passed" and "verdict" values (the
# sweep index's too) and the printed [PASS]/[FAIL] marks and verdict line
VERDICT = re.compile(rb'"passed": \w+|"verdict": "?\w*|\[(?:PASS|FAIL)\]|^verdict: \w+')


def line_differences(a: bytes, b: bytes) -> list[str]:
    """Each differing line of two outputs: the first MAX_LINES of them, and
    past those every line whose verdict differs, then a count of the rest."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    found = [(i, x, y) for i, (x, y) in enumerate(zip(lines_a, lines_b), start=1) if x != y]
    shown = [(i, x, y) for j, (i, x, y) in enumerate(found)
             if j < MAX_LINES or VERDICT.findall(x) != VERDICT.findall(y)]
    out = [f"line {i}: {x[:100]!r} != {y[:100]!r}" for i, x, y in shown]
    if len(found) > len(shown):
        out.append(f"{len(found) - len(shown)} more differing lines, none a verdict")
    if len(lines_a) != len(lines_b):
        out.append(f"{len(lines_a)} lines != {len(lines_b)} lines")
    return out


def differences(where: str, a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """One text for each output that differs, its differing lines indented below it."""
    found = []
    for name in sorted(set(a) | set(b)):
        if a.get(name) == b.get(name):
            continue
        lines = (line_differences(a[name], b[name]) if name in a and name in b
                 else ["missing in one"])
        found.append("\n    ".join([f"{where} | {name}:", *lines]))
    return found


def compare(old: Path, new: Path, scratch: Path, jobs: int = 2) -> list[str]:
    sides = (("old", old), ("new", new))
    calls = [(cid, command, flags) for cid, (flags, commands) in configurations().items()
             for command in commands]
    shuffled = list(range(len(calls)))
    random.Random(SEED).shuffle(shuffled)

    def fresh(i_call):
        i, (_, command, flags) = i_call
        return [run(root, scratch / side / f"{i:03d}-{command}", command, flags)
                for side, root in sides]

    def in_process(side_root):
        side, root = side_root
        return run_in_process(root, scratch / side / "in-process",
                              [(f"{i:03d}-{calls[i][1]}", *calls[i][1:]) for i in shuffled])

    with ThreadPoolExecutor(jobs) as pool:
        fresh_outputs = list(pool.map(fresh, enumerate(calls)))
        found = [line for (cid, command, _), outs in zip(calls, fresh_outputs)
                 for line in differences(f"{cid} | {command}", *outs)]
        for j, shared in enumerate(pool.map(in_process, sides)):
            for i, outs in zip(shuffled, shared):
                found += differences(f"{calls[i][0]} | {calls[i][1]} in one process "
                                     f"({sides[j][0]} tree)", fresh_outputs[i][j], outs)
    print(f"{len(configurations())} configurations, {len(calls)} calls per tree, "
          f"each also in one process per tree (seed {SEED})")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (Path(arg).resolve() for arg in argv)
    for root in (old, new):
        if not (root / "src" / "fsusy").is_dir():
            print(f"error: {root} holds no src/fsusy", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        found = compare(old, new, Path(scratch))
    for line in found:
        print(line)
    print(f"{len(found)} outputs differ" if found else "no output differs")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
