"""Compare what two source trees of fsusy write, byte for byte.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each root is a checkout holding ``src/fsusy``.  Every configuration below
goes through ``verify``, ``spectrum`` and ``dump`` (the large ones through
``verify`` only), each call in a fresh ``python3 -m fsusy`` subprocess with
that tree's ``src`` alone on the path, one BLAS thread, and its own empty
working directory.  The exit code, stdout, stderr and every file the call
writes (report, spectrum CSV, each ``.mtx``) are compared between the trees.

A second, in-process pass then runs every ``verify`` call of each tree
through ``fsusy.cli.main`` in one interpreter, in an order shuffled with
the fixed seed ``SEED``, and compares each call's outputs with that tree's
fresh-process ones, so state that one point leaves to the next shows.

The report's ``generated_at`` value and the tree and working-directory
paths are replaced by placeholders first.  Prints each difference and exits
1 if there is any, else 0.
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

TABLE_CSV = "s,n,f\n" + "".join(
    f"{s},{n},{((7 * s + 3 * n) % 11 + 1) / 3!r}\n" for s in range(3) for n in range(-3, 60))


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
        "k=3 d=12 margin 10": (["--k", "3", "--d", "12", "--margin", "10"], every),
        "k=7 d=30 constant": (["--k", "7", "--d", "30", "--family", "constant"], every),
        "k=7 d=30 affine(0.5,1)": (["--k", "7", "--d", "30", "--a", "0.5", "--b", "1"], every),
        "k=8 d=100 affine(0.5,1)": (["--k", "8", "--d", "100", "--a", "0.5", "--b", "1"], every),
        "k=64 d=500 affine(0.5,1)": (
            ["--k", "64", "--d", "500", "--a", "0.5", "--b", "1"], ("verify",)),
        "k=64 d=500 constant": (["--k", "64", "--d", "500", "--family", "constant"], ("verify",)),
        "k=32 d=1000 affine(0.5,1)": (
            ["--k", "32", "--d", "1000", "--a", "0.5", "--b", "1"], ("verify",)),
    })
    return configs


OUTPUT_FLAGS = {
    "verify": ["--out_report", "report.json"],
    "spectrum": ["--out_spectrum", "spectrum.csv"],
    "dump": ["--out_operators", "ops"],
}


SEED = 0

# runs the verify calls given as JSON on stdin, [[workdir, argv], ...], in
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
    """An empty working directory with the table CSV; the call's argv."""
    workdir.mkdir(parents=True)
    (workdir / "table.csv").write_text(TABLE_CSV, encoding="utf-8")
    return [command, *flags, *OUTPUT_FLAGS[command]]


def outputs(root: Path, workdir: Path, code: int, stdout: bytes,
            stderr: bytes) -> dict[str, bytes]:
    """Every output of one call by name, paths and the report time stripped."""
    out = {"exit code": str(code).encode(), "stdout": stdout, "stderr": stderr}
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name != "table.csv":
            out[str(path.relative_to(workdir))] = path.read_bytes()
    for name, data in out.items():
        for place, text in ((workdir, b"<workdir>"), (root, b"<root>")):
            data = data.replace(str(place.resolve()).encode(), text)
        if name == "report.json":
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
                   calls: list[tuple[str, list[str]]]) -> list[dict[str, bytes]]:
    """The (name, flags) verify calls of the tree at root, in order, in one interpreter."""
    workdirs = [scratch / name for name, _ in calls]
    batch = [[str(workdir), prepare(workdir, "verify", flags)]
             for workdir, (_, flags) in zip(workdirs, calls)]
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS], input=json.dumps(batch).encode(),
                          env=environment(root), capture_output=True, check=False)
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    if proc.returncode != 0 or len(results) != len(calls):
        raise RuntimeError(f"the in-process pass of {root} stopped after {len(results)} "
                           f"of {len(calls)} calls: {proc.stderr.decode()[-2000:]}")
    return [outputs(root, workdir, code, out.encode(), err.encode())
            for workdir, (code, out, err) in zip(workdirs, results)]


def first_difference(a: bytes, b: bytes) -> str:
    for i, (line_a, line_b) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if line_a != line_b:
            return f"line {i}: {line_a[:100]!r} != {line_b[:100]!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def differences(where: str, a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    return [f"{where} | {name}: "
            + ("missing in one" if name not in a or name not in b
               else first_difference(a[name], b[name]))
            for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]


def compare(old: Path, new: Path, scratch: Path, jobs: int = 2) -> list[str]:
    sides = (("old", old), ("new", new))
    calls = [(cid, command, flags) for cid, (flags, commands) in configurations().items()
             for command in commands]
    shuffled = [i for i, (_, command, _) in enumerate(calls) if command == "verify"]
    random.Random(SEED).shuffle(shuffled)

    def fresh(i_call):
        i, (_, command, flags) = i_call
        return [run(root, scratch / side / f"{i:03d}-{command}", command, flags)
                for side, root in sides]

    def in_process(side_root):
        side, root = side_root
        return run_in_process(root, scratch / side / "in-process",
                              [(f"{i:03d}", calls[i][2]) for i in shuffled])

    with ThreadPoolExecutor(jobs) as pool:
        fresh_outputs = list(pool.map(fresh, enumerate(calls)))
        found = [line for (cid, command, _), outs in zip(calls, fresh_outputs)
                 for line in differences(f"{cid} | {command}", *outs)]
        for j, shared in enumerate(pool.map(in_process, sides)):
            for i, outs in zip(shuffled, shared):
                found += differences(f"{calls[i][0]} | verify in one process ({sides[j][0]} tree)",
                                     fresh_outputs[i][j], outs)
    print(f"{len(configurations())} configurations, {len(calls)} calls per tree, "
          f"{len(shuffled)} verify calls per tree in one process (seed {SEED})")
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
