"""Compare what two source trees of fsusy write, byte for byte.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each root is a checkout holding ``src/fsusy``.  Every configuration below
goes through ``verify``, ``spectrum`` and ``dump`` (the large ones through
``verify`` only), each call in a fresh ``python3 -m fsusy`` subprocess with
that tree's ``src`` alone on the path, one BLAS thread, and its own empty
working directory.  The exit code, stdout, stderr and every file the call
writes (report, spectrum CSV, each ``.mtx``) are compared between the trees.
The report's ``generated_at`` value and the tree and working-directory
paths are replaced by placeholders first.  Prints each difference and exits
1 if there is any, else 0.
"""

from __future__ import annotations

import os
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


def run(root: Path, workdir: Path, command: str, flags: list[str]) -> dict[str, bytes]:
    """One CLI call of the tree at root in workdir; every output by name, paths stripped."""
    workdir.mkdir(parents=True)
    (workdir / "table.csv").write_text(TABLE_CSV, encoding="utf-8")
    env = {key: val for key, val in os.environ.items() if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "fsusy", command, *flags, *OUTPUT_FLAGS[command]],
                          cwd=workdir, env=env, capture_output=True, check=False)
    out = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
           "stderr": proc.stderr}
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


def first_difference(a: bytes, b: bytes) -> str:
    for i, (line_a, line_b) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if line_a != line_b:
            return f"line {i}: {line_a[:100]!r} != {line_b[:100]!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def compare(old: Path, new: Path, scratch: Path, jobs: int = 2) -> list[str]:
    calls = [(cid, command, flags) for cid, (flags, commands) in configurations().items()
             for command in commands]

    def one(i_call):
        i, (cid, command, flags) = i_call
        outs = [run(root, scratch / side / f"{i:03d}-{command}", command, flags)
                for side, root in (("old", old), ("new", new))]
        return [f"{cid} | {command} | {name}: "
                + ("missing in one tree" if name not in outs[0] or name not in outs[1]
                   else first_difference(outs[0][name], outs[1][name]))
                for name in sorted(set(outs[0]) | set(outs[1]))
                if outs[0].get(name) != outs[1].get(name)]

    with ThreadPoolExecutor(jobs) as pool:
        found = [line for lines in pool.map(one, enumerate(calls)) for line in lines]
    print(f"{len(configurations())} configurations, {len(calls)} calls per tree")
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
        differences = compare(old, new, Path(scratch))
    for line in differences:
        print(line)
    print(f"{len(differences)} outputs differ" if differences else "no output differs")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
