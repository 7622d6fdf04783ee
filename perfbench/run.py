#!/usr/bin/env python3
"""Benchmark of the fsusy pipeline, measured from outside the package.

Run from the root of a checkout (no install needed; ``src`` is put on the path):

    python3 perfbench/run.py --workload grid-small --seed 1 --trace 0

Workloads are defined in ``workloads.py``, each with why it was chosen.  A run
sets the BLAS thread count, repeats operations for ``--seconds`` (default:
``run_seconds`` of ``BENCHMARK.json``) and checks each one's output against
``reference.json``.  Between operations, spread over the run, it sets up
fifteen times in fresh interpreters (``setup_s``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs the span tracer of ``tracer.py``
and reports the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``python3 perfbench/run.py --record-reference`` runs every operation of every
workload once and rewrites ``reference.json`` from the current code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-tmp"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 15
P90_MIN_SAMPLES = 100
MAX_PRINTED = 20

# setup_s: import numpy and fsusy, then one warm-up suite at k=2, d=8
SETUP_CODE = """
import time
start = time.perf_counter()
import numpy
from fsusy.fock import StructureSpec
from fsusy.suite import RunConfig, run_verification_suite
run_verification_suite(RunConfig(k=2, d=8, spec=StructureSpec.constant_values(2, 1.0), margin=2))
print(time.perf_counter() - start)
"""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv, run_seconds: int):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current code and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def load_fsusy(threads: int):
    """Import numpy and fsusy from this checkout's src with a fixed BLAS thread count."""
    if not (SRC / "fsusy" / "__init__.py").is_file():
        raise SystemExit(f"error: no fsusy package under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    import fsusy
    import fsusy.cli
    import fsusy.suite
    if Path(fsusy.__file__).resolve().parent != SRC / "fsusy":
        raise SystemExit(f"error: imported fsusy from {fsusy.__file__}, not from {SRC}")
    from fsusy.fock import StructureSpec
    from fsusy.suite import RunConfig
    fsusy.suite.run_verification_suite(
        RunConfig(k=2, d=8, spec=StructureSpec.constant_values(2, 1.0), margin=2))
    return fsusy


class SetupTimer:
    """SETUPS set-ups in fresh interpreters, each timed inside itself, spread evenly
    over the measured loop.

    The speed of a shared machine drifts over seconds: set-ups taken in one
    burst agree with each other but not with the next run's burst.  Spread
    over the run, their median is not tied to one moment of it.
    """

    def __init__(self, seconds: float):
        self.interval = seconds / SETUPS
        self.samples: list[float] = []

    def tick(self, elapsed: float) -> float:
        """Take the set-ups due by elapsed seconds of the loop; return the time they took."""
        t0 = time.perf_counter()
        while len(self.samples) < SETUPS and elapsed >= len(self.samples) * self.interval:
            out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                                 capture_output=True, text=True, timeout=120).stdout
            self.samples.append(float(out.split()[-1]))
        return time.perf_counter() - t0


# ---------------------------------------------------------------- environment

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; unknown outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(np, seed: int, threads: int, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "blas_vars": list(BLAS_VARS),
        "nproc": nproc,
        "cpu": cpu_model(),
        "cache": cache_sizes(),
        "seed": seed,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------- measuring

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, keys, reference, seconds, tracer=None, setup=None):
    """Repeat whole passes over keys until seconds have elapsed; check every operation.

    Set-ups due are taken between operations; their time does not count
    towards seconds.  Returns the wall times of every operation by key, the
    failed count, the problems that made operations fail, and notes on fixed
    or absent entries.
    """
    times = {key: [] for key in keys}
    problems, notes = [], []
    failed = ops = 0
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        for key in keys:
            wl.prepare(key)
            if tracer is not None:
                tracer.begin_op(ops)
            t0 = time.perf_counter()
            try:
                result, error = wl.run(key), None
            except (Exception, SystemExit) as exc:  # a raising operation is a failed one
                result, error = None, exc
            times[key].append(time.perf_counter() - t0)
            ops += 1
            if tracer is not None:
                tracer.begin_op(None)
            if error is None:
                try:
                    bad = wl.check(key, reference[key], wl.observe(key, result), notes)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    bad = [f"{wl.name} {key}: output missing or malformed: {exc}"]
            else:
                bad = [f"{wl.name} {key}: {type(error).__name__}: {error}"]
            failed += bool(bad)
            problems += bad
            if setup is not None:
                start += setup.tick(time.perf_counter() - start)
    return times, failed, problems, notes


def median_op_seconds(times: dict[str, list[float]]) -> float:
    """Median over the distinct operations of each one's median wall time.

    With one distinct operation this is the plain median.  For grid-small a
    pooled median would fall in the gap between the k=3 and k=4 points and
    follow the slowest k=3 and fastest k=4 sample; the median of per-point
    medians follows two per-point medians instead, those same two points.  A
    change to the k=2 or k=5 points alone does not move it; points_per_s
    covers the whole grid.
    """
    return statistics.median(statistics.median(v) for v in times.values())


def record_reference() -> int:
    fsusy = load_fsusy(threads=1)
    reference = {}
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT)
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(fsusy, workdir)
            reference[name] = {}
            for key in sorted(wl.keys(0)):
                wl.prepare(key)
                obs = wl.observe(key, wl.run(key))
                reference[name][key] = workloads.strip_for_reference(obs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        remove_empty(WORK_ROOT)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"reference written to {workloads.REFERENCE}")
    return 0


def remove_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


def main(argv=None) -> int:
    bench = load_benchmark()
    args = parse_args(argv, bench["run_seconds"])
    if args.record_reference:
        return record_reference()
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    fsusy = load_fsusy(threads)
    import numpy as np
    with open(workloads.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    declared = bench["per_layer" if args.trace else "end_to_end"]

    env = environment(np, args.seed, threads, nproc)
    print(f"fsusy benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        wl = workloads.WORKLOADS[args.workload](fsusy, workdir)
        keys = wl.keys(args.seed)
        tracer = setup = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        else:
            setup = SetupTimer(args.seconds)
        times, failed, problems, notes = measure(
            wl, keys, reference, args.seconds, tracer, setup)
        if setup is not None:
            setup.tick(math.inf)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        remove_empty(WORK_ROOT)

    durations = [t for per_key in times.values() for t in per_key]
    ops = len(durations)
    op_p50 = median_op_seconds(times)
    print(f"computed: one dense operator at dimension {wl.dim} is {wl.dim}^2 x 16 B = "
          f"{wl.dim ** 2 * 16 / 1e6:.2f} MB; caches {env['cache']}")
    for line in problems[:MAX_PRINTED]:
        print(f"FAILED {line}")
    if len(problems) > MAX_PRINTED:
        print(f"FAILED ... {len(problems) - MAX_PRINTED} more")
    for line in sorted(set(notes)):
        print(f"note: {line}")
    print(f"error_rate {failed / ops:g} ({failed} failed / {ops} operations attempted)")

    if args.trace:
        WORK_ROOT.mkdir(exist_ok=True)
        spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in tracer.spans)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        metrics, absent = tracing.layer_metrics(tracer, ops)
        metrics["trace.op_s.p50"] = op_p50
        metrics["trace.spans_per_op"] = sum(s["op"] is not None for s in tracer.spans) / ops
        if tracer.absent:
            print("absent functions: " + ", ".join(tracer.absent))
            print("absent metrics (reported as 0): " + (", ".join(absent) or "none"))
        print(f"tracing overhead: compare trace.op_s.p50 {op_p50:.6g} s with op_s.p50 "
              "of an untraced run of the same workload")
    else:
        metrics = {
            "setup_s": statistics.median(setup.samples),
            "op_s.p50": op_p50,
            "points_per_s": ops / sum(durations),
            "peak_rss_mb": peak_rss_mb(),
        }
        if ops >= P90_MIN_SAMPLES:
            print(f"op_s.p90 {statistics.quantiles(durations, n=10)[8]:.6g} s (n={ops})")
        else:
            print(f"op_s.p90 undefined (n={ops} < {P90_MIN_SAMPLES})")
        print(f"setup_s is the median of {SETUPS} set-ups spread over the run; "
              f"op_s.p50 of n={ops} "
              f"over {len(times)} distinct operations")
    for m in declared:
        label = " (computed)" if m["name"].endswith(".bytes") else ""
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}{label}")
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
