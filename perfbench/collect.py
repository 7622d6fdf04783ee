#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise the spread of every metric.

    python3 perfbench/collect.py --out perfbench/results/baseline.json
    python3 perfbench/collect.py --out perfbench/results/repeat.json
    python3 perfbench/collect.py --render perfbench/results/baseline.json \
        perfbench/results/repeat.json > perfbench/results/baseline.md

For every workload of BENCHMARK.json this runs its command ten times
untraced, with seeds 1 to 10, and once traced, with seed 1.  For every
end-to-end metric it reports the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, against the metric's bound.  For the traced run it reports every
per-layer metric and the tracing overhead: traced minus untraced
op_s.p50.  ``--render`` prints summaries as Markdown tables instead of
running anything; summaries after the first are repeat sets of the same
code, and their medians are set against the first one's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SEEDS = range(1, RUNS + 1)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["environment"] = next(
        (json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("environment: ")),
        None)
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def load_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def render(path: str, repeats: list[str]) -> str:
    """Markdown tables of a summary written by --out, with its repeat sets."""
    data = load_summary(path)
    entries = data["workloads"]
    env = next(iter(entries.values()))["environment"]
    lines = [
        "# Benchmark summary", "",
        f"`python3 perfbench/collect.py`: {data['runs']} untraced runs (seeds 1-{data['runs']}) "
        f"and one traced run (seed 1) per workload, "
        f"{data['run_seconds']} s per run, commit `{env['commit']}`, {env['cpu']}, "
        f"nproc {env['nproc']}, caches {env['cache']}, Python {env['python']}, "
        f"numpy {env['numpy']}, BLAS {env['blas']}.", "",
        "## End to end: median of the untraced runs (spread = (q3 - q1) / median)", "",
        "| workload | BLAS threads | operations per run | setup_s | op_s.p50 | points_per_s "
        "| peak_rss_mb | failed / attempted |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, entry in entries.items():
        m = entry["end_to_end"]
        cells = [f"{m[k]['median']:.4g} {m[k]['unit']} ({m[k]['spread']:.3f})"
                 for k in ("setup_s", "op_s.p50", "points_per_s", "peak_rss_mb")]
        attempted = entry["attempted"]
        lines.append(f"| {name} | {entry['environment']['blas_threads']} | "
                     f"{min(attempted)}-{max(attempted)} | " + " | ".join(cells)
                     + f" | {sum(entry['failed'])} / {sum(attempted)} |")
    names = list(entries)
    lines += ["", "## Per layer: the traced run, per operation", "",
              "| metric | unit | " + " | ".join(names) + " |",
              "|---|---|" + "---|" * len(names)]
    for metric, first in entries[names[0]]["per_layer"].items():
        lines.append(f"| {metric} | {first['unit']} | " + " | ".join(
            f"{entries[name]['per_layer'][metric]['value']:.4g}" for name in names) + " |")
    lines += ["", "## Tracing overhead: traced trace.op_s.p50 minus untraced op_s.p50", "",
              "| workload | s per operation | share |", "|---|---|---|"]
    lines += [f"| {name} | {entries[name]['tracing_overhead_s']:+.4g} | "
              f"{entries[name]['tracing_overhead_share']:+.1%} |" for name in names]
    if repeats:
        sets = [data] + [load_summary(r) for r in repeats]
        lines += ["", "## Repeat sets of the same code: median per set "
                  "(shift = later set against the first; + is worse)", "",
                  "| workload | metric | bound | " + " | ".join(
                      f"set {i + 1}" for i in range(len(sets))) + " | shift |",
                  "|---|---|---|" + "---|" * (len(sets) + 1)]
        for name, entry in entries.items():
            for metric, first in entry["end_to_end"].items():
                medians = [s["workloads"][name]["end_to_end"][metric]["median"] for s in sets]
                sign = 1 if first["better"] == "lower" else -1
                shifts = ", ".join(f"{sign * (m - medians[0]) / medians[0]:+.1%}"
                                   for m in medians[1:])
                lines.append(f"| {name} | {metric} | {first['bound']} | " + " | ".join(
                    f"{m:.4g}" for m in medians) + f" | {shifts} |")
    lines += ["", "## Comparing with these numbers", "",
              "The speed of the machine that recorded them drifts over minutes (see "
              "`perfbench/README.md`, \"Noise\", and the repeat sets above, where present), "
              "so a difference from this file is not a gain or a loss. Measure a change in "
              "alternating pairs of runs, parent then change, on one machine, and compare "
              "those pairs."]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary as JSON here")
    parser.add_argument("--render", metavar="SUMMARY", nargs="+",
                        help="print summaries written by --out as Markdown and exit")
    args = parser.parse_args(argv)
    if args.render:
        sys.stdout.write(render(args.render[0], args.render[1:]))
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    out = {"run_seconds": bench["run_seconds"], "runs": RUNS, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        plain = [run_once(bench, name, seed, 0) for seed in SEEDS]
        traced = run_once(bench, name, SEEDS[0], 1)
        entry = {
            "environment": plain[0]["environment"],
            "attempted": [r["attempted"] for r in plain],
            "failed": [r["failed"] for r in plain],
            "wall_s": summary([r["wall_s"] for r in plain]),
            "end_to_end": {},
        }
        print(f"{name}: {len(plain)} runs, attempted {entry['attempted']}, "
              f"failed {sum(entry['failed'])}, run wall median "
              f"{statistics.median(r['wall_s'] for r in plain):.1f} s")
        for metric, (bound, better) in bounds.items():
            s = summary([r["metrics"][metric]["value"] for r in plain])
            s["unit"] = plain[0]["metrics"][metric]["unit"]
            s["bound"] = bound
            s["better"] = better
            entry["end_to_end"][metric] = s
            flag = ("" if s["spread"] < bound / 3 else
                    "  <-- above bound/3" if s["spread"] <= bound else "  <-- ABOVE BOUND")
            print(f"  {metric:14s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {bound}){flag}")
        entry["per_layer"] = traced["metrics"]
        untraced = entry["end_to_end"]["op_s.p50"]["median"]
        overhead = entry["per_layer"]["trace.op_s.p50"]["value"] - untraced
        entry["tracing_overhead_s"] = overhead
        entry["tracing_overhead_share"] = overhead / untraced
        print(f"  tracing overhead {overhead:+.4g} s per operation "
              f"({overhead / untraced:+.2%} of untraced op_s.p50 {untraced:.4g} s)")
        out["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
