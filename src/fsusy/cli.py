"""Command-line front end.

Subcommands: verify (run the identity suite), spectrum (partner and replica
energies as CSV), dump (operators as Matrix Market files), sweep (a grid of
affine families, one report per point plus an index).

Settings come from, in rising precedence: built-in defaults, the
FSUSY_TOLERANCE environment variable (tolerance only), a flat key = value
config file, command-line flags.  Exit codes: 0 all asserted identities pass,
1 at least one failed, 2 invalid input or I/O trouble.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys

import numpy as np

from .errors import ConfigError, FsusyError
from .fock import FAMILIES, StructureSpec, load_table_csv
from .suite import (
    DEFAULT_TOLERANCE,
    GradedSystem,
    RunConfig,
    build_system,
    dump_operators,
    emit_spectrum,
    run_verification_suite,
    too_large,
)

_SUBCOMMANDS = {
    "verify": "run the full identity suite and print a summary",
    "spectrum": "emit partner and replica energies as CSV",
    "dump": "emit every built operator as a Matrix Market file",
    "sweep": "verify a grid of affine families",
}
_EVERY, _BUILDING = tuple(_SUBCOMMANDS), ("verify", "spectrum", "dump")
# every config key: its type, its flag's help, the one family that reads it
# (None: every family) and the subcommands that take it as a flag, in the
# order of their help; the sector constants c0, c1, ... are the constant family's
SETTINGS = {
    "k": (int, "cyclic order (k >= 2)", None, _EVERY),
    "d": (int, "requested levels per sector (d >= 4)", None, _EVERY),
    "margin": (int, "safe-window margin (default k)", None, _EVERY),
    "tolerance": (float, "windowed residual tolerance", None, _EVERY),
    "family": (str, "structure family", None, _BUILDING),
    "a": (float, "affine slope f_s(n) = a n + b", "affine", _BUILDING),
    "b": (float, "affine offset f_s(n) = a n + b", "affine", _BUILDING),
    "table": (str, "CSV path (header s,n,f) for the table family", "table", _BUILDING),
    "out_report": (str, "write the JSON report here", None, ("verify",)),
    "out_spectrum": (str, "write the CSV spectrum here", None, ("spectrum",)),
    "out_operators": (str, "write Matrix Market dumps here", None, ("dump",)),
}
# canonical indices only: c00 would name sector 0 a second time
_SECTOR_KEY = re.compile(r"^c(0|[1-9]\d*)$")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments are skipped.  A
    leading byte-order mark is not part of the first key."""
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in SETTINGS and not _SECTOR_KEY.match(key):
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                if key in values:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                values[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _sector_flags(argv: list[str]) -> list[str]:
    """Names of --c0, --c1, ... flags present on the command line."""
    found = []
    for token in argv:
        if not token.startswith("--"):
            continue
        name = token[2:].split("=", 1)[0]
        if _SECTOR_KEY.match(name):
            found.append(name)
    return found


def _add_flags(parser: argparse.ArgumentParser, command: str,
               sector_keys: tuple[str, ...]) -> None:
    """The settings flags that ``command`` takes, and the --cN flags named on
    the command line if it builds a system."""
    parser.add_argument("--config", help="flat key = value settings file")
    for key, (cast, text, _, commands) in SETTINGS.items():
        if command in commands:
            parser.add_argument(f"--{key}", type=cast, help=text,
                                choices=FAMILIES if key == "family" else None)
    for name in sector_keys if command in _BUILDING else ():
        parser.add_argument(f"--{name}", type=float, help=f"constant for sector {name[1:]}")


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a-range", nargs=3, type=float, required=True,
                        metavar=("MIN", "MAX", "STEPS"),
                        help="affine slope grid: min max steps")
    parser.add_argument("--b-range", nargs=3, type=float, required=True,
                        metavar=("MIN", "MAX", "STEPS"),
                        help="affine offset grid: min max steps")
    parser.add_argument("--out-dir", required=True,
                        help="directory for per-point reports and index.json")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers, at least 1 and at most the "
                             "CPU count (default 1)")


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The fsusy parser; only the subcommand that argv invokes gets its flags.

    Every subcommand is registered, so ``fsusy -h`` and an invalid choice
    read the same.  The top-level parser takes no option with a value, so
    the first token of argv not starting with "-" names the subcommand.

    The parser is built once per process for each subcommand and set of
    --cN flags, and every call that names the same ones gets the same
    parser: it is shared and must not be mutated.  parse_args leaves it as
    it is.
    """
    invoked = next((token for token in argv if not token.startswith("-")), None)
    # a repeated --cN is one flag, whose last value wins like any other's
    return _parser(invoked, tuple(dict.fromkeys(_sector_flags(argv))))


@functools.lru_cache(maxsize=8)
def _parser(invoked: str | None, sector_keys: tuple[str, ...]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsusy",
        description="Build and verify fractional supersymmetric systems "
                    "on truncated graded Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _SUBCOMMANDS.items():
        # the sweep matches no prefixes, which would read --a as --a-range
        p = sub.add_parser(name, help=text, allow_abbrev=name != "sweep")
        if name != invoked:
            continue
        _add_flags(p, name, sector_keys)
        if name == "sweep":
            _add_sweep_flags(p)
    return parser


def _parse_scalar(source: str, text: str, cast):
    try:
        return cast(text)
    except ValueError:
        raise ConfigError(f"{source} has invalid value {text!r}") from None


def _merge_settings(ns: argparse.Namespace) -> dict:
    """Apply the precedence chain: defaults < environment < file < flags."""
    merged: dict = {}
    env = os.environ.get("FSUSY_TOLERANCE")
    if env is not None:
        merged["tolerance"] = _parse_scalar("environment variable FSUSY_TOLERANCE", env, float)
    if ns.config:
        for key, text in parse_config_file(ns.config).items():
            cast = float if _SECTOR_KEY.match(key) else SETTINGS[key][0]
            merged[key] = _parse_scalar(f"config key {key!r}", text, cast)
    for key in SETTINGS:
        flag = getattr(ns, key, None)
        if flag is not None:
            merged[key] = flag
    for key, value in vars(ns).items():
        if _SECTOR_KEY.match(key) and value is not None:
            merged[key] = value
    return merged


def _build_spec(k: int, settings: dict) -> StructureSpec:
    sector_values = {
        int(_SECTOR_KEY.match(key).group(1)): float(value)
        for key, value in settings.items()
        if _SECTOR_KEY.match(key)
    }
    family = settings.get("family")
    if family is None:
        if "table" in settings:
            family = "table"
        elif "a" in settings or "b" in settings:
            family = "affine"
        else:
            family = "constant"
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; choose from {FAMILIES}")
    owners = {key: "constant" if _SECTOR_KEY.match(key) else SETTINGS[key][2]
              for key in settings}
    foreign = sorted(key for key, owner in owners.items() if owner not in (None, family))
    if foreign:
        listing = ", ".join(f"{key} ({owners[key]} family)" for key in foreign)
        raise ConfigError(f"the {family} family in use takes no {listing}")
    if family == "constant":
        bad = [s for s in sector_values if not 0 <= s < k]
        if bad:
            raise ConfigError(f"sector constants {bad} outside 0..{k - 1}")
        values = [sector_values.get(s, 1.0) for s in range(k)]
        return StructureSpec.constant_values(k, values)
    if family == "affine":
        if "a" not in settings or "b" not in settings:
            raise ConfigError("the affine family needs both a and b")
        return StructureSpec.affine_family(k, settings["a"], settings["b"])
    # the table family
    if "table" not in settings:
        raise ConfigError("the table family needs a table CSV path")
    return load_table_csv(settings["table"], k)


def make_config(settings: dict) -> RunConfig:
    """The run's inputs from the merged settings; output paths stay in them."""
    if "k" not in settings:
        raise ConfigError("the cyclic order k is required (flag --k or config key k)")
    if "d" not in settings:
        raise ConfigError("the truncation d is required (flag --d or config key d)")
    k, d = settings["k"], settings["d"]
    margin = settings.get("margin", k)
    # before the spec, as the constant family makes a list of k values
    RunConfig.check_space(k, d, margin)
    return RunConfig(
        k=k,
        d=d,
        spec=_build_spec(k, settings),
        margin=margin,
        tolerance=settings.get("tolerance", DEFAULT_TOLERANCE),
    )


def cmd_verify(ns: argparse.Namespace) -> int:
    settings = _merge_settings(ns)
    report = run_verification_suite(make_config(settings))
    if settings.get("out_report"):
        report.write(settings["out_report"])
    print(report.summary())
    return 0 if report.passed else 1


def _build_noting_refusals(config: RunConfig) -> GradedSystem:
    """build_system, with one stderr line per refused replica."""
    system = build_system(config)
    for s, exc in sorted(system.replicas.refused.items()):
        print(f"replica {s} skipped: {exc}", file=sys.stderr)
    return system


def cmd_spectrum(ns: argparse.Namespace) -> int:
    settings = _merge_settings(ns)
    config, path = make_config(settings), settings.get("out_spectrum")
    if not path:
        raise ConfigError("spectrum needs an output path (--out_spectrum)")
    system = _build_noting_refusals(config)
    emit_spectrum(system.doublet, system.replicas, path)
    print(f"spectrum written to {path}")
    return 0


def cmd_dump(ns: argparse.Namespace) -> int:
    settings = _merge_settings(ns)
    config, directory = make_config(settings), settings.get("out_operators")
    if not directory:
        raise ConfigError("dump needs an output directory (--out_operators)")
    system = _build_noting_refusals(config)
    written = dump_operators(system, directory)
    print(f"{len(written)} operators written to {directory}")
    return 0


def _steps(bounds: list[float], label: str) -> int:
    lo, hi, steps = bounds
    if not np.isfinite([lo, hi, steps]).all():
        raise ConfigError(f"{label} values must be finite, got {lo} {hi} {steps}")
    count = int(steps)
    if count < 1 or count != steps:
        raise ConfigError(f"{label} step count must be a positive integer, got {steps}")
    return count


def _sweep_point(args: tuple) -> dict:
    i, j, a, b, base, out_dir = args
    path = os.path.join(out_dir, f"report_{i:03d}_{j:03d}.json")
    point = {
        "a": a, "b": b, "path": os.path.basename(path),
        "verdict": "error", "error": None,
    }
    try:
        config = dataclasses.replace(base, spec=StructureSpec.affine_family(base.k, a, b))
        report = run_verification_suite(config)
        report.write(path)
        point["verdict"] = report.verdict
    except FsusyError as exc:
        point["error"] = str(exc)
    return point


def cmd_sweep(ns: argparse.Namespace) -> int:
    # config keys of flags the sweep lacks: the structure family and outputs
    settings = parse_config_file(ns.config) if ns.config else {}
    unused = sorted(key for key in settings if not hasattr(ns, key))
    if unused:
        raise ConfigError(f"sweep does not take {', '.join(unused)}; it sets the affine "
                          "family per point and writes only to --out-dir")
    base = make_config(_merge_settings(ns))
    if ns.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {ns.jobs}")
    jobs = min(ns.jobs, os.cpu_count() or 1)
    a_steps, b_steps = _steps(ns.a_range, "a-range"), _steps(ns.b_range, "b-range")
    RunConfig.check_sweep(a_steps, b_steps)
    try:
        tasks = [
            (i, j, float(a), float(b), base, ns.out_dir)
            for i, a in enumerate(np.linspace(*ns.a_range[:2], a_steps))
            for j, b in enumerate(np.linspace(*ns.b_range[:2], b_steps))
        ]
    except MemoryError:  # below physical memory, which check_sweep counts
        raise ConfigError(f"a sweep grid of {a_steps} a-range by {b_steps} b-range "
                          "steps is too large to list") from None
    os.makedirs(ns.out_dir, exist_ok=True)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so no other run loads it
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            points = list(pool.map(_sweep_point, tasks))
    else:
        points = [_sweep_point(t) for t in tasks]
    index = {"k": base.k, "d": base.d, "points": points}
    with open(os.path.join(ns.out_dir, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2)
        fh.write("\n")
    failed = [p for p in points if p["verdict"] != "pass"]
    print(f"sweep: {len(points) - len(failed)}/{len(points)} points pass")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    ns = parser.parse_args(argv)
    handlers = {"verify": cmd_verify, "spectrum": cmd_spectrum,
                "dump": cmd_dump, "sweep": cmd_sweep}
    try:
        return handlers[ns.command](ns)
    except (FsusyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # make_config read these settings before the build ran out of memory
        settings = _merge_settings(ns)
        print(f"error: {too_large(settings['k'], settings['d'])}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
