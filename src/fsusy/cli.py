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
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

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

CONFIG_KEYS = {
    "k", "d", "family", "a", "b", "table", "margin", "tolerance",
    "out_report", "out_spectrum", "out_operators",
}
# canonical indices only: c00 would name sector 0 a second time
_SECTOR_KEY = re.compile(r"^c(0|[1-9]\d*)$")
# structure parameters that only one family reads; the sector constants c0,
# c1, ... belong to the constant family
_FAMILY_OF_KEY = {"a": "affine", "b": "affine", "table": "table"}


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
                if key not in CONFIG_KEYS and not _SECTOR_KEY.match(key):
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


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value settings file")
    parser.add_argument("--k", type=int, help="cyclic order (k >= 2)")
    parser.add_argument("--d", type=int, help="requested levels per sector (d >= 4)")
    parser.add_argument("--margin", type=int, help="safe-window margin (default k)")
    parser.add_argument("--tolerance", type=float, help="windowed residual tolerance")


def _add_system_flags(parser: argparse.ArgumentParser, sector_keys: list[str]) -> None:
    parser.add_argument("--family", choices=FAMILIES, help="structure family")
    parser.add_argument("--a", type=float, help="affine slope f_s(n) = a n + b")
    parser.add_argument("--b", type=float, help="affine offset f_s(n) = a n + b")
    parser.add_argument("--table", help="CSV path (header s,n,f) for the table family")
    parser.add_argument("--out_report", help="write the JSON report here")
    parser.add_argument("--out_spectrum", help="write the CSV spectrum here")
    parser.add_argument("--out_operators", help="write Matrix Market dumps here")
    for name in sector_keys:
        parser.add_argument(f"--{name}", type=float,
                            help=f"constant for sector {name[1:]}")


_SUBCOMMANDS = {
    "verify": "run the full identity suite and print a summary",
    "spectrum": "emit partner and replica energies as CSV",
    "dump": "emit every built operator as a Matrix Market file",
    "sweep": "verify a grid of affine families",
}


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
    """
    parser = argparse.ArgumentParser(
        prog="fsusy",
        description="Build and verify fractional supersymmetric systems "
                    "on truncated graded Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    invoked = next((token for token in argv if not token.startswith("-")), None)
    for name, text in _SUBCOMMANDS.items():
        # the sweep matches no prefixes, which would read --a as --a-range
        p = sub.add_parser(name, help=text, allow_abbrev=name != "sweep")
        if name != invoked:
            continue
        _add_common_flags(p)
        if name == "sweep":
            _add_sweep_flags(p)
        else:
            _add_system_flags(p, _sector_flags(argv))
    return parser


def _parse_scalar(key: str, text: str, cast):
    try:
        return cast(text)
    except ValueError:
        raise ConfigError(f"config key {key!r} has invalid value {text!r}") from None


def _merge_settings(ns: argparse.Namespace) -> dict:
    """Apply the precedence chain: defaults < environment < file < flags."""
    merged: dict = {}
    env = os.environ.get("FSUSY_TOLERANCE")
    if env is not None:
        merged["tolerance"] = _parse_scalar("FSUSY_TOLERANCE", env, float)
    if ns.config:
        casts = {"k": int, "d": int, "margin": int, "a": float, "b": float,
                 "tolerance": float}
        for key, text in parse_config_file(ns.config).items():
            m = _SECTOR_KEY.match(key)
            cast = float if m else casts.get(key, str)
            merged[key] = _parse_scalar(key, text, cast)
    for key in CONFIG_KEYS:
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
    owners = {key: "constant" if _SECTOR_KEY.match(key) else _FAMILY_OF_KEY.get(key)
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


def make_config(ns: argparse.Namespace) -> RunConfig:
    settings = _merge_settings(ns)
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
        out_report=settings.get("out_report"),
        out_spectrum=settings.get("out_spectrum"),
        out_operators=settings.get("out_operators"),
    )


def cmd_verify(ns: argparse.Namespace) -> int:
    report = run_verification_suite(make_config(ns))
    print(report.summary())
    return 0 if report.passed else 1


def _build_noting_refusals(config: RunConfig) -> GradedSystem:
    """build_system, with one stderr line per refused replica."""
    system = build_system(config)
    for s, exc in sorted(system.refused.items()):
        print(f"replica {s} skipped: {exc}", file=sys.stderr)
    return system


def cmd_spectrum(ns: argparse.Namespace) -> int:
    config = make_config(ns)
    if not config.out_spectrum:
        raise ConfigError("spectrum needs an output path (--out_spectrum)")
    system = _build_noting_refusals(config)
    emit_spectrum(system.doublet, system.replicas, config.out_spectrum)
    print(f"spectrum written to {config.out_spectrum}")
    return 0


def cmd_dump(ns: argparse.Namespace) -> int:
    config = make_config(ns)
    if not config.out_operators:
        raise ConfigError("dump needs an output directory (--out_operators)")
    system = _build_noting_refusals(config)
    written = dump_operators(system, config.out_operators)
    print(f"{len(written)} operators written to {config.out_operators}")
    return 0


def _grid(bounds: list[float], label: str) -> np.ndarray:
    lo, hi, steps = bounds
    if not np.isfinite([lo, hi, steps]).all():
        raise ConfigError(f"{label} values must be finite, got {lo} {hi} {steps}")
    count = int(steps)
    if count < 1 or count != steps:
        raise ConfigError(f"{label} step count must be a positive integer, got {steps}")
    try:
        return np.linspace(lo, hi, count)
    except (ValueError, MemoryError):
        raise ConfigError(f"--{label} step count {steps:g} is too large to allocate") from None


def _sweep_point(args: tuple) -> dict:
    i, j, a, b, base, out_dir = args
    path = os.path.join(out_dir, f"report_{i:03d}_{j:03d}.json")
    point = {
        "a": a, "b": b, "path": os.path.basename(path),
        "verdict": "error", "error": None,
    }
    try:
        config = dataclasses.replace(
            base, spec=StructureSpec.affine_family(base.k, a, b), out_report=path)
        point["verdict"] = run_verification_suite(config).verdict
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
    base = make_config(ns)
    if ns.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {ns.jobs}")
    jobs = min(ns.jobs, os.cpu_count() or 1)
    tasks = [
        (i, j, float(a), float(b), base, ns.out_dir)
        for i, a in enumerate(_grid(ns.a_range, "a-range"))
        for j, b in enumerate(_grid(ns.b_range, "b-range"))
    ]
    os.makedirs(ns.out_dir, exist_ok=True)
    if jobs > 1:
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
    handlers = {
        "verify": cmd_verify,
        "spectrum": cmd_spectrum,
        "dump": cmd_dump,
        "sweep": cmd_sweep,
    }
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
