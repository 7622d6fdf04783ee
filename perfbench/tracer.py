"""Span tracer that wraps fsusy's public functions from outside the package.

``install`` replaces the names that ``fsusy.suite`` and ``fsusy.cli`` import
(and two ``VerificationReport`` methods) with wrappers that record one span
per call: name, start, end, parent and the operation it belongs to.  Spans
stay in memory.  A target that no longer exists marks its span name absent;
nothing fails.

Only a traced run (``--trace 1``) installs the tracer, so the untraced run
that gives the end-to-end numbers executes no tracing code.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import time

import numpy as np

ALIAS_MODULES = ("fsusy.suite", "fsusy.cli")


def _written(path_arg: int, nnz_arg: int | None = None):
    """Hook: size of the file a writer produced, and nonzeros of what it wrote."""
    def hook(tracer, result, args):
        extra = {}
        try:
            extra["bytes"] = os.path.getsize(args[path_arg])
            if nnz_arg is not None:
                extra["nnz"] = int(np.count_nonzero(args[nnz_arg]))
        except (IndexError, OSError, TypeError):
            pass
        return extra
    return hook


def _built(tracer, result, args):
    """Hook: computed bytes of arrays first seen in this operation's results."""
    return {"bytes": tracer.new_array_bytes(result)}


# (layer, module, attribute as imported there, hook run after the call)
TARGETS = [
    ("fock", "fsusy.suite", "solve_structure_function", None),
    ("fock", "fsusy.suite", "effective_dimension", None),
    ("wkalg", "fsusy.suite", "build_rep", _built),
    ("wkalg", "fsusy.suite", "verify_wk_relations", None),
    ("system", "fsusy.suite", "build_doublet", _built),
    ("system", "fsusy.suite", "verify_fsusy", None),
    ("system", "fsusy.suite", "partner_consistency_entry", None),
    ("replicas", "fsusy.suite", "build_replica", _built),
    ("replicas", "fsusy.suite", "verify_replica", None),
    ("replicas", "fsusy.suite", "check_isospectrality", None),
    ("replicas", "fsusy.suite", "verify_sum_identity", None),
    ("replicas", "fsusy.suite", "k2_reduction_entry", None),
    ("realization", "fsusy.suite", "build_kfermion_pair", _built),
    ("realization", "fsusy.suite", "verify_kfermions", None),
    ("realization", "fsusy.suite", "build_tensor_realization", _built),
    ("realization", "fsusy.suite", "compare_realizations", None),
    ("report", "fsusy.report", "VerificationReport.compile", None),
    ("report", "fsusy.report", "VerificationReport.write", _written(1)),
    ("suite", "fsusy.suite", "run_verification_suite", None),
    ("suite", "fsusy.suite", "build_system", None),
    ("suite", "fsusy.suite", "emit_spectrum", None),
    ("suite", "fsusy.suite", "dump_operators", None),
    ("suite", "fsusy.suite", "write_matrix_market", _written(0, 1)),
    ("cli", "fsusy.cli", "main", None),
]

# per-layer metric -> (kind, span names); every value is per operation
METRICS = {
    "fock.solve_s": ("time", ["fock.solve_structure_function", "fock.effective_dimension"]),
    "wkalg.build_rep_s": ("time", ["wkalg.build_rep"]),
    "wkalg.verify_s": ("time", ["wkalg.verify_wk_relations"]),
    "wkalg.bytes": ("bytes", ["wkalg.build_rep"]),
    "system.build_doublet_s": ("time", ["system.build_doublet"]),
    "system.verify_s": ("time", ["system.verify_fsusy", "system.partner_consistency_entry"]),
    "system.bytes": ("bytes", ["system.build_doublet"]),
    "replicas.build_s": ("time", ["replicas.build_replica"]),
    "replicas.verify_s": ("time", ["replicas.verify_replica", "replicas.check_isospectrality",
                                   "replicas.k2_reduction_entry"]),
    "replicas.charge_sum_s": ("time", ["replicas.verify_sum_identity"]),
    "replicas.bytes": ("bytes", ["replicas.build_replica"]),
    "replicas.built": ("ok", ["replicas.build_replica"]),
    "replicas.factorization_failures": ("errors", ["replicas.build_replica"]),
    "replicas.yield": ("yield", ["replicas.build_replica"]),
    "realization.kfermion_s": ("time", ["realization.build_kfermion_pair",
                                        "realization.verify_kfermions"]),
    "realization.build_s": ("time", ["realization.build_tensor_realization"]),
    "realization.compare_s": ("time", ["realization.compare_realizations"]),
    "realization.bytes": ("bytes", ["realization.build_kfermion_pair",
                                    "realization.build_tensor_realization"]),
    "report.compile_s": ("time", ["report.compile"]),
    "report.write_s": ("time", ["report.write"]),
    "report.bytes_written": ("bytes", ["report.write"]),
    "suite.self_s": ("self", ["suite.run_verification_suite"]),
    "suite.build_system_s": ("time", ["suite.build_system"]),
    "suite.emit_spectrum_s": ("time", ["suite.emit_spectrum"]),
    "suite.dump_s": ("time", ["suite.dump_operators"]),
    "suite.dump_nnz": ("nnz", ["suite.write_matrix_market"]),
    "suite.dump_bytes_written": ("bytes", ["suite.write_matrix_market"]),
    "cli.self_s": ("self", ["cli.main"]),
}


class Tracer:
    """Spans of this process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.count = 0
        self.op: int | None = None
        self.absent: list[str] = []
        self.seen: dict[int, np.ndarray] = {}

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count += 1
            span = {"id": self.count, "name": name, "op": self.op,
                    "parent": self.stack[-1] if self.stack else None}
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["end"] = time.perf_counter()
                if hook is not None:
                    span.update(hook(self, result, args))
                return result
            except BaseException as exc:
                span.setdefault("end", time.perf_counter())
                span["error"] = type(exc).__name__
                raise
            finally:
                self.stack.pop()
                self.spans.append(span)
        return wrapper

    def begin_op(self, op: int) -> None:
        self.op = op
        self.seen = {}

    def new_array_bytes(self, obj) -> int:
        """nbytes of arrays reachable from obj and not yet seen in this operation."""
        total = 0
        todo = [obj]
        while todo:
            item = todo.pop()
            if isinstance(item, np.ndarray):
                if id(item) not in self.seen:
                    self.seen[id(item)] = item
                    total += item.nbytes
            elif dataclasses.is_dataclass(item) and not isinstance(item, type):
                todo += [getattr(item, f.name) for f in dataclasses.fields(item)]
            elif isinstance(item, (tuple, list)):
                todo += item
            elif isinstance(item, dict):
                todo += item.values()
        return total


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; record the span names of those that do not."""
    aliases = [importlib.import_module(name) for name in ALIAS_MODULES]
    for layer, module, path, hook in TARGETS:
        *outer, attr = path.split(".")
        name = f"{layer}.{attr}"
        try:
            owner = importlib.import_module(module)
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            tracer.absent.append(name)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(tracer.wrap(name, raw.__func__, hook)))
            continue
        if not callable(raw):
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, raw, hook)
        setattr(owner, attr, wrapped)
        for alias in aliases:
            for key, value in list(vars(alias).items()):
                if value is raw:
                    setattr(alias, key, wrapped)


def _covered(start: float, end: float, children: list[dict]) -> float:
    """Length of [start, end] covered by the union of the children's intervals."""
    covered, reach = 0.0, start
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_metrics(tracer: Tracer, ops: int) -> tuple[dict[str, float], list[str]]:
    """Per-operation value of every per-layer metric, and the metrics absent."""
    by_name: dict[str, list[dict]] = {}
    children: dict[str, list[dict]] = {}
    for span in tracer.spans:
        if span["op"] is None:
            continue
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    values, absent = {}, []
    for metric, (kind, names) in METRICS.items():
        if all(name in tracer.absent for name in names):
            absent.append(metric)
        spans = [s for name in names for s in by_name.get(name, [])]
        if kind == "time":
            total = sum(s["end"] - s["start"] for s in spans)
        elif kind == "self":
            total = sum(s["end"] - s["start"]
                        - _covered(s["start"], s["end"], children.get(s["id"], []))
                        for s in spans)
        elif kind in ("bytes", "nnz"):
            total = sum(s.get(kind, 0) for s in spans)
        elif kind == "ok":
            total = sum("error" not in s for s in spans)
        elif kind == "errors":
            total = sum("error" in s for s in spans)
        else:  # yield: built / attempted, not per operation
            values[metric] = sum("error" not in s for s in spans) / len(spans) if spans else 0.0
            continue
        values[metric] = total / ops
    return values, absent
