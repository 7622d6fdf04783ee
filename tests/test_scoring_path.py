"""Every report entry is made in one loop, ``wkalg.Scoring.entries``.

Each check returns records, a residual and its columns by entry name, or
the exception of an identity that has no residual.  The loop reads each
identity's statement and tier from the one table ``report.IDENTITIES``
and makes its entry: a scored one through ``Scoring.entry``, the only
builder of a ``ReportEntry``, a construction failure through
``ReportEntry.failure``.  No function of the package takes its own
tolerance: the tiers derive from the one tolerance of the run's
``Scoring``.  A report's entries come in the order of the table.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import fsusy
from fsusy.fock import StructureSpec
from fsusy.report import IDENTITIES
from fsusy.suite import RunConfig, run_verification_suite

SOURCES = sorted(Path(fsusy.__file__).parent.glob("*.py"))

# each way of making an entry, and the one function allowed to use it
MAKERS = {
    "ReportEntry": "Scoring.entry",
    "ReportEntry.failure": "Scoring.entries",
    ".entry": "Scoring.entries",
}


class _Scan(ast.NodeVisitor):
    def __init__(self):
        self.scope: list[str] = []
        self.builders: list[str] = []
        self.parameters: list[str] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = _enter

    def visit_FunctionDef(self, node):
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in ("tolerance", "strict"):
                self.parameters.append(f"{'.'.join(self.scope + [node.name])}({arg.arg})")
        self._enter(node)

    def visit_Call(self, node):
        func, maker = node.func, None
        if isinstance(func, ast.Name) and func.id == "ReportEntry":
            maker = "ReportEntry"
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "ReportEntry":
                maker = f"ReportEntry.{func.attr}"
            elif func.attr == "entry":
                maker = ".entry"
        if maker is not None and MAKERS.get(maker) != ".".join(self.scope[-2:]):
            self.builders.append(f"{'.'.join(self.scope)} line {node.lineno}")
        self.generic_visit(node)


def scan(text):
    found = _Scan()
    found.visit(ast.parse(text))
    return found


def test_the_guard_flags_entries_and_tolerances_outside_the_helper():
    found = scan(
        "class Scoring:\n"
        "    def entries(self, records):\n"
        "        return [ReportEntry.failure('a', 'b', 'c'), self.entry('a')]\n"
        "    def entry(self, name):\n"
        "        return ReportEntry(name, 0.0)\n"
        "def check(op, scoring, tolerance=1e-10, *, strict=1e-12):\n"
        "    ReportEntry.failure('a', 'b', 'c')\n"
        "    scoring.entry('a', 'b', 0.0, 'exact', None)\n"
        "    return ReportEntry.check('a', 'b', 0.0, tolerance, 'full space')\n"
    )
    assert found.builders == ["check line 7", "check line 8", "check line 9"]
    assert found.parameters == ["check(tolerance)", "check(strict)"]


def test_only_the_scoring_helper_builds_scored_entries():
    builders = {p.name: scan(p.read_text(encoding="utf-8")).builders for p in SOURCES}
    assert {name: found for name, found in builders.items() if found} == {}


def test_no_function_takes_its_own_tolerance():
    parameters = {p.name: scan(p.read_text(encoding="utf-8")).parameters for p in SOURCES}
    assert {name: found for name, found in parameters.items() if found} == {}


def test_every_statement_is_written_once():
    constants = Counter(node.value for p in SOURCES
                        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                        if isinstance(node, ast.Constant) and isinstance(node.value, str))
    statements = {statement for _, statement in IDENTITIES.values()}
    assert {statement: constants[statement] for statement in statements
            if constants[statement] != 1} == {}


def expanded(k):
    """The table's entry names at order k: its replica{s} rows, which stand
    together, once for each s = 2 .. k in turn."""
    names = list(IDENTITIES)
    rows = [name for name in names if name.startswith("replica{s}.")]
    first = names.index(rows[0])
    assert names[first:first + len(rows)] == rows
    return (names[:first] + [row.format(s=s) for s in range(2, k + 1) for row in rows]
            + names[first + len(rows):])


GRID = {
    "constant_unit": lambda k: StructureSpec.constant_values(k, 1.0),
    "affine_flat": lambda k: StructureSpec.affine_family(k, 0.0, 1.0),
    "affine_rising": lambda k: StructureSpec.affine_family(k, 0.5, 1.0),
    "affine_falling": lambda k: StructureSpec.affine_family(k, -0.1, 2.0),
}
RUNS = {
    # the acceptance grid, with the refused replicas of k = 4 falling and k = 5
    **{f"k={k} {label}": (k, 40, k, family(k)) for k in range(2, 6)
       for label, family in GRID.items()},
    "construction.window": (3, 12, 10, StructureSpec.affine_family(3, -0.5, 1.0)),
    "construction.representation": (3, 40, 3, StructureSpec.affine_family(3, 2e305, 1.0)),
}


@pytest.fixture(scope="module")
def reports():
    return {label: run_verification_suite(RunConfig(k=k, d=d, spec=spec, margin=margin))
            for label, (k, d, margin, spec) in RUNS.items()}


@pytest.mark.parametrize("label", list(RUNS))
def test_entries_come_in_the_order_of_the_table(reports, label):
    names = [e.name for e in reports[label].entries]
    table = iter(expanded(RUNS[label][0]))
    # each name is found in what is left of the table after the one before
    assert all(name in table for name in names), names
    if label.startswith("construction"):
        assert label in names


def test_the_runs_hold_every_identity_of_the_table(reports):
    held = {name if not name.startswith("replica") else "replica{s}." + name.split(".")[1]
            for report in reports.values() for name in (e.name for e in report.entries)}
    assert held == set(IDENTITIES)
