"""Every scored report entry is made in one place, ``wkalg.Scoring.entry``.

A check builds its entry there from a residual, a tier and a column set;
only construction failures (``ReportEntry.failure``) are made elsewhere.
No function of the package takes its own tolerance: the tiers derive from
the one tolerance of the run's ``Scoring``.
"""

import ast
from pathlib import Path

import fsusy

SOURCES = sorted(Path(fsusy.__file__).parent.glob("*.py"))


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
        func = node.func
        direct = isinstance(func, ast.Name) and func.id == "ReportEntry"
        method = (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == "ReportEntry" and func.attr != "failure")
        if (direct or method) and self.scope[-2:] != ["Scoring", "entry"]:
            self.builders.append(f"{'.'.join(self.scope)} line {node.lineno}")
        self.generic_visit(node)


def scan(text):
    found = _Scan()
    found.visit(ast.parse(text))
    return found


def test_the_guard_flags_entries_and_tolerances_outside_the_helper():
    found = scan(
        "class Scoring:\n"
        "    def entry(self, name):\n"
        "        return ReportEntry(name, 0.0)\n"
        "def check(op, tolerance=1e-10, *, strict=1e-12):\n"
        "    ReportEntry.failure('a', 'b', 'c')\n"
        "    return ReportEntry.check('a', 'b', 0.0, tolerance, 'full space')\n"
    )
    assert found.builders == ["check line 6"]
    assert found.parameters == ["check(tolerance)", "check(strict)"]


def test_only_the_scoring_helper_builds_scored_entries():
    builders = {p.name: scan(p.read_text(encoding="utf-8")).builders for p in SOURCES}
    assert {name: found for name, found in builders.items() if found} == {}


def test_no_function_takes_its_own_tolerance():
    parameters = {p.name: scan(p.read_text(encoding="utf-8")).parameters for p in SOURCES}
    assert {name: found for name, found in parameters.items() if found} == {}
