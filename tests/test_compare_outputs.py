"""tools/compare_outputs.py lists an output that differs only in the sign of
its zeros as one line, and still counts it as a difference."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def test_signed_zeros_alone_are_one_line():
    old = {"q2p.mtx": b"1 4 0.5 0.0\n2 5 1.0 0.0\n", "spectrum.csv": b"1,0,0.0,\n",
           "stdout": b"done\n"}
    new = {"q2p.mtx": b"1 4 0.5 -0.0\n2 5 1.0 -0.0\n", "spectrum.csv": b"1,0,-0.0,\n",
           "stdout": b"done\n"}
    assert compare_outputs.differences("run", old, new) == [
        "run | q2p.mtx: differs only in the sign of zeros",
        "run | spectrum.csv: differs only in the sign of zeros",
    ]


def test_other_differences_are_listed_by_line():
    old = {"X2p.mtx": b"1 4 0.5 -0.0\n", "report.json": b'"residual": 0.0,\n'}
    new = {"X2p.mtx": b"1 4 0.25 0.0\n", "report.json": b'"residual": 1e-17,\n'}
    found = compare_outputs.differences("run", old, new)
    assert found == [
        "run | X2p.mtx:\n    line 1: b'1 4 0.5 -0.0' != b'1 4 0.25 0.0'",
        "run | report.json:\n    line 1: b'\"residual\": 0.0,' != b'\"residual\": 1e-17,'",
    ]
