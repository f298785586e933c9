"""Byte identity of every CLI output as a checked artifact.

``tools/output_digest.py`` lists the SHA-256 of every file each mode writes
over a fixed matrix of inputs, seeds and thread counts.  The listing of the
committed tree is ``tests/data/output_digest.txt``; this test regenerates it
and compares every line.  Its header names the numpy version and the
platform it was made on: where either differs here, the test skips as a
whole, naming both, and never drops the individual lines that differ.
"""
import difflib
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "output_digest.txt"


def test_cli_outputs_match_golden_digest():
    # run_path compiles the tool in memory: nothing is written beside it
    tool = runpy.run_path(str(ROOT / "tools" / "output_digest.py"))
    lines = GOLDEN.read_text().splitlines()
    recorded = [line for line in lines if line.startswith("#")]
    here = tool["header"]()
    if recorded != here:
        pytest.skip(f"golden digest made with {recorded}, this host has {here}")
    expected = [line for line in lines if not line.startswith("#")]
    actual = list(tool["listing"]())
    diff = list(difflib.unified_diff(expected, actual, "golden", "this tree", lineterm=""))
    assert not diff, "\n".join(diff)
