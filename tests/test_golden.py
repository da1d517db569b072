"""Every command line of the golden corpus prints its pinned bytes.

The corpus under ``tests/golden/`` holds each case's stdout, stderr and
exit code; ``tests/golden/regen.py`` lists the cases, writes their
inputs and rewrites the corpus after an intended change of output.
"""

from __future__ import annotations

import itertools
import re
import struct

import numpy as np
import pytest

from .golden import regen
from .oracles import su3_ring

_INDEX = regen.load_index()
_FLOAT = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?")


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    regen.write_inputs(str(root), su3_ring=su3_ring)
    return root


def _ordinal(x: float) -> int:
    """The double's position on a line of all doubles, so that
    neighbours differ by one."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def first_difference(want: str, got: str) -> str:
    """The first line that differs, and the distance in ulps of its
    first differing float, if it has one."""
    pairs = itertools.zip_longest(want.splitlines(True), got.splitlines(True))
    for no, (a, b) in enumerate(pairs, 1):
        if a != b:
            break
    else:
        return "equal lines"
    text = f"line {no}: expected {a!r}, got {b!r}"
    for x, y in zip(_FLOAT.findall(a or ""), _FLOAT.findall(b or "")):
        if x != y:
            ulps = abs(_ordinal(float(x)) - _ordinal(float(y)))
            return f"{text}; {x} and {y} are {ulps} ulps apart"
    return text


def test_first_difference_names_the_line_and_the_ulps():
    assert first_difference("a\nd = 1.5\n", "a\nd = 1.5\n") == "equal lines"
    one_ulp = repr(float(np.nextafter(1.5, 2.0)))
    msg = first_difference("a\nd = 1.5\n", f"a\nd = {one_ulp}\n")
    assert msg == f"line 2: expected 'd = 1.5\\n', got 'd = {one_ulp}\\n'; 1.5 and {one_ulp} are 1 ulps apart"
    assert first_difference("a\n", "a\nb\n") == "line 2: expected None, got 'b\\n'"
    assert first_difference("x", "x\n") == "line 1: expected 'x', got 'x\\n'"
    assert first_difference("-0.0", "0.0").endswith("are 0 ulps apart")


@pytest.mark.parametrize("name, argv", regen.CASES, ids=[name for name, _ in regen.CASES])
def test_command_prints_its_pinned_bytes(name, argv, inputs_dir, monkeypatch):
    want = _INDEX["cases"][name]
    assert want["argv"] == argv, "the case list and the corpus disagree; rerun regen.py"
    monkeypatch.chdir(inputs_dir)
    code, out, err = regen.run(argv)
    made = f" (corpus made with numpy {_INDEX['numpy']}, running {np.__version__})"
    assert code == want["code"], f"{name}: exit {code}, pinned {want['code']}{made}"
    assert err == want["stderr"], f"{name} stderr: {first_difference(want['stderr'], err)}{made}"
    expected = regen.expected_stdout(name)
    assert out == expected, f"{name} stdout: {first_difference(expected, out)}{made}"
