"""CLI outputs on the example schemes, byte for byte.

``tests/data/golden/`` holds the stdout of each command below in
``<name>`` and its stderr in ``<name>.stderr``; every command exits 0.  A
change that moves any of them must update the file and say which lines
moved and by how much.  To regenerate one, from the root of a checkout:

    PYTHONPATH=src python -m schemeflow.cli <argv...> \
        > tests/data/golden/<name> 2> tests/data/golden/<name>.stderr
"""

import os

import pytest

from schemeflow.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")
SQUARE = os.path.join(ROOT, "schemes", "square_rotation.json")
LINE = os.path.join(ROOT, "schemes", "thickened_line.json")
SPHERE = os.path.join(ROOT, "schemes", "sphere_rotation.json")

CASES = {
    "domain_square_rotation.csv": ["domain", "--scheme", SQUARE, "--grid", "5"],
    "domain_thickened_line.csv": ["domain", "--scheme", LINE, "--grid", "5"],
    "curve_square_rotation.csv": ["curve", "--scheme", SQUARE, "--point", "0.5,0.1"],
    "curve_square_corner.csv": ["curve", "--scheme", SQUARE, "--point", "1,1"],  # a singleton
    "curve_thickened_line.csv": ["curve", "--scheme", LINE, "--point", "0.5,1e-5"],
    "flow_thickened_line.txt": ["flow", "--scheme", LINE, "--point", "0.5,1e-5", "--time", "1.0"],
    "check_square_rotation.txt": ["check", "--scheme", SQUARE],
    "check_thickened_line.txt": ["check", "--scheme", LINE],
    "groupoid_sphere_rotation.txt": [
        "groupoid", "--scheme", SPHERE, "--samples", "3", "--seed", "5",
    ],
    # 100 arrows read sample points past several of the sampler's polish chunks
    "groupoid_sphere_rotation_100.txt": [
        "groupoid", "--scheme", SPHERE, "--samples", "100", "--seed", "1",
    ],
    "groupoid_thickened_line.txt": [
        "groupoid", "--scheme", LINE, "--samples", "20", "--seed", "7", "--box=-3:3,-1:1",
    ],
    "validate_thickened_line.txt": ["validate", "--scheme", LINE],
    "validate_sphere_rotation.txt": ["validate", "--scheme", SPHERE],
}


def _first_difference(path: str, got: bytes, want: bytes) -> str:
    """The file, the first line where ``got`` and ``want`` differ, and both
    lines; a line only one of them has shows as <none>."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    n = next(
        (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
        min(len(got_lines), len(want_lines)),
    )

    def line(lines):
        return repr(lines[n]) if n < len(lines) else "<none>"

    return f"{path}, line {n + 1}:\n  golden: {line(want_lines)}\n  output: {line(got_lines)}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_is_byte_identical(name, capsys):
    """Stdout, stderr and the exit code."""
    assert main(CASES[name]) == 0
    captured = capsys.readouterr()
    for text, path in ((captured.out, name), (captured.err, name + ".stderr")):
        with open(os.path.join(GOLDEN, path), "rb") as fh:
            want = fh.read()
        got = text.encode("utf-8")
        if got != want:
            pytest.fail(_first_difference(path, got, want), pytrace=False)
