"""Byte-for-byte stdout goldens for ``thicklat lattice``.

The files under ``golden/`` were written by the sweep-based ``analyze`` and
scan-based covers that preceded the cover-based analysis; they pin the
report text, the JSON document, the first witnesses and the DOT edges.
"""

from pathlib import Path

import pytest

from thicklat.cli import main

GOLDEN = Path(__file__).parent / "golden"
SOURCES = {
    "a2": ["--builtin", "a2"],
    "point": ["--builtin", "point"],
    "an3": ["--builtin", "an:3"],
    "an4": ["--builtin", "an:4"],
    "an5": ["--builtin", "an:5"],
    "product5": ["--builtin", "product:5"],
    # random_presentation(17) from conftest: 9 indecomposables, 85 elements,
    # neither law holds
    "random17": ["--input", str(GOLDEN / "random17.presentation.json")],
}
FORMATS = {"txt": [], "json": ["--json"], "dot": ["--dot", "-"]}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_lattice_stdout_matches_golden(capsysbinary, name, fmt):
    assert main(["lattice", *SOURCES[name], *FORMATS[fmt]]) == 0
    out = capsysbinary.readouterr().out
    assert out == (GOLDEN / f"lattice-{name}.{fmt}").read_bytes()
