"""Byte-for-byte stdout goldens for the CLI.

The ``lattice-*`` files were written by the sweep-based ``analyze`` and
scan-based covers that preceded the cover-based analysis; they pin the
report text, the JSON document, the first witnesses and the DOT edges.

The support goldens (``space``, ``spectrum``, ``compare``, ``generate``,
``check`` and ``map``) were written by the code in which the prime spectrum
was still a type of its own and the comparison map went through the general
universal morphism; ``exit-status.json`` holds the exit status of each.
``generate-an4.json`` is both the ``generate`` golden and the valid datum fed
to ``check`` and ``map``; ``an4-datum-invalid.json`` moves one support and
``an4-morphism-mutated.json`` sends ``x0`` to the image of ``x3``.
"""

import json
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


SUPPORT_SOURCES = {
    "a2": ["--builtin", "a2"],
    "point": ["--builtin", "point"],
    "an3": ["--builtin", "an:3"],
    "an4": ["--builtin", "an:4"],
    "product2": ["--builtin", "product:2"],
    "product3": ["--builtin", "product:3"],
}
SUPPORT_FORMATS = {"txt": [], "json": ["--json"]}
AN4 = ["--builtin", "an:4"]
DATA = {
    "valid": ["--datum", str(GOLDEN / "generate-an4.json")],
    "invalid": ["--datum", str(GOLDEN / "an4-datum-invalid.json")],
}
MUTATED = ["--morphism", str(GOLDEN / "an4-morphism-mutated.json")]


def _support_cases():
    cases = {"generate-an4.json": ["generate", *AN4, "--seed", "3", "--points", "5"]}
    for fmt, flags in SUPPORT_FORMATS.items():
        for command in ("space", "spectrum", "compare"):
            for name, source in SUPPORT_SOURCES.items():
                cases[f"{command}-{name}.{fmt}"] = [command, *source, *flags]
        for kind, datum in DATA.items():
            cases[f"check-an4-{kind}.{fmt}"] = ["check", *AN4, *datum, *flags]
            cases[f"map-an4-{kind}.{fmt}"] = ["map", *AN4, *datum, *flags]
        cases[f"map-an4-mutated.{fmt}"] = ["map", *AN4, *DATA["valid"], *MUTATED, *flags]
    return cases


SUPPORT_CASES = _support_cases()
EXIT_STATUS = json.loads((GOLDEN / "exit-status.json").read_text())


def test_support_goldens_cover_every_recorded_status():
    assert sorted(SUPPORT_CASES) == sorted(EXIT_STATUS)


@pytest.mark.parametrize("golden", sorted(SUPPORT_CASES))
def test_support_stdout_and_status_match_golden(capsysbinary, golden):
    status = main(SUPPORT_CASES[golden])
    out = capsysbinary.readouterr().out
    assert (status, out) == (EXIT_STATUS[golden], (GOLDEN / golden).read_bytes())
