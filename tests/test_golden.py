"""Byte-for-byte stdout goldens for the CLI.

The ``lattice-*`` files were written by the sweep-based ``analyze`` and
scan-based covers that preceded the cover-based analysis; they pin the
report text, the JSON document, the first witnesses and the DOT edges.

The support goldens (``space``, ``spectrum``, ``compare``, ``generate``,
``check`` and ``map``) were written by the code in which the prime spectrum
was still a type of its own and the comparison map went through the general
universal morphism; ``exit-status.json`` holds the exit status of each.
The ``unit-empty`` goldens, the only ``spectrum`` run that exits 1, were
written by commit fdcf5ca, whose ``spectrum`` still re-ran the base axiom
checks and a product loop on every spectrum.
The ``map`` goldens were written when ``map`` built the whole universal space
to name each image.
``generate-an4.json`` is both the ``generate`` golden and the valid datum fed
to ``check`` and ``map``; ``an4-datum-invalid.json`` moves one support and
``an4-morphism-mutated.json`` sends ``x0`` to the image of ``x3``.
The ``check-a2-unclosed`` goldens, the only ``check`` run whose supports are
not closed, were written by commit 65d5d36, whose universal support space
was a type of its own beside ``SupportDatum``.

The ``enumerate-*`` goldens and ``parser-contract.json`` were written by the
CLI whose handlers each loaded the presentation and rendered their own
output, before the handlers were reduced to one load-compute-render
pipeline. The contract's ``--max-size`` help was re-recorded when the size
guard came to cover ``lattice --dot -`` as well.

``labels-clash.err`` is the error every subcommand writes for the names
``a``, ``b`` and ``a,b``, whose labels parsing now rejects as ambiguous; at
commit f19e732 the same input exited 0, and ``space`` and ``enumerate``
printed ``{a,b}`` twice.

``names-line-break.err`` is the error for a name holding a newline, which
would print as two lines where the text outputs print one per subset; at
commit edf81d8 ``enumerate`` printed that input's 8 subsets as 12 lines.
``point-arrow.err`` is the error ``check`` and ``map`` write for a datum
whose point ``x -> {P2}`` holds the arrow that ``map`` prints after each
point; at commit 10020bd ``map`` exited 0 and its first line read as the
point ``x`` mapped to ``{P2} -> {P1,P2,S2}``.

The ``blocks`` goldens were written by commit e782be7, which enumerated
every presentation with one FCbO over all of its elements. Their input puts
an:3's triangles on names interleaved with a2's, a free name ``F`` and a
degenerate triangle that forces ``[0,3]``: three blocks of 5, 5 and 2 thick
subsets, whose 50 unions are now streamed with no closure each.

The ``tensor-triangles`` goldens were written by commit 459a8ee, whose
ideal closure took absorption as a mask per element beside the triangle
rules. Their input has idempotents e1, e2 and e3, two blocks a*b = b, and
triangles across the blocks, one of them degenerate and forcing ``b2``: the
only goldens whose ideal closures fire both triangle and absorption rules.

``sparse104.presentation.json`` is ``bench/gen.py``'s
``sparse_presentation(104)``: 19 indecomposables and 13 triangles of 1-2
components, whose 32,423 thick subsets are read off the truth table of
their rules. ``ENUMERATE_SPARSE104_JSON`` is the digest of its
``enumerate --json`` as written by commit f7a7b89, which walked every
presentation with FCbO; an:6 and an:8 stay past the table bound.

``SPACE_AN8`` is the digest of ``space --builtin an:8`` as written when every
support was listed by a loop taking one low bit per step; the 27 MB text
itself is not checked in. ``ENUMERATE_AN8_JSON`` is the digest of
``enumerate --builtin an:8 --json`` as written by commit 29dc09d, whose CLI
rendered every JSON document with ``json.dumps(indent=2, sort_keys=True)``.
"""

import argparse
import functools
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import thicklat.bitsets
import thicklat.cli
from thicklat.cli import _load_presentation, _parser, build_parser, main
from thicklat.presentation import Presentation

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


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_lattice_dot_file_matches_golden(capsysbinary, tmp_path, name):
    target = tmp_path / f"{name}.gv"
    assert main(["lattice", *SOURCES[name], "--dot", str(target)]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / f"lattice-{name}.txt").read_bytes()
    assert target.read_bytes() == (GOLDEN / f"lattice-{name}.dot").read_bytes()


SUPPORT_SOURCES = {
    "a2": ["--builtin", "a2"],
    "point": ["--builtin", "point"],
    "an3": ["--builtin", "an:3"],
    "an4": ["--builtin", "an:4"],
    "product2": ["--builtin", "product:2"],
    "product3": ["--builtin", "product:3"],
    # a tensor table whose unit is zero: the unit check fails, so `spectrum`
    # exits 1
    "unit-empty": ["--input", str(GOLDEN / "unit-empty.presentation.json")],
}
SUPPORT_FORMATS = {"txt": [], "json": ["--json"]}
AN4 = ["--builtin", "an:4"]
DATA = {
    "valid": ["--datum", str(GOLDEN / "generate-an4.json")],
    "invalid": ["--datum", str(GOLDEN / "an4-datum-invalid.json")],
}
MUTATED = ["--morphism", str(GOLDEN / "an4-morphism-mutated.json")]
# an a2 datum with no closed set but the empty and the full one: the supports
# of P1 and P2 are not closed, and the triangles hold
UNCLOSED = ["--datum", str(GOLDEN / "a2-datum-unclosed.json")]


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
        cases[f"check-a2-unclosed.{fmt}"] = ["check", "--builtin", "a2", *UNCLOSED, *flags]
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


@pytest.mark.parametrize("fmt", sorted(SUPPORT_FORMATS))
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_enumerate_stdout_matches_golden(capsysbinary, name, fmt):
    assert main(["enumerate", *SOURCES[name], *SUPPORT_FORMATS[fmt]]) == 0
    out = capsysbinary.readouterr().out
    assert out == (GOLDEN / f"enumerate-{name}.{fmt}").read_bytes()


BLOCKS = ["--input", str(GOLDEN / "blocks.presentation.json")]
BLOCK_CASES = {
    "enumerate-blocks.txt": ["enumerate", *BLOCKS],
    "enumerate-blocks.json": ["enumerate", *BLOCKS, "--json"],
    "space-blocks.json": ["space", *BLOCKS, "--json"],
    "lattice-blocks.json": ["lattice", *BLOCKS, "--json"],
}


@pytest.mark.parametrize("golden", sorted(BLOCK_CASES))
def test_block_product_stdout_matches_golden(capsysbinary, golden):
    assert main(BLOCK_CASES[golden]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / golden).read_bytes()


TENSOR_TRIANGLES = ["--input", str(GOLDEN / "tensor-triangles.presentation.json")]
TENSOR_TRIANGLE_CASES = {
    f"{command}-tensor-triangles.{fmt}": [command, *TENSOR_TRIANGLES, *flags]
    for command in ("spectrum", "compare") for fmt, flags in SUPPORT_FORMATS.items()}


@pytest.mark.parametrize("golden", sorted(TENSOR_TRIANGLE_CASES))
def test_ideal_closure_with_both_rule_kinds_matches_golden(capsysbinary, golden):
    assert main(TENSOR_TRIANGLE_CASES[golden]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / golden).read_bytes()


CLASH = ["--input", str(GOLDEN / "labels-clash.presentation.json")]


@pytest.mark.parametrize("command", ["enumerate", "lattice", "space"])
def test_clashing_labels_are_rejected_as_recorded(capsys, command):
    status = main([command, *CLASH])
    captured = capsys.readouterr()
    assert (status, captured.out) == (2, "")
    assert captured.err == (GOLDEN / "labels-clash.err").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["enumerate", "lattice", "space"])
def test_line_break_names_are_rejected_as_recorded(capsys, command):
    status = main([command, "--input", str(GOLDEN / "names-line-break.presentation.json")])
    captured = capsys.readouterr()
    assert (status, captured.out) == (2, "")
    assert captured.err == (GOLDEN / "names-line-break.err").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["check", "map"])
def test_point_names_holding_the_map_arrow_are_rejected_as_recorded(capsys, command):
    status = main([command, "--builtin", "a2",
                   "--datum", str(GOLDEN / "point-arrow.datum.json")])
    captured = capsys.readouterr()
    assert (status, captured.out) == (2, "")
    assert captured.err == (GOLDEN / "point-arrow.err").read_text(encoding="utf-8")


def parser_contract() -> dict:
    """The subcommands in order, each with its help and, per option, what
    argparse does with it."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        "dest": sub.dest,
        "required": sub.required,
        "commands": [
            {
                "name": name,
                "help": helps[name],
                "options": [
                    {"strings": a.option_strings, "dest": a.dest, "default": a.default,
                     "required": a.required, "nargs": a.nargs, "const": a.const,
                     "type": a.type and a.type.__name__, "metavar": a.metavar,
                     "help": a.help}
                    for a in p._actions if not isinstance(a, argparse._HelpAction)
                ],
            }
            for name, p in sub.choices.items()
        ],
    }


def test_parser_contract_matches_golden():
    # recorded from the parser that added the common options to each
    # subcommand one by one; compared as data, not as --help text, because
    # argparse's help layout differs between Python versions
    recorded = json.loads((GOLDEN / "parser-contract.json").read_text())
    assert json.loads(json.dumps(parser_contract())) == recorded


# (bytes, sha256) of the 36 supports over an:8's 21,147 points
SPACE_AN8 = (27_442_017, "7aed45d1ad6b5d5759e069343b7119a196f8771682ff812865aea8b347cd1ca6")


def test_space_an8_stdout_matches_recorded_digest(capsysbinary):
    assert main(["space", "--builtin", "an:8"]) == 0
    out = capsysbinary.readouterr().out
    assert (len(out), hashlib.sha256(out).hexdigest()) == SPACE_AN8


# (bytes, sha256) of the 21,147 thick subsets of an:8 as a JSON document
ENUMERATE_AN8_JSON = (
    2_489_406, "cd13315fe871e0ee930c06c7d53ece4b7bf056f9b1e4edf58c9dc8d08983b474")


def test_enumerate_an8_json_stdout_matches_recorded_digest(capsysbinary):
    assert main(["enumerate", "--builtin", "an:8", "--json"]) == 0
    out = capsysbinary.readouterr().out
    assert (len(out), hashlib.sha256(out).hexdigest()) == ENUMERATE_AN8_JSON


# (bytes, sha256) of the 32,423 thick subsets of sparse104 as a JSON document
ENUMERATE_SPARSE104_JSON = (
    3_031_263, "28ccb5a1f595e42d6f04077590ef7a6747bcfd115fe5c53c4cf7e97eea513c80")


def test_enumerate_sparse104_json_stdout_matches_recorded_digest(capsysbinary):
    assert main(["enumerate", "--input", str(GOLDEN / "sparse104.presentation.json"),
                 "--json"]) == 0
    out = capsysbinary.readouterr().out
    assert (len(out), hashlib.sha256(out).hexdigest()) == ENUMERATE_SPARSE104_JSON


# Work gate: the subsets are sorted and written with no Python call per
# subset. Each output is its golden, or where none is checked in, the
# (bytes, sha256) of the output as written by commit d124f29, which still
# sorted by ``canonical_key`` and picked and labelled one subset at a time;
# the ``an6`` space and DOT outputs were recorded from commit 07c9b47, which
# still walked every subset's mask digits to join its names.
BULK_CASES = {
    "enumerate-an6.json": (["enumerate", "--builtin", "an:6", "--json"], (
        74_509, "dcd96a2263819bbdd434ae5d017bf7980dfbb794ce17fddce51ec41073cc1417")),
    "enumerate-an5.txt": (["enumerate", "--builtin", "an:5"], None),
    "space-an5.json": (["space", "--builtin", "an:5", "--json"], (
        78_409, "fc99d84ea06aed5a919b85d28c6cd85267a6235c338a0fd03fb1074731dcebc3")),
    "space-an6.json": (["space", "--builtin", "an:6", "--json"], (
        570_184, "2c7c2a2ef6473248195c8df909ee4cfb0d80b310bbe20eb19345330cb1a6f82f")),
    "lattice-an5.dot": (["lattice", "--builtin", "an:5", "--dot"], None),
    "lattice-an6.dot": (["lattice", "--builtin", "an:6", "--dot"], (
        118_423, "c50ed31ec4f4f59fca7a42b4e7411455c2fc7b6a95ad8a1ab61cd97090201219")),
    "spectrum-product8.json": (["spectrum", "--builtin", "product:8", "--json"], (
        1_676, "4255d40cbabbc0ee22359b18f4ebe572642c57f4f83925c047e62b1c28988aa9")),
}
# an:6's 877 subsets are past ``bitsets.joins``' 256-row threshold: their rows
# and labels are looked up in name tables, with no walk over a mask's digits
TABLE_CASES = {"enumerate-an6.json", "space-an6.json", "lattice-an6.dot"}


@pytest.mark.parametrize("name", sorted(BULK_CASES))
def test_subsets_are_sorted_and_written_with_no_call_per_subset(capsysbinary, monkeypatch, name):
    argv, digest = BULK_CASES[name]
    calls = Counter()

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # canonical_key and picks are wrapped wherever a thicklat module holds them
    modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "thicklat"]
    for fn in (thicklat.bitsets.canonical_key, thicklat.bitsets.picks):
        for module in modules:
            for attr in [a for a, value in vars(module).items() if value is fn]:
                monkeypatch.setattr(module, attr, counted(fn.__name__, fn))
    monkeypatch.setattr(thicklat.cli, "pick", counted("pick", thicklat.cli.pick))
    monkeypatch.setattr(Presentation, "label", counted("label", Presentation.label))
    size = _load_presentation(_parser().parse_args(argv)).size
    assert main(argv) == 0
    out = capsysbinary.readouterr().out
    if digest is None:
        assert out == (GOLDEN / name).read_bytes()
    else:
        assert (len(out), hashlib.sha256(out).hexdigest()) == digest
    # one pick per single-mask list: the points and each support
    assert calls["canonical_key"] == calls["label"] == 0
    assert calls["pick"] <= size + 1
    # a short list's rows come from walks over their digits; past the threshold none do
    assert (calls["picks"] == 0) == (name in TABLE_CASES)


def test_reused_parser_carries_no_state(capsysbinary, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["lattice", "--bogus"])
    assert exc.value.code == 2
    capsysbinary.readouterr()
    # the parser is built at most once per process: main must not build another
    monkeypatch.setattr(thicklat.cli, "build_parser", None)
    assert main(["enumerate", "--builtin", "a2"]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "enumerate-a2.txt").read_bytes()
    assert main(["lattice", "--builtin", "a2", "--json"]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "lattice-a2.json").read_bytes()
