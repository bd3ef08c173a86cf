"""Byte-for-byte stdout goldens for the CLI.

Each CLI run pinned here is one case of ``golden/cases.json``: its argv, its
exit status and its stdout, as the golden file of the case's name or as the
(bytes, sha256) of an output too large to check in. ``tests/run_cases.py``
runs the same list through the installed console script.

The ``lattice-*`` files were written by the sweep-based ``analyze`` and
scan-based covers that preceded the cover-based analysis; they pin the
report text, the JSON document, the first witnesses and the DOT edges.

The support goldens (``space``, ``spectrum``, ``compare``, ``generate``,
``check`` and ``map``) were written by the code in which the prime spectrum
was still a type of its own and the comparison map went through the general
universal morphism.
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
subsets, 50 in all. With 10 names and 6 triangles it fits the truth table,
so its subsets are read off the table, not walked per block.
``an6-free.presentation.json`` is an:6's names and triangles beside a free
name ``F``: 22 names in 2 blocks, past the table bound, so its ``lattice``
cases walk each block with FCbO, stream the unions, and check the blocks'
count of 1754 against ``--max-size`` before listing any. Its cases and
the ``product22`` guard case hold what commit 03b7606 writes.

The ``tensor-triangles`` goldens were written by commit 459a8ee, whose
ideal closure took absorption as a mask per element beside the triangle
rules. Their input has idempotents e1, e2 and e3, two blocks a*b = b, and
triangles across the blocks, one of them degenerate and forcing ``b2``: the
only goldens whose ideal closures fire both triangle and absorption rules.
``tensor-repeats.presentation.json`` is the same input with repeats in the
cells a1*b1 and b1*a1 and in the unit. Cells and the unit are read as sets
of components, so its ``spectrum`` and ``compare`` cases hold the digests of
the ``tensor-triangles`` goldens.

``an4-morphism-bad-keys.err`` is the error ``map`` writes for a morphism
document with a key it does not allow, with the invalid datum: the morphism
is checked before the datum's verdict. At commit 1c5e71b the same run
exited 1 with ``verdict: invalid``.

``sparse104.presentation.json`` is ``bench/gen.py``'s
``sparse_presentation(104)``: 19 indecomposables and 13 triangles of 1-2
components, whose 32,423 thick subsets are read off the truth table of
their rules. The ``enumerate-sparse104.json`` case holds the digest of
its ``enumerate --json`` as written by commit f7a7b89, which walked every
presentation with FCbO; an:6 and an:8 stay past the table bound.

The ``space-an8.txt`` digest was written when every support was listed by
a loop taking one low bit per step. The ``enumerate-an8.json`` digest was
written by commit 29dc09d, whose CLI rendered every JSON document with
``json.dumps(indent=2, sort_keys=True)``.

The digests of the other outputs that are not checked in (``an6`` and
``an5`` space, ``product8`` spectrum) were written by commit d124f29, which
still sorted by ``canonical_key`` and picked and labelled one subset at a
time; the ``an6`` space and DOT outputs were recorded from commit 07c9b47,
which still walked every subset's mask digits to join its names. The
``product13``, ``product20`` and ``product40`` ``compare`` and the
``product40`` ``spectrum`` digests were recorded at commit 83481a1, where
the checks on them were lines of the CI workflow.

``random17.presentation.json`` is conftest's ``random_presentation(17)``:
9 indecomposables, 85 elements, and neither law holds.

Each case with an ``.err`` golden named after its error (``no-source``,
``builtin-unknown``, ``seed-negative`` and the like) runs one error path of
the CLI, the builtins or the document parsers that no other case reaches;
they were recorded at commit bc04336. ``not-utf8.presentation.json`` is a
presentation written in Latin-1, ``a2-datum-closed-not-list.json`` gives
its closed sets as an object, and ``a2-morphism-bad-target.json`` sends a
point to ``{Q}``, which is no point of a2's space. The case
``lattice-a2-dot-devnull`` draws to ``/dev/null`` and prints the bytes of
``lattice-a2.txt``; it is named so that no ``.dot`` case is looked for.
"""

import argparse
import functools
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import thicklat.bitsets
import thicklat.cli
from run_cases import GOLDEN, ROOT, load_cases, mismatch
from thicklat.cli import _load_presentation, _parser, build_parser, main
from thicklat.presentation import Presentation

CASES = load_cases()


def run_case(capsysbinary, case, *extra):
    """``mismatch`` of one in-process run of ``case``, its argv followed by ``extra``."""
    status = main([*case["argv"], *extra])
    return mismatch(case, status, *capsysbinary.readouterr())


@pytest.fixture
def at_root(monkeypatch):
    # case argv names its input documents relative to the repository root
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", CASES)
def test_case_matches_golden(capsysbinary, at_root, name):
    assert run_case(capsysbinary, CASES[name]) is None


# files no case runs, each with its reason
NOT_RUN = {
    "cases.json": "the list of cases itself",
    "parser-contract.json": "the parser's options as data, for test_parser_contract_matches_golden",
}


def test_every_golden_file_belongs_to_a_case():
    files = {path.name for path in GOLDEN.iterdir()}
    stdout = {name for name, case in CASES.items() if "stdout" not in case}
    digests = {name for name, case in CASES.items() if "stdout" in case}
    stderr = {case["stderr"] for case in CASES.values() if "stderr" in case}
    inputs = {Path(arg).name for case in CASES.values() for arg in case["argv"]
              if arg.startswith("tests/golden/")}
    # a digest case named after a checked-in file would leave that file unread
    assert digests & files == set()
    assert sorted(files) == sorted(stdout | stderr | inputs | set(NOT_RUN))


# the lattice reports, each with its DOT drawn to a file
REPORTS = sorted(name[len("lattice-"):-len(".txt")] for name in CASES
                 if name.startswith("lattice-") and name.endswith(".txt"))


@pytest.mark.parametrize("name", REPORTS)
def test_lattice_dot_file_matches_golden(capsysbinary, at_root, tmp_path, name):
    # the file holds what the case of the same DOT on stdout records
    target = tmp_path / f"{name}.gv"
    assert run_case(capsysbinary, CASES[f"lattice-{name}.txt"], "--dot", str(target)) is None
    assert mismatch(CASES[f"lattice-{name}.dot"], 0, target.read_bytes(), b"") is None


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


# Work gate: the subsets are sorted and written with no Python call per
# subset, on these cases' outputs.
BULK_CASES = ["enumerate-an5.txt", "enumerate-an6.json", "lattice-an5.dot", "lattice-an6.dot",
              "space-an5.json", "space-an6.json", "spectrum-product8.json"]
# an:6's 877 subsets are past ``bitsets.joins``' 256-row threshold: their rows
# and labels are looked up in name tables, with no walk over a mask's digits
TABLE_CASES = {"enumerate-an6.json", "space-an6.json", "lattice-an6.dot"}


@pytest.mark.parametrize("name", BULK_CASES)
def test_subsets_are_sorted_and_written_with_no_call_per_subset(capsysbinary, monkeypatch, name):
    case = CASES[name]
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
    size = _load_presentation(_parser().parse_args(case["argv"])).size
    assert run_case(capsysbinary, case) is None
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
