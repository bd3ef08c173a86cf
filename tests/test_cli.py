import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import cycle, islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    morphism_to_document,
    presentation_to_document,
    random_presentation,
    random_tensor_presentation,
)
from run_cases import GOLDEN, ROOT, load_cases, mismatch
from thicklat import lattice
from thicklat.bitsets import joins, pick
from thicklat.cli import CHUNK_ROWS, _json_chunks, _load_presentation, _parser, _Picks, main
from thicklat.closure import enumerate_thick
from thicklat.errors import SchemaError, ValidationError
from thicklat.presentation import (
    _decode_json,
    builtin,
    parse_presentation,
)
from thicklat.space import (
    build_sp,
    check_support_datum,
    datum_from_document,
    datum_to_document,
    morphism_from_document,
    random_support_datum,
    universal_morphism,
)
from thicklat.tensor import primes

CASES = load_cases()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_dot_file(capsys, tmp_path):
    target = tmp_path / "a2.gv"
    code, out, _ = run(capsys, "lattice", "--builtin", "a2", "--dot", str(target))
    assert code == 0
    assert "distributive: false" in out  # report still goes to stdout
    assert target.read_text().startswith("digraph")


def test_lattice_max_size_guard(capsys):
    code, _, err = run(capsys, "lattice", "--builtin", "a2", "--max-size", "3")
    assert code == 2
    assert "error" in err


def test_lattice_dot_file_waits_for_the_guard(capsys, tmp_path):
    target = tmp_path / "a2.gv"
    code, out, err = run(capsys, "lattice", "--builtin", "a2", "--dot", str(target),
                         "--max-size", "3")
    assert (code, out) == (2, "") and err.startswith("error:")
    assert not target.exists()
    # a lattice exactly at the guard still gets its report and its file
    code, out, _ = run(capsys, "lattice", "--builtin", "a2", "--dot", str(target),
                       "--max-size", "5")
    assert (code, out) == (0, (GOLDEN / "lattice-a2.txt").read_text(encoding="utf-8"))
    assert target.read_text(encoding="utf-8") == (GOLDEN / "lattice-a2.dot").read_text(
        encoding="utf-8")


def test_lattice_dot_stdout_waits_for_the_guard(capsys):
    # one guard and one message for the report, the DOT file and DOT on stdout
    message = "error: lattice has 5 elements, guard is 3\n"
    for dot in ([], ["--dot", "-"], ["--dot"]):
        assert run(capsys, "lattice", "--builtin", "a2", *dot, "--max-size", "3") == (
            2, "", message)
    code, out, _ = run(capsys, "lattice", "--builtin", "a2", "--dot", "-", "--max-size", "5")
    assert (code, out) == (0, (GOLDEN / "lattice-a2.dot").read_text(encoding="utf-8"))


def test_lattice_guard_runs_before_the_enumeration_where_the_count_is_free(
        capsys, monkeypatch, tmp_path):
    # product:22 is past the truth table, in 22 blocks: its 2^22 thick subsets
    # are counted from each block's count, and none of them is listed
    def unlisted(pres):
        raise AssertionError("enumerated")

    monkeypatch.setattr("thicklat.cli.enumerate_thick", unlisted)
    target = tmp_path / "p.gv"
    for dot in ([], ["--dot", "-"], ["--dot", str(target)]):
        assert run(capsys, "lattice", "--builtin", "product:22", *dot) == (
            2, "", "error: lattice has 4194304 elements, guard is 10000\n")
    assert not target.exists()


def test_lattice_counts_first_only_past_the_table_on_several_blocks(capsys, monkeypatch):
    blocks = ["--input", str(GOLDEN / "blocks.presentation.json")]
    golden = (GOLDEN / "lattice-blocks.json").read_text(encoding="utf-8")
    size = json.loads(golden)["size"]
    # within the table bound, or on one block, the count would cost a listing
    monkeypatch.setattr("thicklat.closure.count_thick", None)
    assert run(capsys, "lattice", *blocks, "--json")[:2] == (0, golden)
    assert run(capsys, "lattice", "--builtin", "an:6", "--json")[0] == 0
    monkeypatch.undo()
    # past it the blocks are counted first, and the guard holds at the same size
    monkeypatch.setattr("thicklat.closure.TABLE_BOUND", 0)
    assert run(capsys, "lattice", *blocks, "--json", "--max-size", str(size))[:2] == (0, golden)
    monkeypatch.setattr("thicklat.cli.enumerate_thick", None)
    assert run(capsys, "lattice", *blocks, "--max-size", str(size - 1)) == (
        2, "", f"error: lattice has {size} elements, guard is {size - 1}\n")


def test_lattice_dot_file_that_cannot_be_written_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "a2.gv"
    code, out, err = run(capsys, "lattice", "--builtin", "a2", "--dot", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}:") and err.count("\n") == 1


def test_lattice_dot_file_finds_the_covers_once(capsys, monkeypatch, tmp_path):
    # a work gate that does not depend on the wall clock: the file is drawn
    # from the covers that analyze found, so they are not found twice
    calls = 0
    original = lattice._upper_covers

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(lattice, "_upper_covers", counted)
    counts = []
    for dot in ([], ["--dot", str(tmp_path / "an5.gv")]):
        calls = 0
        assert run(capsys, "lattice", "--builtin", "an:5", *dot)[0] == 0
        counts.append(calls)
    assert counts == [1, 1]


def test_check_valid_datum(capsys, tmp_path):
    datum = {"points": ["u"], "sigma": {"P1": [], "P2": [], "S2": []}}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code, out, _ = run(capsys, "check", "--builtin", "a2", "--datum", str(path))
    assert code == 0
    assert "verdict: valid" in out


def test_check_invalid_datum(capsys, tmp_path):
    datum = {"points": ["pt"], "sigma": {"P1": ["pt"], "P2": [], "S2": []}}
    path = tmp_path / "bad_sd4.json"
    path.write_text(json.dumps(datum))
    code, out, _ = run(capsys, "check", "--builtin", "a2", "--datum", str(path))
    assert code == 1
    assert "triangles: 1 violation(s)" in out
    assert "rotation a vs b,c" in out
    assert "verdict: invalid" in out


def test_check_names_every_component_of_a_violated_triangle(capsys, tmp_path):
    # a sum vertex lists each component as often as it occurs; the zero object is 0
    pres = {"indecomposables": ["P", "Q"], "triangles": [[["P", "Q", "Q"], [], ["Q"]]]}
    datum = {"points": ["x"], "sigma": {"P": ["x"], "Q": []}}
    (tmp_path / "pres.json").write_text(json.dumps(pres))
    (tmp_path / "datum.json").write_text(json.dumps(datum))
    code, out, _ = run(capsys, "check", "--input", str(tmp_path / "pres.json"),
                       "--datum", str(tmp_path / "datum.json"))
    assert code == 1
    assert "  triangle 0 (P+Q+Q -> 0 -> Q), rotation a vs b,c: stray points x\n" in out


def test_check_schema_error_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "check", "--builtin", "a2", "--datum", str(path))
    assert code == 2
    assert "error" in err


def test_map_universal(capsys, tmp_path):
    datum_code, datum_out, _ = run(
        capsys, "generate", "--builtin", "a2", "--seed", "5", "--points", "3")
    assert datum_code == 0
    path = tmp_path / "datum.json"
    path.write_text(datum_out)
    code, out, _ = run(capsys, "map", "--builtin", "a2", "--datum", str(path))
    assert code == 0
    assert "pullback: ok" in out
    assert "continuity: ok" in out
    assert "verdict: valid" in out
    assert out.count(" -> ") == 3


def test_map_with_bad_morphism(capsys, tmp_path):
    datum = {"points": ["u"], "sigma": {"P1": [], "P2": [], "S2": []}}
    datum_path = tmp_path / "datum.json"
    datum_path.write_text(json.dumps(datum))
    morphism_path = tmp_path / "morphism.json"
    morphism_path.write_text(json.dumps({"map": {"u": "{P2}"}}))
    code, out, _ = run(capsys, "map", "--builtin", "a2",
                       "--datum", str(datum_path), "--morphism", str(morphism_path))
    assert code == 1
    assert "pullback: failed at P1" in out
    assert "verdict: invalid" in out


def test_map_with_invalid_datum(capsys, tmp_path):
    datum = {"points": ["pt"], "sigma": {"P1": ["pt"], "P2": [], "S2": []}}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code, out, _ = run(capsys, "map", "--builtin", "a2", "--datum", str(path))
    assert code == 1
    assert "datum: invalid" in out


def test_spectrum_without_tensor_is_an_error(capsys):
    code, _, err = run(capsys, "spectrum", "--builtin", "a2")
    assert code == 2
    assert "tensor" in err


def test_spectrum_product40_json(capsys):
    # product:40 has 2^40 ideals, so no sweep over them could finish
    code, out, _ = run(capsys, "spectrum", "--builtin", "product:40", "--json")
    assert code == 0
    names = [f"e{i}" for i in range(1, 41)]
    primes = json.loads(out)["primes"]
    assert sorted(primes) == sorted([n for n in names if n != e] for e in names)


def test_compare_counts_without_sorting(capsys, monkeypatch):
    def refuse(pres):
        raise RuntimeError("sorted the thick subsets only to count them")

    monkeypatch.setattr("thicklat.cli.enumerate_thick", refuse)
    code, out, _ = run(capsys, "compare", "--builtin", "product:13")
    assert code == 0
    assert "universal points: 8192" in out.splitlines()


def test_compare_counts_every_thick_subset(capsys, tmp_path):
    path = tmp_path / "presentation.json"
    for seed in range(25):
        pres = random_tensor_presentation(seed)
        path.write_text(json.dumps(presentation_to_document(pres)), encoding="utf-8")
        code, out, _ = run(capsys, "compare", "--input", str(path), "--json")
        assert code == 0
        assert json.loads(out)["universal_points"] == len(enumerate_thick(pres))


def test_generate_deterministic(capsys):
    _, first, _ = run(capsys, "generate", "--builtin", "a2", "--seed", "9", "--points", "4")
    _, second, _ = run(capsys, "generate", "--builtin", "a2", "--seed", "9", "--points", "4")
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"points", "closed", "sigma"}
    assert doc["points"] == ["x0", "x1", "x2", "x3"]


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_generate_rejects_a_seed_outside_u64(capsys, seed):
    code, out, err = run(capsys, "generate", "--builtin", "an:3", "--points", "6",
                         "--seed", seed)
    assert code == 2
    assert out == ""
    assert f"seed {seed} is outside" in err


def test_generate_feeds_check(capsys, tmp_path):
    _, out, _ = run(capsys, "generate", "--builtin", "an:3", "--seed", "1", "--points", "5")
    path = tmp_path / "datum.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "check", "--builtin", "an:3", "--datum", str(path))
    assert code == 0
    assert "verdict: valid" in out2


@pytest.mark.parametrize("argv", [
    ("enumerate",),
    ("enumerate", "--builtin", "a2", "--input", "x.json"),
    ("enumerate", "--builtin", "nope"),
    ("enumerate", "--builtin", "a2:3"),
    ("enumerate", "--builtin", "an:0"),
    ("enumerate", "--builtin", "an:x"),
    ("enumerate", "--input", "/does/not/exist.json"),
    # int() would read each of these as a number
    ("enumerate", "--builtin", "an:1_0"),
    ("enumerate", "--builtin", "an: 3"),
    ("enumerate", "--builtin", "an:+3"),
    ("enumerate", "--builtin", "an:\u0663"),
    # an empty parameter is not an integer, for a family with or without one
    ("enumerate", "--builtin", "a2:"),
    ("enumerate", "--builtin", "point:"),
    ("enumerate", "--builtin", "an:"),
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_input_file_presentation(capsys, tmp_path):
    doc = {"indecomposables": ["P1", "P2", "S2"],
           "triangles": [[["P1"], ["P2"], ["S2"]]]}
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "enumerate", "--input", str(path))
    assert code == 0
    assert out == "{}\n{P1}\n{P2}\n{S2}\n{P1,P2,S2}\n"


def test_malformed_presentation_file_exit_2(capsys, tmp_path):
    path = tmp_path / "pres.json"
    path.write_text('{"indecomposables": ["a"]}')
    code, _, err = run(capsys, "enumerate", "--input", str(path))
    assert code == 2
    assert "error" in err


def test_byte_identical_reruns(capsys):
    for argv in (
        ("enumerate", "--builtin", "a2"),
        ("lattice", "--builtin", "a2", "--dot"),
        ("compare", "--builtin", "product:2", "--json"),
        ("space", "--builtin", "an:3"),
        ("spectrum", "--builtin", "product:3"),
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_text_stream_without_a_buffer_gets_the_same_text():
    # a replaced sys.stdout may have no binary buffer: main writes text to it
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["enumerate", "--builtin", "a2"]) == 0
    assert out.getvalue() == (GOLDEN / "enumerate-a2.txt").read_text(encoding="utf-8")


A2_DATUM = {"points": ["u"], "sigma": {"P1": [], "P2": [], "S2": []}}
# bytes no JSON reader should turn into a traceback
UNREADABLE = {
    "not-utf8": b'{"points": ["\xff"]}',
    "nested-too-deep": b"[" * 200_000,
    "integer-too-long": b"1" * 5_000,
}


@pytest.mark.parametrize("flag", ["--input", "--datum", "--morphism"])
@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_documents_exit_2(capsys, tmp_path, flag, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE[kind])
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(A2_DATUM))
    argv = {
        "--input": ["enumerate", "--input", str(bad)],
        "--datum": ["map", "--builtin", "a2", "--datum", str(bad)],
        "--morphism": ["map", "--builtin", "a2", "--datum", str(datum), "--morphism", str(bad)],
    }[flag]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv,doc", [
    (["enumerate", "--input"], {"indecomposables": ["\ud800"], "triangles": []}),
    (["map", "--builtin", "a2", "--datum"], {**A2_DATUM, "points": ["\udfff"]}),
    (["check", "--builtin", "a2", "--datum"], {**A2_DATUM, "points": ["u\ud800"]}),
], ids=["presentation", "map-datum", "check-datum"])
def test_lone_surrogate_names_exit_2(capsys, tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


# One table of malformed shapes for every document reader. Each row names
# the document part its error line must name and the error class the
# library raises. A morphism has no name list, so it has no duplicate row;
# each reader has a row whose JSON text repeats a key of some object.
TENSOR_A = {"indecomposables": ["a", "b"], "triangles": [[["a"], ["b"], []]],
            "tensor": {"unit": ["a", "b"],
                       "table": {"a|a": ["a"], "a|b": [], "b|a": [], "b|b": ["b"]}}}
A2 = builtin("a2")
A2_SP = build_sp(enumerate_thick(A2))
A2_POINTS = random_support_datum(A2_SP, 2, seed=0)
A2_MAP = morphism_to_document(universal_morphism(A2_POINTS, A2_SP), A2_POINTS, A2_SP)["map"]


def _table(**cells):
    return {**TENSOR_A, "tensor": {**TENSOR_A["tensor"], "table": cells}}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


READER_CASES = [
    ("presentation", "wrong-container", {**TENSOR_A, "indecomposables": "a"},
     SchemaError, "indecomposables"),
    ("presentation", "non-string", {**TENSOR_A, "indecomposables": ["a", 1]},
     SchemaError, "indecomposables"),
    ("presentation", "empty-name", {**TENSOR_A, "indecomposables": ["a", "b", ""]},
     ValidationError, "indecomposables"),
    ("presentation", "duplicate", {**TENSOR_A, "indecomposables": ["a", "b", "a"]},
     ValidationError, "indecomposables"),
    ("presentation", "lone-surrogate", {**TENSOR_A, "indecomposables": ["a", "b", "\ud800"]},
     ValidationError, "indecomposables"),
    ("presentation", "line-break", {**TENSOR_A, "indecomposables": ["a", "b", "a}\n{b"]},
     ValidationError, "indecomposables"),
    ("presentation", "unknown-name", {**TENSOR_A, "triangles": [[["a"], ["z"], []]]},
     ValidationError, "triangle 0"),
    ("presentation", "bare-member", {**TENSOR_A, "triangles": [["a", ["b"], []]]},
     SchemaError, "triangle 0"),
    ("presentation", "extra-key", {**TENSOR_A, "extra": []}, SchemaError, "presentation"),
    ("presentation", "missing-key", _without(TENSOR_A, "triangles"),
     SchemaError, "presentation"),
    ("presentation", "extra-entry", _table(**TENSOR_A["tensor"]["table"], **{"a|z": []}),
     ValidationError, "tensor table"),
    ("presentation", "missing-entry", _table(**_without(TENSOR_A["tensor"]["table"], "b|a")),
     ValidationError, "tensor table"),
    ("presentation", "repeated-key", json.dumps(TENSOR_A)[:-1] + ', "triangles": []}',
     SchemaError, "repeated key 'triangles'"),
    ("presentation", "repeated-entry",
     json.dumps(TENSOR_A).replace('"b|b": ["b"]', '"b|b": ["b"], "a|a": []'),
     SchemaError, "repeated key 'a|a'"),
    ("datum", "wrong-container", {**A2_DATUM, "points": "u"}, SchemaError, "points"),
    ("datum", "non-string", {**A2_DATUM, "points": ["u", None]}, SchemaError, "points"),
    ("datum", "empty-name", {**A2_DATUM, "points": ["u", ""]}, ValidationError, "points"),
    ("datum", "duplicate", {**A2_DATUM, "points": ["u", "u"]}, ValidationError, "points"),
    ("datum", "lone-surrogate", {**A2_DATUM, "points": ["u", "\udfff"]},
     ValidationError, "points"),
    # map prints a line per point, which a line break would forge
    ("datum", "line-break", {**A2_DATUM, "points": ["u", "v\u2028w"]},
     ValidationError, "points"),
    # nor may the arrow map prints after each point, inside a name or
    # made by its end
    ("datum", "arrow", {**A2_DATUM, "points": ["x -> {P2}", "x"]}, ValidationError, "points"),
    ("datum", "arrow-end", {**A2_DATUM, "points": ["u", "x ->"]}, ValidationError, "points"),
    ("datum", "unknown-name", {**A2_DATUM, "sigma": {**A2_DATUM["sigma"], "P1": ["w"]}},
     ValidationError, "sigma[P1]"),
    ("datum", "bare-member", {**A2_DATUM, "sigma": {**A2_DATUM["sigma"], "P1": "u"}},
     SchemaError, "sigma[P1]"),
    ("datum", "bare-closed", {**A2_DATUM, "closed": "u"}, SchemaError, "closed"),
    ("datum", "extra-key", {**A2_DATUM, "extra": []}, SchemaError, "support datum"),
    ("datum", "missing-key", _without(A2_DATUM, "sigma"), SchemaError, "support datum"),
    ("datum", "extra-entry", {**A2_DATUM, "sigma": {**A2_DATUM["sigma"], "Z": []}},
     ValidationError, "sigma"),
    ("datum", "missing-entry", {**A2_DATUM, "sigma": _without(A2_DATUM["sigma"], "S2")},
     ValidationError, "sigma"),
    ("datum", "repeated-key", '{"points": ["u"], "sigma": {}, "points": []}',
     SchemaError, "repeated key 'points'"),
    # the last P1 would otherwise win, and the datum read as valid
    ("datum", "repeated-entry",
     '{"points": ["u"], "sigma": {"P1": ["u"], "P2": [], "S2": [], "P1": []}}',
     SchemaError, "repeated key 'P1'"),
    ("morphism", "wrong-container", {"map": list(A2_MAP)}, SchemaError, "map"),
    ("morphism", "non-string", {"map": {**A2_MAP, "x0": 0}}, ValidationError, "map"),
    ("morphism", "empty-name", {"map": {**A2_MAP, "x0": ""}}, ValidationError, "map"),
    ("morphism", "lone-surrogate", {"map": {**A2_MAP, "x0": "\ud800"}},
     ValidationError, "map"),
    ("morphism", "unknown-name", {"map": {**A2_MAP, "x0": "{Z}"}}, ValidationError, "map"),
    ("morphism", "extra-key", {"map": A2_MAP, "extra": []}, SchemaError, "morphism"),
    ("morphism", "missing-key", {}, SchemaError, "morphism"),
    ("morphism", "extra-entry", {"map": {**A2_MAP, "y": "{}"}}, ValidationError, "map"),
    ("morphism", "missing-entry", {"map": _without(A2_MAP, "x1")}, ValidationError, "map"),
    ("morphism", "repeated-key", json.dumps({"map": A2_MAP})[:-1] + ', "map": {}}',
     SchemaError, "repeated key 'map'"),
    ("morphism", "repeated-entry", json.dumps({"map": A2_MAP})[:-2] + ', "x0": "{}"}}',
     SchemaError, "repeated key 'x0'"),
]


def _read_library(reader, doc):
    """``doc`` read by the library; a ``str`` is JSON text, which the one
    decoder reads first."""
    if reader == "presentation":
        return parse_presentation(doc if isinstance(doc, str) else json.dumps(doc))
    if isinstance(doc, str):
        doc = _decode_json(doc, reader)
    if reader == "datum":
        return datum_from_document(doc, A2)
    return morphism_from_document(doc, A2_POINTS, A2_SP)


@pytest.mark.parametrize("reader,shape,doc,error,part", READER_CASES,
                         ids=[f"{reader}-{shape}" for reader, shape, *_ in READER_CASES])
def test_every_reader_rejects_each_malformed_shape(capsys, tmp_path, reader, shape, doc,
                                                   error, part):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(datum_to_document(A2_POINTS, A2)), encoding="utf-8")
    argv = {
        "presentation": ["enumerate", "--input", str(path)],
        "datum": ["check", "--builtin", "a2", "--datum", str(path)],
        "morphism": ["map", "--builtin", "a2", "--datum", str(datum), "--morphism", str(path)],
    }[reader]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and part in err
    with pytest.raises(error) as exc:
        _read_library(reader, doc)
    assert type(exc.value) is error


def test_map_and_generate_check_inputs_before_enumerating(capsys, monkeypatch):
    def refuse(pres):
        raise RuntimeError("enumerated before the inputs were checked")

    monkeypatch.setattr("thicklat.cli.enumerate_thick", refuse)
    monkeypatch.setattr("thicklat.cli.count_thick", refuse)
    assert run(capsys, "map", "--builtin", "an:4", "--datum", "/does/not/exist.json")[0] == 2
    for argv in (["generate", "--builtin", "an:4", "--points", "-1"],
                 ["generate", "--builtin", "an:4", "--seed", "-1"],
                 ["generate", "--builtin", "an:4", "--seed", str(1 << 64)],
                 ["compare", "--builtin", "a2"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:")
    invalid = str(GOLDEN / "an4-datum-invalid.json")
    for flags in ([], ["--json"]):
        assert run(capsys, "map", "--builtin", "an:4", "--datum", invalid, *flags)[0] == 1


def test_map_checks_the_morphism_document_before_the_datum_verdict(capsys):
    # an invalid datum ends in "verdict: invalid" only once --morphism names
    # a document that reads as a morphism
    invalid = str(GOLDEN / "an4-datum-invalid.json")
    for morphism, error in (("/does/not/exist.json", "error: cannot read /does/not/exist.json"),
                            (str(GOLDEN / "an4-morphism-bad-keys.json"),
                             "error: morphism: unexpected keys ['nope']")):
        code, out, err = run(capsys, "map", "--builtin", "an:4", "--datum", invalid,
                             "--morphism", morphism)
        assert (code, out) == (2, "")
        assert err.startswith(error) and err.count("\n") == 1


def _refuse(*args):
    raise RuntimeError("built the universal space")


def test_map_without_morphism_builds_no_universal_space(capsysbinary, monkeypatch):
    monkeypatch.chdir(ROOT)

    def assert_golden(kind, fmt):
        case = CASES[f"map-an4-{kind}.{fmt}"]
        status = main(case["argv"])
        assert mismatch(case, status, *capsysbinary.readouterr()) is None

    with monkeypatch.context() as patch:
        patch.setattr("thicklat.cli.enumerate_thick", _refuse)
        patch.setattr("thicklat.cli.build_sp", _refuse)
        for fmt in ("txt", "json"):
            assert_golden("valid", fmt)
            assert_golden("invalid", fmt)
            # only a --morphism target, any point's label, needs the space
            with pytest.raises(RuntimeError):
                assert_golden("mutated", fmt)
    for fmt in ("txt", "json"):
        assert_golden("mutated", fmt)


def test_map_an20_without_the_universal_space(capsys, monkeypatch, tmp_path):
    # an:20 has Bell(21), about 4.7e14, thick subsets: one per partition of
    # 0..20, holding the intervals [i,j] whose ends share a block
    pres = builtin("an", 20)
    blocks = {"bottom": lambda i: i, "parity": lambda i: i % 2,
              "halves": lambda i: i > 10, "top": lambda i: 0}
    doc = {"points": list(blocks), "sigma": {name: [] for name in pres.names}}
    images = {}
    for point, block in blocks.items():
        image = []
        for name in pres.names:
            i, j = map(int, name[1:-1].split(","))
            if block(i) == block(j):
                image.append(name)
            else:
                doc["sigma"][name].append(point)
        images[point] = "{" + ",".join(image) + "}"
    path = tmp_path / "an20.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr("thicklat.cli.enumerate_thick", _refuse)
    monkeypatch.setattr("thicklat.cli.build_sp", _refuse)
    code, out, _ = run(capsys, "map", "--builtin", "an:20", "--datum", str(path))
    assert code == 0
    assert out == "".join(f"{x} -> {images[x]}\n" for x in blocks) + (
        "pullback: ok\ncontinuity: ok\nverdict: valid\n")
    assert images["bottom"] == "{}" and images["top"] == pres.label(pres.full_mask)


# point names for arbitrary datums, one of them spelled like a label
POINT_NAMES = ("u", "v", "w", "x0", "\xe9", "a b", "{P1}")


@pytest.mark.parametrize("source", [
    "a2", "point", "an:3", "an:4", "product:3", "random:0", "random:5", "tensor:0",
    "tensor:11",
    # degenerate triangles close the empty set up to everything, the one thick subset
    "random:9",
])
def test_map_matches_the_universal_morphism(capsys, tmp_path, source):
    # the canonical map that `map` reads off the datum is the one that
    # universal_morphism finds among the points of the universal space
    family, _, n = source.partition(":")
    if family in ("random", "tensor"):
        draw = random_presentation if family == "random" else random_tensor_presentation
        pres = draw(int(n))
        path = tmp_path / "presentation.json"
        path.write_text(json.dumps(presentation_to_document(pres)), encoding="utf-8")
        argv = ["--input", str(path)]
    else:
        pres = builtin(family, int(n) if n else None)
        argv = ["--builtin", source]
    sp = build_sp(enumerate_thick(pres))
    rng = random.Random(len(pres.names))
    docs = [datum_to_document(random_support_datum(sp, seed % 6, seed), pres)
            for seed in range(6)]
    # arbitrary supports over named points, kept when check accepts them
    for _ in range(200):
        points = rng.sample(POINT_NAMES, rng.randint(1, 4))
        density = rng.random() ** 2
        doc = {"points": points,
               "sigma": {name: [p for p in points if rng.random() < density]
                         for name in pres.names}}
        if check_support_datum(datum_from_document(doc, pres), pres).valid:
            docs.append(doc)
    assert len(docs) >= 20
    datum_path = tmp_path / "datum.json"
    for doc in docs:
        datum_path.write_text(json.dumps(doc), encoding="utf-8")
        datum = datum_from_document(doc, pres)
        expected = morphism_to_document(universal_morphism(datum, sp), datum, sp)["map"]
        code, out, _ = run(capsys, "map", *argv, "--datum", str(datum_path), "--json")
        assert code == 0 and json.loads(out)["map"] == expected
        code, out, _ = run(capsys, "map", *argv, "--datum", str(datum_path))
        assert code == 0 and out == "".join(f"{x} -> {t}\n" for x, t in expected.items()) + (
            "pullback: ok\ncontinuity: ok\nverdict: valid\n")


def test_memory_error_while_computing_exits_2(capsys, monkeypatch):
    def exhausted(pres):
        raise MemoryError

    monkeypatch.setattr("thicklat.cli.enumerate_thick", exhausted)
    for flags in ([], ["--json"]):
        assert run(capsys, "enumerate", "--builtin", "a2", *flags) == (
            2, "", "error: out of memory\n")


def test_memory_error_while_rendering_exits_2(capsys, monkeypatch):
    # the renderer fails before its first chunk, so nothing is written
    def exhausted(obj, newline):
        raise MemoryError
        yield

    monkeypatch.setattr("thicklat.cli._render", exhausted)
    assert run(capsys, "enumerate", "--builtin", "a2", "--json") == (
        2, "", "error: out of memory\n")


def test_memory_error_mid_stream_leaves_the_chunks_before_it(capsysbinary, monkeypatch):
    argv = ["enumerate", "--builtin", "an:7", "--json"]
    assert main(argv) == 0
    whole = capsysbinary.readouterr().out

    def exhausted_after_one_chunk(*args):
        yield from islice(joins(*args), CHUNK_ROWS)
        raise MemoryError

    monkeypatch.setattr("thicklat.cli.joins", exhausted_after_one_chunk)
    assert main(argv) == 2
    out, err = capsysbinary.readouterr()
    assert err == b"error: out of memory\n"
    # what was written is the whole output's start, up to the first chunk's last row
    assert whole.startswith(out) and len(out) < len(whole)
    assert out.count(b"\n    [") == CHUNK_ROWS and out.endswith(b"\n    ]")


class _Sink:
    """A stdout that drops every byte written to it."""

    def __init__(self):
        self.buffer = self

    def write(self, data):
        return len(data)

    def writelines(self, chunks):
        for _ in chunks:
            pass

    def flush(self):
        pass


def test_broken_pipe_mid_stream_exits_2_with_one_error_line(tmp_path):
    # the reader goes away after the first chunk: one error line, exit 2, and
    # the stream's descriptor pointed at the null device for the flush at exit
    written = []
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedAfterOneChunk:
        def __init__(self):
            self.buffer = self

        def fileno(self):
            return fd

        def writelines(self, chunks):
            for chunk in chunks:
                if written:
                    raise BrokenPipeError(32, "Broken pipe")
                written.append(chunk)

        def flush(self):
            pass

    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(ClosedAfterOneChunk()), contextlib.redirect_stderr(err):
            assert main(["enumerate", "--builtin", "an:7"]) == 2
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert len(written) == 1
    assert err.getvalue() == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_pipe_closed_after_one_byte_exits_2_with_one_error_line():
    # an:7's 155,617 bytes overfill the pipe, so the write fails; Python's
    # flush at exit must not add an "Exception ignored" report
    # run the package this module imported
    package_root = os.path.dirname(os.path.dirname(lattice.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    with subprocess.Popen([sys.executable, "-m", "thicklat", "enumerate", "--builtin", "an:7"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=20) == 2
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Memory gate: the 3.03 MB document is written in chunks, never held whole.
# Under tracemalloc the whole run, enumeration included, peaked at 1.97 MB
# (Python 3.11); the bound leaves a margin of 78% for other versions and
# allocators. Building the text whole, then its bytes, peaked at 8.65 MB.
SPARSE104_PEAK_BOUND = 3_500_000


def test_enumerate_json_is_written_in_bounded_memory(monkeypatch):
    argv = ["enumerate", "--input", str(ROOT / "tests/golden/sparse104.presentation.json"),
            "--json"]
    _parser()  # built once per process, so not counted here
    monkeypatch.setattr(sys, "stdout", _Sink())
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SPARSE104_PEAK_BOUND


# The renderer against json.dumps, the oracle: any JSON value, with text
# that mixes arbitrary characters with quotes, backslashes, control
# characters, non-ASCII and lone surrogates, in keys and values alike.
def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


EDGE_CHARACTERS = '"\\\x00\x1f\x7f\xe9\ud800\udfff\U0001f600'
RENDER_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from(EDGE_CHARACTERS), max_size=6)
RENDER_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 64)
    | st.floats() | RENDER_TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(RENDER_TEXT, max_size=4)
                   | st.dictionaries(RENDER_TEXT, inner, max_size=4)),
    max_leaves=24)


@st.composite
def _picks(draw):
    """A ``_Picks`` over quoted names with edge characters, as a pair with
    the plain lists it stands for; masks may be 0 or have bits past the
    names, and the list of masks may be empty."""
    names = draw(st.lists(RENDER_TEXT, max_size=5))
    masks = st.integers(min_value=0, max_value=(1 << len(names) + 2) - 1)
    quoted = [json.dumps(name) for name in names]
    if draw(st.booleans()):
        mask = draw(masks)
        return _Picks(quoted, mask), pick(names, mask)
    rows = draw(st.lists(masks, max_size=4) | st.lists(masks, max_size=4).map(tuple))
    return _Picks(quoted, rows), [pick(names, mask) for mask in rows]


def _nested(pairs):
    """Pairs of documents, each a list or a dict of the drawn pairs' sides."""
    def split(items):
        return [d for d, _ in items], [p for _, p in items]

    def split_dict(items):
        return ({k: d for k, (d, _) in items.items()},
                {k: p for k, (_, p) in items.items()})

    return (st.lists(pairs, max_size=3).map(split)
            | st.dictionaries(RENDER_TEXT, pairs, max_size=3).map(split_dict))


PICKED_DOCS = _picks() | _nested(_picks()) | _nested(_nested(_picks()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=RENDER_DOCS, picked=PICKED_DOCS)
def test_render_equals_json_dumps(doc, picked):
    assert "".join(_json_chunks(doc)) == _dumps(doc)
    # a _Picks leaf, nested 0-2 deep, renders as the lists it stands for
    leafy, plain = picked
    assert "".join(_json_chunks(leafy)) == _dumps(plain)


ROW_MASKS = st.lists(st.integers(min_value=0, max_value=(1 << 14) - 1), min_size=1, max_size=4)


# row counts past the 256 from which bitsets.joins looks rows up in tables of
# quoted names, and on either side of the renderer's chunk boundaries
ROW_COUNTS = st.sampled_from([257, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
# rows made empty: the first, and those on either side of the first boundary
EMPTY_ROWS = st.sets(st.sampled_from([0, CHUNK_ROWS - 1, CHUNK_ROWS]))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(names=st.lists(RENDER_TEXT, max_size=5) | st.lists(RENDER_TEXT, min_size=9, max_size=12),
       rows=ROW_MASKS | ROW_MASKS.map(tuple), count=ROW_COUNTS, empty=EMPTY_ROWS,
       depth=st.integers(min_value=0, max_value=2))
def test_render_equals_json_dumps_past_the_table_threshold(names, rows, count, empty, depth):
    # rows tiled to ``count``, looked up in tables of quoted names, one table
    # per chunk of at most 8 names; masks may be 0 or have bits past the names
    tiled = [0 if i in empty else mask for i, mask in enumerate(islice(cycle(rows), count))]
    rows = type(rows)(tiled)
    leafy = _Picks([json.dumps(name) for name in names], rows)
    plain = [pick(names, mask) for mask in rows]
    # a list of names as long, written in chunks from one mask per name
    many = names * (count // max(len(names), 1))
    picked = _Picks([json.dumps(n) for n in many], (1 << len(many)) - 1)
    assert "".join(_json_chunks(picked)) == _dumps(many)
    for _ in range(depth):
        leafy, plain = {"k": leafy}, {"k": plain}
    # compared line by line, so that a failing example is reported without a
    # diff of the whole text, which would make shrinking take minutes
    assert "".join(_json_chunks(leafy)).split("\n") == _dumps(plain).split("\n")


@pytest.mark.parametrize("count", [0, 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
@pytest.mark.parametrize("item", ["s", {"a": [1, "b"], "c": {}}], ids=["strings", "dicts"])
def test_long_plain_lists_are_written_in_chunks(count, item):
    # a plain list, as a _Picks is, is written CHUNK_ROWS items at a time
    doc = {"list": [f"s{i}" if item == "s" else item for i in range(count)], "z": []}
    chunks = list(_json_chunks(doc))
    assert "".join(chunks) == _dumps(doc)
    # an item's first line is indented as the list's items are, by four spaces
    assert max(len(re.findall(r"\n    [^ \]}]", chunk)) for chunk in chunks) <= CHUNK_ROWS


def _enumerate_doc(pres, args):
    subsets = [pick(pres.names, e) for e in enumerate_thick(pres).elements]
    return {"count": len(subsets), "subcategories": subsets}


def _space_doc(pres, args):
    sp = build_sp(enumerate_thick(pres))
    points = list(sp.space.points)
    return {"points": points,
            "sup": {name: pick(points, s) for name, s in zip(pres.names, sp.sigma)}}


def _spectrum_doc(pres, args):
    spectrum = primes(pres)
    points = list(spectrum.space.points)
    return {**args.run(pres, args)[0],
            "primes": [pick(pres.names, q) for q in spectrum.primes],
            "supp": {name: pick(points, s) for name, s in zip(pres.names, spectrum.sigma)}}


def _handler_doc(pres, args):
    return args.run(pres, args)[0]


# stdout is json.dumps of the plain document: built here where the handler
# returns _Picks leaves, which json.dumps cannot write, else the handler's own
HANDLER_DOCS = [
    (["enumerate", "--builtin", "an:7", "--json"], _enumerate_doc),
    (["space", "--builtin", "an:6", "--json"], _space_doc),
    (["spectrum", "--builtin", "product:15", "--json"], _spectrum_doc),
    (["generate", "--builtin", "an:4"], _handler_doc),
]


@pytest.mark.parametrize("argv,plain", HANDLER_DOCS,
                         ids=["-".join(argv[:3:2]) for argv, _ in HANDLER_DOCS])
def test_rendered_handler_documents_equal_json_dumps(capsysbinary, argv, plain):
    args = _parser().parse_args(argv)
    doc = plain(_load_presentation(args), args)
    main(argv)
    assert capsysbinary.readouterr().out == _dumps(doc).encode("utf-8")


# Fuzzing main: names draw on a lone surrogate and on the reserved "|";
# documents are arbitrary bytes, a fragment repeated once or past the
# interpreter's limits on nesting depth and digits, arbitrary JSON values, or
# documents of the expected shape.
NAMES = st.text(st.sampled_from("a|\xe9\ud800"), max_size=2)
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=8)


def _with_tensor(names):
    """Presentation documents over valid ``names`` with a tensor object: a
    unit and a table keyed "A|B" over the names, whose cells list names or
    are any value."""
    expr = st.lists(st.sampled_from(names), max_size=2) if names else st.just([])
    expr |= st.lists(NAMES, max_size=2)
    table = st.fixed_dictionaries({f"{a}|{b}": expr | VALUES for a in names for b in names})
    tensor = st.fixed_dictionaries({"unit": expr, "table": table | VALUES})
    return st.fixed_dictionaries(
        {"indecomposables": st.just(names), "triangles": st.just([]), "tensor": tensor})


# presentations without a tensor, and with one over valid names, so that the
# draws get as far as the table
PRESENTATIONS = st.one_of(
    st.fixed_dictionaries({"indecomposables": st.lists(NAMES, max_size=3),
                           "triangles": st.just([]) | VALUES}),
    st.lists(st.sampled_from(["a", "b", "\xe9"]), max_size=3, unique=True).flatmap(_with_tensor))
AN3 = builtin("an", 3)
AN3_DATA = st.fixed_dictionaries({
    "points": st.lists(NAMES, max_size=3),
    "sigma": st.fixed_dictionaries({n: st.lists(NAMES, max_size=1)
                                    for n in AN3.names}),
})
AN3_SP = build_sp(enumerate_thick(AN3))
# a valid datum on x0, x1, x2; each point goes to its universal image half the
# time, else to any point of the space or to no point at all, and the map may
# also name an unknown point, miss x2 or sit beside an extra key
AN3_DATUM = random_support_datum(AN3_SP, 3, seed=0)
TARGETS = st.sampled_from(AN3_SP.space.points + ("{P}", None, 0, ["{}"]))
MAPS = st.fixed_dictionaries({
    f"x{x}": st.just(AN3_SP.space.points[t]) | TARGETS
    for x, t in enumerate(AN3_DATUM.origin_map)})
AN3_MORPHISMS = st.one_of(
    MAPS.map(lambda m: {"map": m}),
    MAPS.map(lambda m: {"map": {**m, "y": "{}"}}),
    MAPS.map(lambda m: {"map": {"x0": m["x0"], "x1": m["x1"]}}),
    st.tuples(MAPS, VALUES).map(lambda t: {"map": t[0], "extra": t[1]}),
)
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def documents(shaped):
    fragment = st.sampled_from([b"[", b'{"a":', b"9"])
    return st.one_of(
        st.binary(max_size=24),
        st.tuples(fragment, st.sampled_from([1, 2 ** 11, 2 ** 17])).map(lambda t: t[0] * t[1]),
        VALUES.map(lambda doc: json.dumps(doc).encode()),
        shaped.map(lambda doc: json.dumps(doc).encode()),
    )


@FUZZ
@given(doc=documents(PRESENTATIONS),
       command=st.sampled_from(["enumerate", "lattice", "space", "spectrum", "compare"]),
       flags=st.sampled_from([[], ["--json"]]))
def test_main_survives_any_presentation_document(capsysbinary, tmp_path, doc, command, flags):
    path = tmp_path / "presentation.json"
    path.write_bytes(doc)
    assert main([command, "--input", str(path), *flags]) in (0, 1, 2)
    capsysbinary.readouterr()


@FUZZ
@given(doc=documents(AN3_DATA), command=st.sampled_from(["check", "map"]),
       flags=st.sampled_from([[], ["--json"]]))
def test_main_survives_any_an3_datum_document(capsysbinary, tmp_path, doc, command, flags):
    path = tmp_path / "datum.json"
    path.write_bytes(doc)
    assert main([command, "--builtin", "an:3", "--datum", str(path), *flags]) in (0, 1, 2)
    capsysbinary.readouterr()


@FUZZ
@given(doc=documents(AN3_MORPHISMS), flags=st.sampled_from([[], ["--json"]]))
def test_main_survives_any_an3_morphism_document(capsysbinary, tmp_path, doc, flags):
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(datum_to_document(AN3_DATUM, AN3)), encoding="utf-8")
    path = tmp_path / "morphism.json"
    path.write_bytes(doc)
    argv = ["map", "--builtin", "an:3", "--datum", str(datum), "--morphism", str(path), *flags]
    assert main(argv) in (0, 1, 2)
    capsysbinary.readouterr()


@FUZZ
@given(names=st.lists(st.lists(st.sampled_from(["x", " ", "-", ">", " ->"]), min_size=1,
                               max_size=4).map("".join),
                      min_size=1, max_size=3, unique=True))
def test_map_lines_read_back_to_their_points(capsys, tmp_path, names):
    # a point name is accepted exactly when the line map prints for it
    # splits back into that name at its first arrow
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({**A2_DATUM, "points": names}), encoding="utf-8")
    code, out, _ = run(capsys, "map", "--builtin", "a2", "--datum", str(path))
    reads_back = all((name + " -> ").index(" -> ") == len(name) for name in names)
    assert code == (0 if reads_back else 2)
    if reads_back:
        lines = out.splitlines()[:len(names)]
        assert [line.partition(" -> ")[0] for line in lines] == names
