"""Command-line interface with byte-stable text and JSON outputs.

Exit statuses: 0 success or checked-valid, 1 checked-invalid (an axiom or
morphism check said no), 2 usage or input errors.

``main`` loads the presentation and hands it to one handler per subcommand.
A handler builds only the output that was asked for and returns it with the
exit status: a JSON document as a ``dict``, or text as an iterable of
chunks. A handler does all of its work and every check before it returns,
so an error exits 2 with nothing written, and renders lazily: ``main``
writes each chunk as it is rendered, and holds a slice of ``CHUNK_ROWS``
rows or lines, or one long line, never the whole output. A ``MemoryError``
or a failed write exits 2 after the chunks before it.

A line that states a theorem (a spectrum's base axioms and products, the
universal morphism's pullbacks, what ``compare`` says of the inclusion) is
printed from a constant and proved in the tests.

One function, ``_render``, writes every JSON document, on every Python, to
the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``, the tests'
oracle: a chunk per dict member and per ``CHUNK_ROWS`` items of a list. It
also writes ``_Picks``: the names of many subsets, joined from names quoted
once per document. ``json.dumps`` cannot write those; before Python 3.13 it
indents in pure Python, and from 3.13 on it is no faster than ``_render``.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .bitsets import joins, pick
from .closure import count_thick, count_thick_by_blocks, enumerate_thick
from .errors import InvalidParameter, SchemaError, ThickLatError
from .lattice import DEFAULT_MAX_SIZE, analyze, check_size, covering_pairs, export_dot
from .presentation import Presentation, _decode_json, builtin, parse_presentation
from .space import (
    POINT_ARROW,
    ROTATIONS,
    STRUCTURAL_AXIOMS,
    DatumReport,
    MorphismReport,
    SupportSpace,
    build_sp,
    check_draw_parameters,
    check_morphism,
    check_support_datum,
    datum_from_document,
    datum_to_document,
    morphism_from_document,
    random_support_datum,
)
from .tensor import primes, verify_tt_support

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ERROR = 2

# a JSON document or chunks of text, and the exit status
Output = tuple[dict | Iterable[str], int]

# rows or lines per chunk: about 100 KB of a subset list, which stays in the
# cache while it is encoded and written (sparse104's `enumerate --json` took
# 29 ms in chunks of 1,024 rows, 34 ms of 4,096 and 42 ms of 16,384)
CHUNK_ROWS = 1024

# supports by omission satisfy the base axioms over any family of thick
# subsets, so the support axioms of a spectrum are reported from here
PRIME_SUPPORT_AXIOMS = DatumReport((), ())


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--builtin", metavar="FAMILY[:N]",
                        help="use a builtin presentation (a2, an:N, point, product:N)")
    common.add_argument("--input", metavar="PATH", help="read a presentation document")
    common.add_argument("--json", action="store_true", help="emit a JSON document")

    parser = argparse.ArgumentParser(
        prog="thicklat",
        description="Thick subcategory lattices, support spaces, and prime spectra "
                    "of finite presentations.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text, parents=[common]) for name, text, _ in SUBCOMMANDS}
    for name, _, run in SUBCOMMANDS:
        p[name].set_defaults(run=run)
    p["lattice"].add_argument("--dot", nargs="?", const="-", metavar="PATH",
                              help="emit the Hasse diagram as DOT (to PATH, or stdout)")
    p["lattice"].add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE,
                              metavar="COUNT", help="largest lattice to report on or draw")
    for name in ("check", "map"):
        p[name].add_argument("--datum", required=True, metavar="PATH")
    p["map"].add_argument("--morphism", metavar="PATH",
                          help="check this morphism instead of computing the canonical one")
    p["generate"].add_argument("--seed", type=int, default=0, metavar="U64")
    p["generate"].add_argument("--points", type=int, default=4, metavar="COUNT")
    return parser


def _load_presentation(args: argparse.Namespace) -> Presentation:
    if args.builtin and args.input:
        raise InvalidParameter("choose exactly one of --builtin and --input")
    if args.builtin:
        family, colon, raw_n = args.builtin.partition(":")
        n = None
        if colon:  # "an:" names an empty parameter, which is not an integer
            # int() would also take "1_0", " 3", "+3" and non-ASCII digits
            if not (raw_n.isascii() and raw_n.isdigit()):
                raise InvalidParameter(f"builtin parameter {raw_n!r} is not an integer")
            n = int(raw_n)
        return builtin(family, n)
    if args.input:
        return parse_presentation(_read_text(args.input))
    raise InvalidParameter("an input source is required: --builtin or --input")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidParameter(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8: {exc}") from exc


def _load_json(path: str) -> object:
    return _decode_json(_read_text(path), path)


def _json_chunks(doc: object) -> Iterator[str]:
    return chain(_render(doc, "\n"), ("\n",))


def _lines(lines: Iterable[str]) -> Iterator[str]:
    """The lines, each ended by a newline, as one chunk per ``CHUNK_ROWS`` lines."""
    lines = iter(lines)
    while batch := list(islice(lines, CHUNK_ROWS)):
        batch.append("")
        yield "\n".join(batch)


class _Picks:
    """The JSON strings in ``quoted`` at the set bits of ``masks``: a list
    for one mask, a list of such lists for a sequence of masks."""

    # never compared or hashed, so a slotted class, not a ``_value.Value``
    __slots__ = ("quoted", "masks")

    def __init__(self, quoted: Sequence[str], masks: int | Sequence[int]) -> None:
        self.quoted, self.masks = quoted, masks


def _render(obj: object, newline: str) -> Iterator[str]:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for an ``obj`` at the
    indentation that ``newline`` (a newline and spaces) starts, with each
    ``_Picks`` written as the lists of strings it stands for: a chunk per
    dict key and per ``CHUNK_ROWS`` items of a list, an item's chunks joined."""
    if isinstance(obj, _Picks) and isinstance(obj.masks, int):
        yield from _array(pick(obj.quoted, obj.masks), newline)
    elif isinstance(obj, _Picks):
        # each row's names joined by ``joins``, its brackets written by ``_array``;
        # "[", two indents, "]" is an empty row, as quoted names hold no "\n", and
        # a chunk holds whole rows, so no empty row straddles two chunks
        inner = newline + "  "
        deeper = inner + "  "
        empty = f"[{deeper}{inner}]"
        rows = joins(obj.quoted, obj.masks, "," + deeper)
        for chunk in _array(rows, newline, "[" + deeper, inner + "]"):
            yield chunk.replace(empty, "[]")
    elif isinstance(obj, dict):
        inner = newline + "  "
        lead = "{" + inner
        for k in sorted(obj):
            yield lead + _quote(k) + ": "
            yield from _render(obj[k], inner)
            lead = "," + inner
        yield "{}" if lead[0] == "{" else newline + "}"
    elif isinstance(obj, (list, tuple)):
        inner = newline + "  "
        # a list of names is quoted in one C-level pass
        yield from _array(map(_quote, obj) if all(map(isinstance, obj, repeat(str)))
                          else ("".join(_render(item, inner)) for item in obj), newline)
    elif isinstance(obj, str):
        yield _quote(obj)
    else:
        yield json.dumps(obj)


def _array(items: Iterable[str], newline: str, before: str = "", after: str = "") -> Iterator[str]:
    """The JSON array of rendered ``items`` at ``newline``'s indentation, each
    written between ``before`` and ``after``: one chunk per ``CHUNK_ROWS`` items."""
    inner = newline + "  "
    lead, sep = "[" + inner + before, after + "," + inner + before
    items = iter(items)
    while batch := list(islice(items, CHUNK_ROWS)):
        batch[0] = lead + batch[0]
        batch[-1] += after
        yield sep.join(batch)
        lead = "," + inner + before
    yield "[]" if lead[0] == "[" else newline + "]"  # "[]" when no item came


# --------------------------------------------------------------------------
# Subcommands


def _cmd_enumerate(pres: Presentation, args: argparse.Namespace) -> Output:
    lat = enumerate_thick(pres)
    if args.json:
        quoted = tuple(map(_quote, pres.names))
        return {"count": len(lat), "subcategories": _Picks(quoted, lat.elements)}, EXIT_OK
    # each label is joined as its slice is written
    return _lines(pres.labels(lat.elements)), EXIT_OK


def _cmd_lattice(pres: Presentation, args: argparse.Namespace) -> Output:
    # where counting costs far less than listing, the guard runs before the enumeration
    size = count_thick_by_blocks(pres)
    if size is not None:
        check_size(size, args.max_size)
    lat = enumerate_thick(pres)
    # the size guard runs before any cover is found, so a run that exits 2
    # writes nothing; the file draws the report's covers, not new ones
    if args.dot == "-":
        return (export_dot(lat, covering_pairs(lat, args.max_size)),), EXIT_OK
    report = analyze(lat, max_size=args.max_size)
    if args.dot is not None:
        try:
            Path(args.dot).write_text(export_dot(lat, report.covers),
                                      encoding="utf-8", newline="\n")
        except OSError as exc:
            raise InvalidParameter(f"cannot write {args.dot}: {exc}") from exc
    laws = (("distributive", report.is_distributive, report.distributive_witness),
            ("modular", report.is_modular, report.modular_witness))
    sides = ("x", "y", "z", "lhs", "rhs")
    if args.json:
        doc = {"size": report.size, "height": report.height,
               "atoms": [pick(pres.names, a) for a in report.atoms]}
        for law, holds, w in laws:
            doc[law] = holds
            doc[f"{law}_witness"] = (
                None if w is None else {k: pick(pres.names, getattr(w, k)) for k in sides})
        return doc, EXIT_OK
    lines = [f"size: {report.size}", f"height: {report.height}",
             "atoms: " + (", ".join(pres.labels(report.atoms)) or "none")]
    for law, holds, w in laws:
        lines.append(f"{law}: {json.dumps(holds)}")
        if w is not None:
            lines.append(f"{law} witness: "
                         + " ".join(f"{k}={pres.label(getattr(w, k))}" for k in sides))
    return _lines(lines), EXIT_OK


def _cmd_space(pres: Presentation, args: argparse.Namespace) -> Output:
    sp = build_sp(enumerate_thick(pres))
    if args.json:
        return _support_doc(sp), EXIT_OK
    return _support_lines(sp, "points", "sup"), EXIT_OK


def _support_doc(sp: SupportSpace) -> dict:
    """The points and each indecomposable's support, from labels quoted once."""
    labels = tuple(map(_quote, sp.space.points))
    names = sp.lattice.presentation.names
    return {"points": _Picks(labels, (1 << len(labels)) - 1),
            "sup": {name: _Picks(labels, s) for name, s in zip(names, sp.sigma)}}


def _support_lines(sp: SupportSpace, heading: str, sup_name: str) -> Iterator[str]:
    """The point count and the points in chunks of lines, then each
    indecomposable's support, a chunk per line."""
    points = sp.space.points
    yield from _lines(chain((f"{heading}: {len(points)}",), points))
    for name, s in zip(sp.lattice.presentation.names, sp.sigma):
        yield f"{sup_name}({name}): " + (", ".join(pick(points, s)) or "(empty)") + "\n"


def _cmd_check(pres: Presentation, args: argparse.Namespace) -> Output:
    datum = datum_from_document(_load_json(args.datum), pres)
    report = check_support_datum(datum, pres)
    status = EXIT_OK if report.valid else EXIT_INVALID
    if args.json:
        return _datum_report_doc(report, datum, pres), status
    lines = _datum_report_lines(report, datum, pres)
    return _lines([*lines, f"verdict: {'valid' if report.valid else 'invalid'}"]), status


def _datum_report_doc(report: DatumReport, datum, pres: Presentation) -> dict:
    return {
        "structural": [list(entry) for entry in STRUCTURAL_AXIOMS],
        "triangle_violations": [
            {
                "triangle": v.triangle,
                "rotation": ROTATIONS[v.rotation],
                "points": pick(datum.space.points, v.excess),
            }
            for v in report.triangle_violations
        ],
        "unclosed": [pres.names[a] for a in report.unclosed],
        "valid": report.valid,
    }


def _datum_report_lines(report: DatumReport, datum, pres: Presentation) -> list[str]:
    lines = [f"{axiom}: satisfied ({note})" for axiom, note in STRUCTURAL_AXIOMS]
    if report.triangle_violations:
        lines.append(f"triangles: {len(report.triangle_violations)} violation(s)")
        for v in report.triangle_violations:
            tri = pres.triangles[v.triangle]
            shape = " -> ".join("+".join(pres.names[i] for i in e) if e else "0"
                                for e in (tri.a, tri.b, tri.c))
            stray = ", ".join(pick(datum.space.points, v.excess))
            lines.append(
                f"  triangle {v.triangle} ({shape}), rotation {ROTATIONS[v.rotation]}: "
                f"stray points {stray}")
    else:
        lines.append("triangles: satisfied")
    if report.unclosed:
        names = ", ".join(pres.names[a] for a in report.unclosed)
        lines.append(f"closedness: support of {names} not closed")
    else:
        lines.append("closedness: satisfied")
    return lines


def _cmd_map(pres: Presentation, args: argparse.Namespace) -> Output:
    # as in ``universal_morphism``, a point goes to the objects whose support
    # avoids it, a thick subset once the triangles hold, so only a --morphism
    # target (any point's label) needs the universal space. Every input
    # document is checked before the datum's verdict.
    datum = datum_from_document(_load_json(args.datum), pres)
    if args.morphism:
        doc = _load_json(args.morphism)
        sp = build_sp(enumerate_thick(pres))
        morphism = morphism_from_document(doc, datum, sp)
    if not check_support_datum(datum, pres).valid:
        if args.json:
            return {"datum_valid": False, "valid": False}, EXIT_INVALID
        return _lines(["datum: invalid (run `thicklat check` for details)",
                       "verdict: invalid"]), EXIT_INVALID
    if args.morphism:
        report = check_morphism(datum, sp, morphism)
        targets = [sp.space.points[t] for t in morphism.mapping]
    else:
        targets = pres.labels(datum.images)
        # its pullbacks are the datum's supports by construction
        report = MorphismReport(True)
    status = EXIT_OK if report.ok else EXIT_INVALID
    mapping = dict(zip(datum.space.points, targets))
    # the datum is valid, so a pullback equal to its support is closed and
    # continuity cannot fail once the pullbacks pass
    if args.json:
        return {"datum_valid": True, "map": mapping, "valid": report.ok,
                "pullback_failure": report.pullback_failure,
                "continuity_failure": None}, status
    lines = [f"{src}{POINT_ARROW}{dst}" for src, dst in mapping.items()]
    if report.pullback_failure is not None:
        lines += [f"pullback: failed at {report.pullback_failure}", "continuity: skipped"]
    else:
        lines += ["pullback: ok", "continuity: ok"]
    return _lines([*lines, f"verdict: {'valid' if report.ok else 'invalid'}"]), status


def _cmd_spectrum(pres: Presentation, args: argparse.Namespace) -> Output:
    spectrum = primes(pres)
    # of the support axioms only the unit can fail on the primes (see ``tensor``)
    valid = verify_tt_support(spectrum)
    status = EXIT_OK if valid else EXIT_INVALID
    if args.json:
        return {
            "primes": _Picks(tuple(map(_quote, pres.names)), spectrum.lattice.elements),
            "supp": _support_doc(spectrum)["sup"],
            "support_axioms": _datum_report_doc(PRIME_SUPPORT_AXIOMS, spectrum, pres),
            "unit_full": valid,
            "product_violations": [],
            "valid": valid,
        }, status
    return chain(_support_lines(spectrum, "primes", "supp"), _lines([
        *_datum_report_lines(PRIME_SUPPORT_AXIOMS, spectrum, pres),
        "unit: satisfied" if valid else "unit: violated (its support misses a prime)",
        "products: satisfied",
        f"verdict: {'valid' if valid else 'invalid'}"])), status


def _cmd_compare(pres: Presentation, args: argparse.Namespace) -> Output:
    spectrum = primes(pres)  # raises NoTensor before the enumeration
    # the comparison map is the inclusion of the primes, so "fixes primes"
    # and "injective" are theorems, not checks, and its size is theirs
    doc = {"spectrum_points": len(spectrum.lattice),
           "universal_points": count_thick(pres),
           "iota_fixes_primes": True, "injective": True}
    if args.json:
        return doc, EXIT_OK
    return _lines(f"{key.replace('_', ' ')}: {json.dumps(value)}"
                  for key, value in doc.items()), EXIT_OK


def _cmd_generate(pres: Presentation, args: argparse.Namespace) -> Output:
    # always a JSON document: it is the input format of `check` and `map`
    check_draw_parameters(args.points, args.seed)
    datum = random_support_datum(build_sp(enumerate_thick(pres)), args.points, args.seed)
    return datum_to_document(datum, pres), EXIT_OK


# name, help and handler of each subcommand, in --help order
SUBCOMMANDS = (
    ("enumerate", "list every thick subcategory", _cmd_enumerate),
    ("lattice", "order-theoretic report, optionally DOT", _cmd_lattice),
    ("space", "universal support space summary", _cmd_space),
    ("check", "verify a support datum", _cmd_check),
    ("map", "universal morphism from a support datum", _cmd_map),
    ("spectrum", "prime tensor ideals and their supports", _cmd_spectrum),
    ("compare", "prime spectrum versus universal space", _cmd_compare),
    ("generate", "seeded random support datum document", _cmd_generate),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state in the parser, so one serves every call
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        out, status = args.run(_load_presentation(args), args)
        chunks = _json_chunks(out) if isinstance(out, dict) else out
        if sys.stdout is None:  # started with no file descriptor 1
            raise OSError(errno.EBADF, "stdout is closed")
        # bytes where possible, so line endings stay LF on every platform; a
        # MemoryError while a chunk is rendered leaves the chunks before it written
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.writelines(chunks)
        else:
            buffer.writelines(map(str.encode, chunks))
            buffer.flush()
    except ThickLatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_ERROR
    except OSError as exc:  # handlers wrap their own file errors: only a write gets here
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        if sys.stdout is not None:  # so the flush at exit writes to nowhere, not fails
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    return status
