"""Command-line interface with byte-stable text and JSON outputs.

Exit statuses: 0 success or checked-valid, 1 checked-invalid (an axiom or
morphism check said no), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bitsets import bits
from .closure import enumerate_thick
from .errors import InvalidParameter, SchemaError, ThickLatError
from .lattice import DEFAULT_MAX_SIZE, analyze, export_dot
from .presentation import Presentation, builtin, parse_presentation
from .space import (
    ROTATIONS,
    DatumReport,
    MorphismReport,
    SupportSpace,
    build_sp,
    check_morphism,
    check_support_datum,
    datum_from_document,
    datum_to_document,
    morphism_from_document,
    random_support_datum,
    universal_morphism,
)
from .tensor import comparison_map, primes, verify_tt_support

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thicklat",
        description="Thick subcategory lattices, support spaces, and prime spectra "
                    "of finite presentations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--builtin", metavar="FAMILY[:N]",
                       help="use a builtin presentation (a2, an:N, point, product:N)")
        p.add_argument("--input", metavar="PATH", help="read a presentation document")
        p.add_argument("--json", action="store_true", help="emit a JSON document")

    p = sub.add_parser("enumerate", help="list every thick subcategory")
    add_common(p)

    p = sub.add_parser("lattice", help="order-theoretic report, optionally DOT")
    add_common(p)
    p.add_argument("--dot", nargs="?", const="-", metavar="PATH",
                   help="emit the Hasse diagram as DOT (to PATH, or stdout)")
    p.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE, metavar="COUNT",
                   help="largest lattice the law checks accept")

    p = sub.add_parser("space", help="universal support space summary")
    add_common(p)

    p = sub.add_parser("check", help="verify a support datum")
    add_common(p)
    p.add_argument("--datum", required=True, metavar="PATH")

    p = sub.add_parser("map", help="universal morphism from a support datum")
    add_common(p)
    p.add_argument("--datum", required=True, metavar="PATH")
    p.add_argument("--morphism", metavar="PATH",
                   help="check this morphism instead of computing the canonical one")

    p = sub.add_parser("spectrum", help="prime tensor ideals and their supports")
    add_common(p)

    p = sub.add_parser("compare", help="prime spectrum versus universal space")
    add_common(p)

    p = sub.add_parser("generate", help="seeded random support datum document")
    add_common(p)
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    p.add_argument("--points", type=int, default=4, metavar="COUNT")

    return parser


def _load_presentation(args: argparse.Namespace) -> Presentation:
    if args.builtin and args.input:
        raise InvalidParameter("choose exactly one of --builtin and --input")
    if args.builtin:
        family, _, raw_n = args.builtin.partition(":")
        n = None
        if raw_n:
            try:
                n = int(raw_n)
            except ValueError:
                raise InvalidParameter(f"builtin parameter {raw_n!r} is not an integer")
        return builtin(family, n)
    if args.input:
        return parse_presentation(_read_text(args.input))
    raise InvalidParameter("an input source is required: --builtin or --input")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidParameter(f"cannot read {path}: {exc}") from exc


def _load_json(path: str) -> object:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def _json_text(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _bool(value: bool) -> str:
    return "true" if value else "false"


# --------------------------------------------------------------------------
# Subcommands


def _cmd_enumerate(args: argparse.Namespace) -> tuple[str, int]:
    pres = _load_presentation(args)
    lat = enumerate_thick(pres)
    if args.json:
        doc = {
            "count": len(lat.elements),
            "subcategories": [[pres.names[i] for i in bits(e)] for e in lat.elements],
        }
        return _json_text(doc), EXIT_OK
    return "\n".join(lat.labels()) + "\n", EXIT_OK


def _cmd_lattice(args: argparse.Namespace) -> tuple[str, int]:
    pres = _load_presentation(args)
    lat = enumerate_thick(pres)
    if args.dot is not None:
        dot_text = export_dot(lat)
        if args.dot == "-":
            return dot_text, EXIT_OK
        try:
            Path(args.dot).write_text(dot_text, encoding="utf-8", newline="\n")
        except OSError as exc:
            raise InvalidParameter(f"cannot write {args.dot}: {exc}") from exc
    report = analyze(lat, max_size=args.max_size)
    if args.json:
        def witness_doc(w):
            if w is None:
                return None
            return {k: [pres.names[i] for i in bits(getattr(w, k))]
                    for k in ("x", "y", "z", "lhs", "rhs")}
        doc = {
            "size": report.size,
            "height": report.height,
            "atoms": [[pres.names[i] for i in bits(a)] for a in report.atoms],
            "distributive": report.is_distributive,
            "distributive_witness": witness_doc(report.distributive_witness),
            "modular": report.is_modular,
            "modular_witness": witness_doc(report.modular_witness),
        }
        return _json_text(doc), EXIT_OK
    lines = [
        f"size: {report.size}",
        f"height: {report.height}",
        "atoms: " + (", ".join(pres.label(a) for a in report.atoms)
                     if report.atoms else "none"),
        f"distributive: {_bool(report.is_distributive)}",
    ]
    if report.distributive_witness is not None:
        lines.append("distributive witness: " + _witness_text(pres, report.distributive_witness))
    lines.append(f"modular: {_bool(report.is_modular)}")
    if report.modular_witness is not None:
        lines.append("modular witness: " + _witness_text(pres, report.modular_witness))
    return "\n".join(lines) + "\n", EXIT_OK


def _witness_text(pres: Presentation, w) -> str:
    return (f"x={pres.label(w.x)} y={pres.label(w.y)} z={pres.label(w.z)} "
            f"lhs={pres.label(w.lhs)} rhs={pres.label(w.rhs)}")


def _cmd_space(args: argparse.Namespace) -> tuple[str, int]:
    pres = _load_presentation(args)
    sp = build_sp(enumerate_thick(pres))
    sup, lines = _supports(sp, "points", "sup")
    if args.json:
        return _json_text({"points": list(sp.space.points), "sup": sup}), EXIT_OK
    return "\n".join(lines) + "\n", EXIT_OK


def _supports(sp: SupportSpace, heading: str, sup_name: str) -> tuple[dict, list[str]]:
    """Point labels per indecomposable's support, as a JSON mapping and as
    text lines after the point count and the points themselves."""
    names = sp.lattice.presentation.names
    doc = {name: sp.space.point_labels(sp.sup[a]) for a, name in enumerate(names)}
    lines = [f"{heading}: {len(sp.space.points)}", *sp.space.points]
    lines += [f"{sup_name}({name}): " + (", ".join(labels) or "(empty)")
              for name, labels in doc.items()]
    return doc, lines


def _cmd_check(args: argparse.Namespace) -> tuple[str, int]:
    pres = _load_presentation(args)
    datum = datum_from_document(_load_json(args.datum), pres)
    report = check_support_datum(datum, pres)
    status = EXIT_OK if report.valid else EXIT_INVALID
    if args.json:
        return _json_text(_datum_report_doc(report, datum, pres)), status
    return _datum_report_text(report, datum, pres), status


def _datum_report_doc(report: DatumReport, datum, pres: Presentation) -> dict:
    return {
        "structural": [list(entry) for entry in report.structural],
        "triangle_violations": [
            {
                "triangle": v.triangle,
                "rotation": ROTATIONS[v.rotation],
                "points": datum.space.point_labels(v.excess),
            }
            for v in report.triangle_violations
        ],
        "unclosed": [pres.names[a] for a in report.unclosed],
        "valid": report.valid,
    }


def _datum_report_lines(report: DatumReport, datum, pres: Presentation) -> list[str]:
    lines = [f"{axiom}: satisfied ({note})" for axiom, note in report.structural]
    if report.triangle_violations:
        lines.append(f"triangles: {len(report.triangle_violations)} violation(s)")
        for v in report.triangle_violations:
            tri = pres.triangles[v.triangle]
            shape = " -> ".join(_expr_text(pres, e) for e in (tri.a, tri.b, tri.c))
            stray = ", ".join(datum.space.point_labels(v.excess))
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


def _datum_report_text(report: DatumReport, datum, pres: Presentation) -> str:
    lines = _datum_report_lines(report, datum, pres)
    lines.append(f"verdict: {'valid' if report.valid else 'invalid'}")
    return "\n".join(lines) + "\n"


def _expr_text(pres: Presentation, expr) -> str:
    return "+".join(pres.expr_names(expr)) if expr else "0"


def _cmd_map(args: argparse.Namespace) -> tuple[str, int]:
    pres = _load_presentation(args)
    sp = build_sp(enumerate_thick(pres))
    datum = datum_from_document(_load_json(args.datum), pres)
    datum_report = check_support_datum(datum, pres)
    if not datum_report.valid:
        text = "datum: invalid (run `thicklat check` for details)\nverdict: invalid\n"
        if args.json:
            return _json_text({"datum_valid": False, "valid": False}), EXIT_INVALID
        return text, EXIT_INVALID
    if args.morphism:
        morphism = morphism_from_document(_load_json(args.morphism), datum, sp)
    else:
        morphism = universal_morphism(datum, sp)
    report = check_morphism(datum, sp, morphism)
    status = EXIT_OK if report.ok else EXIT_INVALID
    mapping_pairs = [
        (datum.space.points[x], sp.space.points[t])
        for x, t in enumerate(morphism.mapping)
    ]
    if args.json:
        doc = {
            "datum_valid": True,
            "map": dict(mapping_pairs),
            "pullback_failure": report.pullback_failure,
            "continuity_failure": report.continuity_failure,
            "valid": report.ok,
        }
        return _json_text(doc), status
    lines = [f"{src} -> {dst}" for src, dst in mapping_pairs]
    lines.extend(_morphism_report_lines(report))
    lines.append(f"verdict: {'valid' if report.ok else 'invalid'}")
    return "\n".join(lines) + "\n", status


def _morphism_report_lines(report: MorphismReport) -> list[str]:
    if report.pullback_failure is not None:
        return [f"pullback: failed at {report.pullback_failure}", "continuity: skipped"]
    if report.continuity_failure is not None:
        return ["pullback: ok", f"continuity: failed at {report.continuity_failure}"]
    return ["pullback: ok", "continuity: ok"]


def _cmd_spectrum(args: argparse.Namespace) -> tuple[str, int]:
    pres = _load_presentation(args)
    spectrum = primes(pres)
    report = verify_tt_support(spectrum, pres)
    status = EXIT_OK if report.valid else EXIT_INVALID
    supp, lines = _supports(spectrum, "primes", "supp")
    if args.json:
        doc = {
            "primes": [[pres.names[i] for i in bits(q)] for q in spectrum.primes],
            "supp": supp,
            "support_axioms": _datum_report_doc(
                report.support_report, spectrum.as_datum(), pres),
            "unit_full": report.unit_full,
            "product_violations": [
                [pres.names[x], pres.names[y]] for x, y in report.product_violations
            ],
            "valid": report.valid,
        }
        return _json_text(doc), status
    lines.extend(_datum_report_lines(report.support_report, spectrum.as_datum(), pres))
    lines.append("unit: satisfied" if report.unit_full
                 else "unit: violated (its support misses a prime)")
    if report.product_violations:
        lines.append(f"products: {len(report.product_violations)} violation(s)")
        for x, y in report.product_violations:
            lines.append(f"  pair ({pres.names[x]}, {pres.names[y]})")
    else:
        lines.append("products: satisfied")
    lines.append(f"verdict: {'valid' if report.valid else 'invalid'}")
    return "\n".join(lines) + "\n", status


def _cmd_compare(args: argparse.Namespace) -> tuple[str, int]:
    pres = _load_presentation(args)
    _, comp = comparison_map(primes(pres), enumerate_thick(pres))
    # the comparison map is the inclusion of the primes, so "fixes primes"
    # and "injective" are theorems, not checks
    if args.json:
        doc = {
            "spectrum_points": comp.spectrum_points,
            "universal_points": comp.universal_points,
            "iota_fixes_primes": True,
            "injective": True,
        }
        return _json_text(doc), EXIT_OK
    lines = [
        f"spectrum points: {comp.spectrum_points}",
        f"universal points: {comp.universal_points}",
        "iota fixes primes: true",
        "injective: true",
    ]
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> tuple[str, int]:
    pres = _load_presentation(args)
    sp = build_sp(enumerate_thick(pres))
    datum = random_support_datum(sp, args.points, args.seed)
    return _json_text(datum_to_document(datum, pres)), EXIT_OK


COMMANDS = {
    "enumerate": _cmd_enumerate,
    "lattice": _cmd_lattice,
    "space": _cmd_space,
    "check": _cmd_check,
    "map": _cmd_map,
    "spectrum": _cmd_spectrum,
    "compare": _cmd_compare,
    "generate": _cmd_generate,
}


def _emit(text: str) -> None:
    # write bytes when possible so line endings stay LF on every platform
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is not None:
        buffer.write(text.encode("utf-8"))
        buffer.flush()
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, status = COMMANDS[args.command](args)
    except ThickLatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    _emit(text)
    return status
