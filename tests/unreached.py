"""Print the library functions that the CLI's traffic never enters.

Usage, from anywhere::

    python3 tests/unreached.py [--statements] [PACKAGE_PARENT]

The traffic is every case of ``tests/golden/cases.json``, each argv run
through ``thicklat.cli.main`` from the repository root with its output
discarded, and then the README's Library example. ``PACKAGE_PARENT`` is the
directory holding the ``thicklat`` package to probe, ``src`` by default.

A call-event tracer, set before the package is imported so that it also
sees import-time calls, records each code object entered. A function is
matched to its code object by file and first line, which for a decorated
function is the line of its first decorator. Each function of the package
that the traffic never enters prints as ``unreached: module.qualified.name``,
unless ``EXCEPTIONS`` covers it. An exception that covers no unreached
function prints as ``stale exception: ...``, so the list can only shrink.
The script exits 1 when it prints anything, and 0 otherwise.

``--statements`` is a report, not a gate: a line-event tracer records each
line of the package that the same traffic runs, and every statement none of
whose lines ran prints as ``unreached statement: file.py:LINE: source``,
then a count. Docstrings, definitions and imports are not counted. It
always exits 0, and runs about three times as long as the gate.
"""

import ast
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# names the traffic may leave unentered, each with its reason; a class
# covers its methods
EXCEPTIONS = {
    "_value.Value": "its equality, hash and repr are the value contract the README "
                    "documents, and its __setattr__ and __delattr__ the immutability "
                    "guard; tests/test_values.py pins both",
    "bitsets.canonical_key": "bench/spans.py patches it by name",
    "tensor.enumerate_ideals": "bench/spans.py patches it by name",
    "tensor.comparison_map": "bench/spans.py patches it by name",
    "tensor.Spectrum.primes": "bench/spans.py's SIZES reads it",
}


def definitions(package: Path) -> tuple[dict[tuple[str, int], str], set[str]]:
    """Every function of the package by (file, first line), as a dotted
    name under its module, and the dotted names of its classes."""
    functions, classes = {}, set()
    for path in sorted(package.glob("*.py")):
        todo = [(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
        while todo:
            node, prefix = todo.pop()
            for child in ast.iter_child_nodes(node):
                name = f"{prefix}.{getattr(child, 'name', '')}"
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[str(path), first] = name
                elif isinstance(child, ast.ClassDef):
                    classes.add(name)
                else:
                    name = prefix
                todo.append((child, name))
    return functions, classes


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(package: Path) -> list[tuple[Path, ast.stmt, str]]:
    """Every statement of the package but docstrings, definitions and
    imports, with its file and its first line of source."""
    found = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        docstrings = {id(node.body[0]) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, *DEFINITIONS))
                      and ast.get_docstring(node, clean=False) is not None}
        found += [(path, node, lines[node.lineno - 1].strip()) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and id(node) not in docstrings
                  and not isinstance(node, (*DEFINITIONS, ast.Import, ast.ImportFrom))]
    return found


def run_traffic(parent: Path, tracer) -> None:
    """Import the package from ``parent`` and run the traffic under ``tracer``."""
    sys.path.insert(0, str(parent))
    sys.settrace(tracer)
    try:
        import thicklat.cli

        os.chdir(ROOT)  # case argv names its inputs relative to the root
        cases = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text(encoding="utf-8"))
        shown = sys.stdout, sys.stderr
        with open(os.devnull, "w") as sink:
            sys.stdout = sys.stderr = sink
            try:
                for case in cases:
                    thicklat.cli.main(case["argv"])
            finally:
                sys.stdout, sys.stderr = shown
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        library = readme[readme.index("\n## Library\n"):]
        start = library.index("```python\n") + len("```python\n")
        exec(compile(library[start:library.index("```", start)], "README.md", "exec"), {})
    finally:
        sys.settrace(None)
    if Path(thicklat.__file__).parent.resolve() != (parent / "thicklat").resolve():
        raise SystemExit(f"error: imported thicklat from {thicklat.__file__}, not {parent}")


def problems(parent: Path) -> list[str]:
    entered = set()

    def tracer(frame, event, arg):
        # call events only: no local tracer is returned
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    run_traffic(parent, tracer)
    functions, classes = definitions(parent / "thicklat")
    unreached = sorted(name for key, name in functions.items() if key not in entered)

    def covered(name: str, entry: str) -> bool:
        return name == entry or name.startswith(entry + ".")

    found = [f"unreached: {name}" for name in unreached
             if not any(covered(name, entry) for entry in EXCEPTIONS)]
    for entry in EXCEPTIONS:
        if not any(covered(name, entry) for name in [*functions.values(), *classes]):
            found.append(f"stale exception: {entry} names no function or class")
        elif not any(covered(name, entry) for name in unreached):
            found.append(f"stale exception: {entry} is entered")
    return found


def unreached_statements(parent: Path) -> list[str]:
    package = parent / "thicklat"
    files = {str(path) for path in package.glob("*.py")}
    ran = set()

    def line_tracer(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def tracer(frame, event, arg):
        # trace lines only in the package's own frames, which keeps the run short
        return line_tracer if frame.f_code.co_filename in files else None

    run_traffic(parent, tracer)
    return [f"unreached statement: {path.name}:{node.lineno}: {first}"
            for path, node, first in sorted(statements(package), key=lambda s: (s[0], s[1].lineno))
            if not any((str(path), line) in ran
                       for line in range(node.lineno, node.end_lineno + 1))]


def main() -> int:
    args = sys.argv[1:]
    report = "--statements" in args
    if report:
        args.remove("--statements")
    parent = (Path(args[0]) if args else ROOT / "src").resolve()
    found = unreached_statements(parent) if report else problems(parent)
    for line in found:
        print(line)
    if report:
        print(f"{len(found)} unreached statements")
        return 0
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
