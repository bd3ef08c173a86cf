"""Gates read off the package source."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import thicklat

PACKAGE = Path(thicklat.__file__).parent


def test_package_has_no_assert_statements():
    # invariants that are theorems are proved by tests: an assert vanishes
    # under python -O and escapes the CLI as a traceback when it fires
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_itself_and_the_standard_library():
    # the package declares dependencies = []
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_names_the_benchmark_traces_still_resolve():
    # bench/spans.py patches these names by module attribute, so a rename or
    # deletion would otherwise surface only when the benchmark runs
    path = Path(__file__).parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for _, module, attr in spans.FUNCTIONS + spans.SITES
               if not callable(getattr(importlib.import_module(f"thicklat.{module}"), attr, None))]
    assert missing == []
    assert callable(thicklat.space.FinSpace.is_closed)
    # the size counter for tensor.primes reads the spectrum's points by this name
    assert isinstance(thicklat.Spectrum.primes, property)
