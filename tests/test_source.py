"""Gates read off the package source."""

import ast
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
