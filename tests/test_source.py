"""Gates read off the package source and its README."""

import ast
import importlib
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import thicklat
from unreached import statements

PACKAGE = Path(thicklat.__file__).parent
ROOT = Path(__file__).parent.parent


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


def _imports(tree: ast.AST, type_checking: bool = True):
    """(line, module) of every absolute import in ``tree``; with
    ``type_checking`` false, not those under ``if TYPE_CHECKING:``, which
    only a type checker runs."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if (not type_checking and isinstance(node, ast.If)
                and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
            todo += node.orelse
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module
        todo += ast.iter_child_nodes(node)


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_package_imports_only_itself_and_the_standard_library():
    # the package declares dependencies = []
    outside = [f"{name}:{line} {module}" for name, tree in _trees()
               for line, module in _imports(tree)
               if module.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# start-up: under -S -X importtime, with the package compiled afresh, import
# thicklat.cli took 54 ms with these and 38 ms without (medians of 7,
# 2-vCPU Xeon, Python 3.11)
SLOW_IMPORTS = {"dataclasses", "inspect", "typing"}


def test_package_imports_no_slow_module_at_run_time():
    found = [f"{name}:{line} {module}" for name, tree in _trees()
             for line, module in _imports(tree, type_checking=False)
             if module.partition(".")[0] in SLOW_IMPORTS]
    assert found == []


def test_importing_the_cli_loads_no_slow_module():
    # -S, as site can import typing itself, through an installed package's .pth file
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import thicklat.cli; "
            f"print(sorted({sorted(SLOW_IMPORTS)!r} & sys.modules.keys()))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout == "[]\n"


def test_names_the_benchmark_traces_still_resolve():
    # bench/spans.py patches these names by module attribute, so a rename or
    # deletion would otherwise surface only when the benchmark runs
    path = ROOT / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for _, module, attr in spans.FUNCTIONS + spans.SITES
               if not callable(getattr(importlib.import_module(f"thicklat.{module}"), attr, None))]
    assert missing == []
    assert callable(thicklat.space.FinSpace.is_closed)
    # the size counter for tensor.primes reads the spectrum's points by this name
    assert isinstance(thicklat.Spectrum.primes, property)


UNREACHED = ROOT / "tests" / "unreached.py"


def run_unreached(package_parent: Path) -> subprocess.CompletedProcess:
    # a fresh process keeps the tracer out of pytest and sees import-time calls
    return subprocess.run([sys.executable, str(UNREACHED), str(package_parent)],
                          capture_output=True, text=True, timeout=120)


def test_the_cli_traffic_enters_every_library_function():
    # the library keeps what the CLI and the README run: every case of the
    # case list and the Library example, past the reasoned exceptions
    run = run_unreached(PACKAGE.parent)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


@pytest.fixture(scope="module")
def mutated_unreached(tmp_path_factory):
    """The gate's lines on a copy of the package with one function that
    nothing calls, one exception that an import enters, and one exception
    deleted from the source."""
    parent = tmp_path_factory.mktemp("mutated")
    copy = shutil.copytree(PACKAGE, parent / "thicklat",
                           ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "lattice.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef nothing_calls_this() -> None:\n    pass\n")
    with open(copy / "bitsets.py", "a", encoding="utf-8") as fh:
        fh.write("\ncanonical_key(0)\n")
    tensor = (copy / "tensor.py").read_text(encoding="utf-8")
    primes = "    @property\n    def primes(self) -> tuple[int, ...]:\n        return self.lattice.elements\n"
    assert primes in tensor
    (copy / "tensor.py").write_text(tensor.replace(primes, "    pass\n"), encoding="utf-8")
    run = run_unreached(parent)
    assert run.returncode == 1 and run.stderr == ""
    return run.stdout.splitlines()


def test_the_gate_reports_a_function_nothing_calls(mutated_unreached):
    assert [line for line in mutated_unreached if line.startswith("unreached:")] == [
        "unreached: lattice.nothing_calls_this"]


def test_the_gate_reports_stale_exceptions(mutated_unreached):
    assert [line for line in mutated_unreached if line.startswith("stale exception:")] == [
        "stale exception: bitsets.canonical_key is entered",
        "stale exception: tensor.Spectrum.primes names no function or class"]


def test_readme_library_example_runs():
    # the first python block after "## Library", run as it stands
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    start = library.index("```python\n") + len("```python\n")
    exec(compile(library[start:library.index("```", start)], "README.md", "exec"), {})


def test_ci_runs_the_cli_only_through_the_case_list():
    # a command or a digest written into the workflow is a second list of
    # cases that nothing compares with tests/golden/cases.json
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    code = "\n".join(line.partition("#")[0] for line in workflow.splitlines())
    assert re.findall(r"\b(?:cmp|sha256sum)\b", code) == []
    assert re.findall(r"\S*\bthicklat\b\S*", code) == []
    assert code.count("python3 tests/run_cases.py") == 1


def test_the_statement_report_skips_docstrings_definitions_and_imports(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Doc."""\nimport os\nx = 1\n\n\nclass C:\n    """Doc."""\n    y = 2\n\n'
        '    def f(self):\n        """Doc."""\n        "not a docstring"\n        return os\n',
        encoding="utf-8")
    found = sorted((path.name, node.lineno, first) for path, node, first in statements(tmp_path))
    assert found == [("m.py", 3, "x = 1"), ("m.py", 8, "y = 2"),
                     ("m.py", 12, '"not a docstring"'), ("m.py", 13, "return os")]
