"""Run every CLI case of ``tests/golden/cases.json`` through ``thicklat``.

Usage, from anywhere, with the ``thicklat`` console script on ``PATH``::

    python3 tests/run_cases.py

Each case is one command line: its argv (paths relative to the repository
root, which is the working directory of every run), its exit status, its
stdout, either the golden file of the case's name or the ``[bytes, sha256]``
of an output too large to check in, optionally the ``.err`` golden of its
stderr, and optionally a ``why``. Without an ``.err`` golden, a case that
exits 0 or 1 writes nothing to stderr, and one that exits 2 writes one line
that starts ``error: ``. The script exits 1 at the first case that
differs, naming it, and 0 once every case matches. ``tests/test_golden.py``
runs the same list in-process through ``mismatch``.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# a hung enumeration fails its case instead of the whole CI job
TIMEOUT_S = 20


def load_cases() -> dict:
    """The cases of ``cases.json`` by name; a name listed twice is an error."""
    cases = {}
    for case in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8")):
        if cases.setdefault(case["name"], case) is not case:
            raise ValueError(f"case {case['name']} is listed twice")
    return cases


def mismatch(case: dict, status: int, stdout: bytes, stderr: bytes) -> str | None:
    """How one run of ``case`` differs from what the case records, or None."""
    if status != case["status"]:
        return f"exit status {status}, expected {case['status']}"
    if "stdout" in case:
        got = [len(stdout), hashlib.sha256(stdout).hexdigest()]
        if got != case["stdout"]:
            return f"stdout is {got}, expected {case['stdout']}"
    elif stdout != (GOLDEN / case["name"]).read_bytes():
        return f"stdout differs from tests/golden/{case['name']}"
    if "stderr" in case:
        if stderr != (GOLDEN / case["stderr"]).read_bytes():
            return f"stderr differs from tests/golden/{case['stderr']}"
    elif status == 2:
        if not stderr.startswith(b"error: ") or stderr.find(b"\n") != len(stderr) - 1:
            return f"stderr is {stderr!r}, expected one line starting 'error: '"
    elif stderr:
        return f"stderr is {stderr!r}, expected none"
    return None


def main() -> int:
    cases = load_cases()
    for name, case in cases.items():
        try:
            run = subprocess.run(["thicklat", *case["argv"]], cwd=ROOT,
                                 capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problem = f"no exit within {TIMEOUT_S} s"
        else:
            problem = mismatch(case, run.returncode, run.stdout, run.stderr)
        if problem:
            print(f"{name}: {problem}", file=sys.stderr)
            return 1
    print(f"{len(cases)} cases match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
