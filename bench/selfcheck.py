"""Self-check of the benchmark harness, run outside the timed runs.

    python3 bench/selfcheck.py [--seed N]

For every workload at one seed it confirms three things and prints one
PASS or FAIL line for each:

1. the bytes and exit status captured in-process from ``cli.main`` match a
   real ``python -m thicklat`` subprocess, for one job per subcommand;
2. every deterministic count (calls, counters, calls per job) repeats
   exactly across two traced passes;
3. tracing leaves every stdout digest and exit status unchanged.

Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads  # noqa: E402

SUBPROCESS_TIMEOUT_S = 300


def outputs(thicklat, workload, jobs) -> dict[str, tuple[int, str]]:
    """Exit status and stdout sha256 of every CLI job; round trips just run."""
    got = {}
    for job in jobs:
        if job.command == "roundtrip":
            workload.roundtrip(thicklat, int(job.argv[0]))
            continue
        status, out, _ = run.run_cli(thicklat, job.cli_argv)
        got[job.key] = (status, hashlib.sha256(out).hexdigest())
    return got


def traced_outputs(thicklat, workload, jobs):
    tracer = spans.Tracer()
    tracer.install()
    try:
        got = outputs(thicklat, workload, jobs)
    finally:
        tracer.uninstall()
    g = tracer.group
    return got, (g.calls, g.counters, g.child_calls, g.job_calls)


def subprocess_matches(thicklat, job) -> bool:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    proc = subprocess.run([sys.executable, "-m", "thicklat", *job.cli_argv], cwd=run.ROOT,
                          env=env, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
    status, out, _ = run.run_cli(thicklat, job.cli_argv)
    return (proc.returncode, proc.stdout) == (status, out)


def main() -> int:
    p = argparse.ArgumentParser(description="self-check of the benchmark harness")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    pools = workloads.load_expected(run.BENCH)["pools"]
    results = []
    covered: set[str] = set()
    for name in workloads.WORKLOADS:
        w = workloads.Workload(name, args.seed, run.ROOT, pools)
        thicklat = workloads.fresh_thicklat()
        w.setup(thicklat)
        jobs = w.jobs()
        for job in jobs:
            if job.command not in covered and not job.key.startswith(("roundtrip/", "smoke/")):
                covered.add(job.command)
                ok = subprocess_matches(thicklat, job)
                results.append((ok, f"{name}: in-process output of {job.key} matches "
                                    "a python -m thicklat subprocess"))
        plain = outputs(thicklat, w, jobs)
        first, counts1 = traced_outputs(thicklat, w, jobs)
        second, counts2 = traced_outputs(thicklat, w, jobs)
        results.append((counts1 == counts2,
                        f"{name}: counts repeat exactly across two traced passes"))
        results.append((plain == first == second,
                        f"{name}: tracing leaves all {len(plain)} digests and statuses unchanged"))
    results.append((covered == set(run.COMMANDS),
                    f"subprocess comparison covered {len(covered)} of {len(run.COMMANDS)} "
                    "subcommands"))
    for ok, line in results:
        print(f"{'PASS' if ok else 'FAIL'} {line}")
    return 0 if all(ok for ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
