"""Run every workload untraced and traced, and print one table of all metrics.

    python3 bench/report.py [--seed N] [--seconds S]

Each run is a separate ``run.py`` process, one after another, so set-up
time and peak memory are measured as a fresh process sees them. The table
has one column per workload: the thirteen end-to-end metrics from the
untraced run, then the per-layer metrics (tracing overhead included) from the
traced run. Exits 1 when any run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads

RUN_TIMEOUT_S = 900


def result(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    path = run.OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    p = argparse.ArgumentParser(description="all workloads, all metrics, one table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    args = p.parse_args()
    columns = {}
    for name in workloads.WORKLOADS:
        untraced = result(name, args.seed, args.seconds, 0)
        traced = result(name, args.seed, args.seconds, 1)
        columns[name] = (untraced, traced)
    env = columns[workloads.WORKLOADS[0]][0]["environment"]
    print(f"python {env['python']}  nproc {env['nproc']}  commit {env['commit']}  "
          f"seed {args.seed}  seconds {args.seconds:g}")
    print(f"{'metric':<36}{'unit':<7}" + "".join(f"{w:>14}" for w in columns))
    for section, which in (("end_to_end", 0), ("per_layer", 1)):
        first = columns[workloads.WORKLOADS[0]][which][section]
        for metric, entry in first.items():
            cells = []
            for pair in columns.values():
                value = pair[which][section][metric]["value"]
                cells.append(f"{'n/a' if value is None else f'{value:.5g}':>14}")
            print(f"{metric:<36}{entry['unit']:<7}" + "".join(cells))
    bad = [f"{w} trace {t}: {r['failed']} of {r['attempted']} jobs failed"
           for w, pair in columns.items() for t, r in enumerate(pair) if r["failed"]]
    for line in bad:
        print(f"FAIL {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
