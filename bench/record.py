"""Record the input pools and the reference outputs the benchmark checks against.

    python3 bench/record.py

Run from a checkout at the commit whose outputs are the reference. For each
random input family it walks generator integers 0, 1, 2, ... and keeps the
ones whose work at this commit falls inside the family's band, until the
pool is full; the bands keep pass times close whichever entries a seed
picks. It then runs every CLI job of every workload over the whole pools,
checks each output with its independent oracle, and writes the exit status
and stdout sha256 of every job key, with the pools, to ``bench/expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

POOL_SIZE = 24
# family: (generator, {count: (low, high)}); counts are taken at this commit
BANDS = {
    "sparse": (gen.sparse_presentation, {"closure.thick_closure": (54_000, 62_000),
                                         "closure.sets_emitted": (29_000, 33_000)}),
    "dense": (gen.dense_presentation, {"closure.thick_closure": (10_500, 12_500),
                                       "closure.sets_emitted": (2_600, 3_400)}),
    "small": (gen.small_presentation, {"lattice.join_closures": (42_000, 48_000)}),
    "tensor": (gen.tensor_presentation, {"tensor.ideal_closure": (2_700, 3_300)}),
}
PLAIN_POOLS = ("datum", "generate")  # every generator integer costs the same


def counts(thicklat, family: str, doc: dict) -> dict[str, int]:
    """Calls and counters of the family's main computation, set-up excluded."""
    pres = thicklat.parse_presentation(json.dumps(doc))
    tracer = spans.Tracer()
    tracer.install()
    try:
        if family == "small":
            lattice = thicklat.closure.enumerate_thick(pres)
            tracer.begin(keep=False)
            thicklat.lattice.analyze(lattice)
        elif family == "tensor":
            thicklat.tensor.primes(pres)
        else:
            thicklat.closure.enumerate_thick(pres)
    finally:
        tracer.uninstall()
    return {**tracer.group.calls, **tracer.group.counters}


def pools(thicklat) -> dict[str, list[int]]:
    out = {}
    for family, (make, band) in BANDS.items():
        kept, g = [], 0
        while len(kept) < POOL_SIZE:
            got = counts(thicklat, family, make(g))
            if all(low <= got.get(name, 0) <= high for name, (low, high) in band.items()):
                kept.append(g)
            g += 1
        out[family] = kept
        print(f"{family}: kept {POOL_SIZE} of {g} generator integers", flush=True)
    for family in PLAIN_POOLS:
        out[family] = list(range(POOL_SIZE))
    return out


def main() -> int:
    thicklat = workloads.fresh_thicklat()
    recorded = {"commit": run.commit(), "pools": pools(thicklat), "jobs": {}}
    for name in workloads.WORKLOADS:
        w = workloads.Workload(name, 0, run.ROOT, recorded["pools"])
        w.picks = {kind: recorded["pools"][kind] for kind in w.picks}
        w.setup(thicklat)
        for job in w.jobs():
            if job.command == "roundtrip" or job.key in recorded["jobs"]:
                continue
            status, out, err = run.run_cli(thicklat, job.cli_argv)
            problem = err or (job.check(out) if job.check else None)
            if problem:
                print(f"{job.key}: {problem}", file=sys.stderr)
                return 1
            recorded["jobs"][job.key] = {"status": status,
                                         "sha256": hashlib.sha256(out).hexdigest()}
        print(f"{name}: recorded {len(recorded['jobs'])} job keys so far", flush=True)
    (run.BENCH / "expected.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
