"""Run one thicklat benchmark workload and print its metrics.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 35 --trace 0

Run from a checkout that has the package sources under ``src/``. One
client runs the workload's jobs one after another in this process (a closed
loop with a single client): each CLI job calls ``thicklat.cli.main(argv)``
with stdout captured as bytes. Set-up, a fresh import included, runs
``SETUP_REPS`` times; then passes over the job list repeat until
``--seconds`` have gone by. Times are scaled by a host speed reference
timed between jobs (see ``scaled``). Every job is checked
against its recorded exit status and stdout sha256, and its first output
against an independent oracle.

With ``--trace 0`` every pass is untraced and the last stdout line carries
the end-to-end metrics. With ``--trace 1`` passes alternate untraced and
traced (spans from ``spans.py``), and the last line carries the per-layer
metrics, including tracing overhead. Lines above it are a readable report;
the full result, with the run environment, goes to ``.bench_out/``.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

COMMANDS = ("enumerate", "lattice", "space", "spectrum", "compare", "check", "map", "generate")
SHOWN_ERRORS = 5
SETUP_REPS = 10

# Host speed reference: a fixed pure-Python sweep from the benchmark's own
# oracle (closed sets of one small presentation, bitmask work like the
# program's), timed between jobs. Times are reported scaled to a host on
# which one sample takes REFERENCE_S.
REFERENCE = oracle.Doc(gen.small_presentation(0))
REFERENCE_S = 0.0025
REFERENCE_EVERY_S = 0.25  # job time between two samples


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Capture:
    """Stands in for sys.stdout; the CLI writes bytes to ``buffer``."""

    def __init__(self) -> None:
        self.buffer = io.BytesIO()

    def write(self, text: str) -> int:
        self.buffer.write(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:
        pass


def run_cli(thicklat, argv: list[str]) -> tuple[int, bytes, str]:
    out, err = Capture(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        status = thicklat.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        status = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout, sys.stderr = saved
    return status, out.buffer.getvalue(), err.getvalue()


def reference_sample() -> float:
    t0 = perf_counter()
    REFERENCE.closed_sets()
    return perf_counter() - t0


class Pass:
    """Per-job times, host speed samples and outcomes of one pass."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.times: list[float] = []
        self.reference: list[float] = []
        self.failed = 0

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def slowdown(self) -> float:
        """Host slowdown during the pass, relative to the reference host."""
        return sum(self.reference) / len(self.reference) / REFERENCE_S


class Runner:
    def __init__(self, workload, expected: dict, tracer) -> None:
        self.workload = workload
        self.expected = expected["jobs"]
        self.tracer = tracer
        self.checked: set[str] = set()
        self.pending: list[tuple[object, bytes]] = []
        self.errors: list[str] = []

    def run_pass(self, thicklat, jobs, traced: bool) -> Pass:
        rec = Pass(traced)
        tracer = self.tracer if traced else None
        gc.collect()
        since_sample = REFERENCE_EVERY_S
        for job in jobs:
            if since_sample >= REFERENCE_EVERY_S:
                rec.reference.append(reference_sample())
                since_sample = 0.0
            if tracer:
                tracer.set_job(job.key)
            if job.command == "roundtrip":
                t0 = perf_counter()
                try:
                    problem = self.workload.roundtrip(thicklat, int(job.argv[0]))
                except Exception as exc:  # a traceback is a failed job, not a stopped run
                    problem = f"raised {exc!r}"
                dt = perf_counter() - t0
            else:
                t0 = perf_counter()
                try:
                    status, out, err = run_cli(thicklat, job.cli_argv)
                    problem = None
                except Exception as exc:  # a traceback is a failed job, not a stopped run
                    status, out, err, problem = None, b"", "", f"raised {exc!r}"
                dt = perf_counter() - t0
                if tracer:
                    tracer.count("cli.stdout_bytes", len(out))
                problem = problem or self.verify(job, status, out, err)
            rec.times.append(dt)
            since_sample += dt
            if problem:
                rec.failed += 1
                self.error(f"{job.key}: {problem}")
        rec.reference.append(reference_sample())
        return rec

    def error(self, line: str) -> None:
        if len(self.errors) < SHOWN_ERRORS:
            self.errors.append(line)

    def verify(self, job, status, out: bytes, err: str) -> str | None:
        want = self.expected.get(job.key)
        if want is None:
            return "no recorded exit status and digest"
        if status != want["status"]:
            return f"exit status {status}, expected {want['status']}"
        if err:
            return f"wrote to stderr: {err.strip()[:200]}"
        if hashlib.sha256(out).hexdigest() != want["sha256"]:
            return "stdout differs from the recorded digest"
        if job.check is not None and job.key not in self.checked:
            self.checked.add(job.key)
            self.pending.append((job, out))
        return None

    def run_oracles(self) -> int:
        """Oracle checks of each job's first output, deferred until after the
        peak memory reading so that parsing outputs does not count in it."""
        failed = 0
        for job, out in self.pending:
            try:
                problem = job.check(out)
            except Exception as exc:  # malformed output fails the job
                problem = f"oracle could not read the output: {exc!r}"
            if problem:
                failed += 1
                self.error(f"{job.key}: {problem}")
        self.pending.clear()
        return failed


def commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def scaled(passes: list[Pass], pick) -> float:
    """Median over passes of ``pick(pass)`` divided by the pass's slowdown.

    The vCPUs of a shared virtual machine slow down by up to half for
    seconds to minutes at a time. On a 2-vCPU machine, medians of raw pass
    times spread by 0.22-0.24 (quartile distance over median, ten 30-second
    runs), while program time over reference time, pass by pass, varied
    2.5 times less than program time alone.
    """
    return median(pick(p) / p.slowdown for p in passes)


def layer_metrics(declared: list[dict], setups, passes, overhead: float) -> tuple[dict, list[str]]:
    """The declared per-layer metrics for one set-up plus one pass, and any
    count that moved.

    ``<span>.calls`` and ``<span>.self_s`` come from spans, other names from
    counters, except the two ratios and the tracing overhead (traced minus
    untraced pass time). Counts must repeat exactly across set-ups and across
    traced passes; times are medians.
    """
    unsteady = []

    def exact(pick, what):
        total = 0
        for groups in (setups, passes):
            values = [pick(g) for g in groups]
            if len(set(values)) > 1:
                unsteady.append(f"{what} varies: {values}")
            total += values[0]
        return total

    def counter(name):
        return exact(lambda g: g.counters.get(name, 0), name)

    def value(name):
        span, _, kind = name.rpartition(".")
        if name == "closure.yield_ratio":
            closures = exact(lambda g: g.child_calls.get(
                ("closure.enumerate_thick", "closure.thick_closure"), 0), "lectic closures")
            return counter("closure.sets_emitted") / closures if closures else 0.0
        if name == "tensor.prime_ratio":
            ideals = counter("tensor.ideals")
            return counter("tensor.primes_found") / ideals if ideals else 0.0
        if name == "trace.overhead_s":
            return overhead
        if kind == "self_s":
            return sum(median(g.self_s.get(span, 0.0) for g in groups)
                       for groups in (setups, passes))
        if kind == "calls" and span in spans.SPAN_NAMES:
            return exact(lambda g: g.calls.get(span, 0), f"{span} calls")
        return counter(name)

    return {m["name"]: (value(m["name"]), m["unit"]) for m in declared}, unsteady


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "thicklat" / "__init__.py").is_file():
        sys.stderr.write(f"error: no thicklat sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    expected = workloads.load_expected(BENCH)
    try:
        workload = workloads.Workload(args.workload, args.seed, ROOT, expected["pools"])
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    tracer = spans.Tracer() if args.trace else None
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    setup_times: list[float] = []
    setup_scaled: list[float] = []
    setup_groups = []
    for rep in range(SETUP_REPS):
        if rep:
            gc.collect()  # the previous import's modules are garbage now
        before = reference_sample()
        t0 = T_START if rep == 0 else perf_counter()
        thicklat = workloads.fresh_thicklat()
        if not Path(thicklat.__file__).resolve().is_relative_to(SRC):
            sys.stderr.write(f"error: imported thicklat from {thicklat.__file__}, not {SRC}\n")
            return 2
        if tracer:
            tracer.begin(keep=rep == 0)
            tracer.set_job("setup")
            tracer.install()
        workload.setup(thicklat)
        setup_times.append(perf_counter() - t0)
        slowdown = (before + reference_sample()) / 2 / REFERENCE_S
        setup_scaled.append(setup_times[-1] / slowdown)
        if tracer:
            tracer.uninstall()
            setup_groups.append(tracer.group)

    jobs = workload.jobs()
    runner = Runner(workload, expected, tracer)
    passes: list[Pass] = []
    pass_groups = []
    deadline = perf_counter() + args.seconds
    while len(passes) < (2 if tracer else 1) or perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.begin(keep=not pass_groups)
            tracer.install()
        try:
            passes.append(runner.run_pass(thicklat, jobs, traced))
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            pass_groups.append(tracer.group)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = [p for p in passes if not p.traced]
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes) + runner.run_oracles()
    layers: dict = {}
    if tracer:
        overhead = (scaled([p for p in passes if p.traced], lambda p: p.wall)
                    - scaled(plain, lambda p: p.wall))
        layers, unsteady = layer_metrics(declared["per_layer"], setup_groups, pass_groups,
                                         overhead)
        failed += len(unsteady)
        for line in unsteady:
            runner.error(line)

    def summed(command: str) -> float:
        return scaled(plain, lambda p: sum(
            t for t, job in zip(p.times, jobs) if job.command == command))

    roundtrips = sum(job.command == "roundtrip" for job in jobs)
    e2e = {
        "setup_s": (median(setup_scaled), "s"),
        "wall_s": (scaled(plain, lambda p: p.wall), "s"),
        **{f"{c}_s": (summed(c), "s") for c in COMMANDS},
        "roundtrip_per_s": (roundtrips / summed("roundtrip") if roundtrips else None, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
    }

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(pass_groups),
        "setups": SETUP_REPS,
        "reference_s": REFERENCE_S,
        "median_slowdown": median(p.slowdown for p in plain),
        "jobs_per_pass": len(jobs),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "environment": env,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "per_job_calls": pass_groups[0].job_calls if pass_groups else {},
        "raw_setup_s": setup_times,
        "raw_pass_s": [[p.wall, p.slowdown, p.traced] for p in passes],
        "attempted": attempted,
        "failed": failed,
        "errors": runner.errors,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        tracer.write_spans(OUT / f"spans-{stem}.tsv.gz")

    print(f"thicklat benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"python {env['python']}  nproc {env['nproc']}  commit {env['commit']}  "
          f"passes {len(plain)} untraced, {len(pass_groups)} traced  "
          f"set-ups {SETUP_REPS}  jobs/pass {len(jobs)}  "
          f"median slowdown {env['median_slowdown']:.3f}")
    print(f"end-to-end (medians over untraced passes and set-ups, scaled to a host where "
          f"one reference sample takes {REFERENCE_S * 1000:g} ms)")
    for name, (value, unit) in e2e.items():
        shown = "n/a (no such jobs)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<24} {shown}")
    if layers:
        print("per-layer (one set-up plus one traced pass)")
        for name, (value, unit) in layers.items():
            print(f"  {name:<36} {value:.6g} {unit}")
    for line in runner.errors:
        print(f"FAIL {line}")
    chosen = [m["name"] for m in declared["per_layer" if tracer else "end_to_end"]]
    reported = layers if tracer else e2e
    metrics = {k: {"value": reported[k][0], "unit": reported[k][1]} for k in chosen}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
