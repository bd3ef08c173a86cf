"""Spans around calls into thicklat's public functions, from outside the package.

``Tracer.install`` replaces each traced function, wherever a thicklat module
holds a reference to it, with a wrapper that records a span: name, start,
end, parent span and job id. ``uninstall`` puts the originals back. Nothing
under ``src/`` changes and only this process is affected.

Self time is a span's duration minus the durations of its direct child
spans. Per-name calls, self time and site counters are summed per group (one
setup or one pass); the raw spans of the first setup and the first traced
pass are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# (span name, module, public function); a name may cover several functions
FUNCTIONS = (
    ("presentation.parse", "presentation", "builtin"),
    ("presentation.parse", "presentation", "parse_presentation"),
    ("closure.thick_closure", "closure", "thick_closure"),
    ("closure.enumerate_thick", "closure", "enumerate_thick"),
    ("bitsets.canonical_key", "bitsets", "canonical_key"),
    ("lattice.analyze", "lattice", "analyze"),
    ("lattice.covering_pairs", "lattice", "covering_pairs"),
    ("lattice.export_dot", "lattice", "export_dot"),
    ("space.build_sp", "space", "build_sp"),
    ("space.random_support_datum", "space", "random_support_datum"),
    ("space.check_support_datum", "space", "check_support_datum"),
    ("space.universal_morphism", "space", "universal_morphism"),
    ("space.check_morphism", "space", "check_morphism"),
    ("tensor.ideal_closure", "tensor", "ideal_closure"),
    ("tensor.enumerate_ideals", "tensor", "enumerate_ideals"),
    ("tensor.primes", "tensor", "primes"),
    ("tensor.verify_tt_support", "tensor", "verify_tt_support"),
    ("tensor.comparison_map", "tensor", "comparison_map"),
    ("cli.main", "cli", "main"),
)

SPAN_NAMES = frozenset(span for span, _, _ in FUNCTIONS) | {"space.FinSpace.is_closed"}

# closure calls counted again by the module that imported the function
SITES = (
    ("lattice.join_closures", "lattice", "thick_closure"),
    ("tensor.thick_closure.calls", "tensor", "thick_closure"),
)

# result sizes counted on return, for the yield ratios
SIZES = {
    "closure.enumerate_thick": ("closure.sets_emitted", len),
    "tensor.enumerate_ideals": ("tensor.ideals", len),
    "tensor.primes": ("tensor.primes_found", lambda spectrum: len(spectrum.primes)),
}

MODULES = ("thicklat", "thicklat.bitsets", "thicklat.presentation", "thicklat.closure",
           "thicklat.lattice", "thicklat.space", "thicklat.tensor", "thicklat.cli")


class Group:
    """Per-name totals for one setup or one pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.job_calls: dict[str, dict[str, int]] = {}
        # (parent span name, span name) -> calls, for calls made by one layer
        self.child_calls: dict[tuple[str, str], int] = {}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.stack: list[list] = []
        self.next_id = 0
        self.job = ""
        self.jobs: list[str] = []
        self.group = Group()
        self.keep = False
        # raw spans, one column per field
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = [sys.modules[m] for m in MODULES]
        for span, module, attr in FUNCTIONS:
            original = getattr(sys.modules[f"thicklat.{module}"], attr)
            self._replace(mods, original, self._wrap(span, original))
        space = sys.modules["thicklat.space"]
        is_closed = space.FinSpace.is_closed
        self._set(space.FinSpace, "is_closed", self._wrap("space.FinSpace.is_closed", is_closed))
        for counter, module, attr in SITES:
            mod = sys.modules[f"thicklat.{module}"]
            self._set(mod, attr, self._count(counter, getattr(mod, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _replace(self, mods, original, wrapper) -> None:
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count(self, counter: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            c = tracer.group.counters
            c[counter] = c.get(counter, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, span: str, fn):
        tracer = self
        sid = self.name_id.setdefault(span, len(self.names))
        if sid == len(self.names):
            self.names.append(span)

        size = SIZES.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            frame = [0.0, tracer.next_id, span]
            tracer.next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                tracer._close(span, sid, frame[1], parent, start, end, duration - frame[0])
            if size is not None:
                tracer.count(size[0], size[1](result))
            return result
        return traced

    def _close(self, span, sid, span_id, parent, start, end, self_time) -> None:
        g = self.group
        g.calls[span] = g.calls.get(span, 0) + 1
        g.self_s[span] = g.self_s.get(span, 0.0) + self_time
        per_job = g.job_calls.setdefault(self.job, {})
        per_job[span] = per_job.get(span, 0) + 1
        if parent is not None:
            edge = (parent[2], span)
            g.child_calls[edge] = g.child_calls.get(edge, 0) + 1
        if self.keep:
            self.span_id.append(span_id)
            self.span_name.append(sid)
            self.span_parent.append(-1 if parent is None else parent[1])
            self.span_job.append(len(self.jobs) - 1)
            self.span_start.append(start)
            self.span_end.append(end)

    # -- grouping ----------------------------------------------------------

    def begin(self, keep: bool) -> None:
        """Start a new group; ``keep`` retains its raw spans."""
        self.group = Group()
        self.keep = keep

    def set_job(self, job: str) -> None:
        self.job = job
        if self.keep:
            self.jobs.append(job)

    def count(self, counter: str, amount: float) -> None:
        c = self.group.counters
        c[counter] = c.get(counter, 0) + amount

    def write_spans(self, path) -> None:
        """Gzipped tab-separated spans: id, parent, job, name, start and end in seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tjob\tname\tstart_s\tend_s\n")
            for k in range(len(self.span_id)):
                fh.write(f"{self.span_id[k]}\t{self.span_parent[k]}\t"
                         f"{self.jobs[self.span_job[k]]}\t{self.names[self.span_name[k]]}\t"
                         f"{self.span_start[k]:.9f}\t{self.span_end[k]:.9f}\n")
