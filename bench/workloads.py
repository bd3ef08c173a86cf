"""The three benchmark workloads: their set-up and their job lists.

A job is one CLI invocation run in-process through ``thicklat.cli.main``, or
one library round trip. Every job carries the key under which its exit
status and stdout digest were recorded (``expected.json``) and, where one is
cheap, an independent check from ``oracle``.

Random inputs come from pools of generator integers recorded alongside the
digests; the workload seed picks which pool entries a run uses. Pools hold
only generator integers whose work (closure calls, join closures or ideal
closures at the recording commit) falls in a narrow band, so that passes
cost about the same whichever seed picks them.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle

WORKLOADS = ("enumerate", "lattice", "support")

# entries drawn from each pool per run
PICKS = {
    "enumerate": {"sparse": 2, "dense": 3},
    "lattice": {"small": 3},
    "support": {"tensor": 3, "datum": 2, "generate": 2},
}

ROUNDTRIPS = 200       # library round trips per support pass
ROUNDTRIP_POINTS = 64  # points in each drawn datum

# valid pullback datum over a2 (u -> {P1}, v -> {}) for the map smoke job
A2_DATUM = {"points": ["u", "v"], "sigma": {"P1": ["v"], "P2": ["u", "v"], "S2": ["u", "v"]}}


@dataclass
class Job:
    key: str
    command: str  # CLI subcommand, or "roundtrip"
    argv: list[str]
    check: Callable[[bytes], str | None] | None = None

    @property
    def cli_argv(self) -> list[str]:
        return [self.command, *self.argv]


class Workload:
    """Inputs and jobs of one workload for one seed.

    ``setup`` writes the input documents and makes any one-time build the
    jobs reuse; ``jobs`` lists one pass.
    """

    def __init__(self, name: str, seed: int, root: Path, pools: dict[str, list[int]]):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.inputs = root / ".bench_out" / "inputs" / f"{name}-{seed}"
        rng = random.Random(f"{name}:{seed}")
        self.picks = {kind: sorted(rng.sample(pools[kind], k))
                      for kind, k in PICKS[name].items()}
        self.roundtrip_seeds = [rng.randrange(1 << 32) for _ in range(ROUNDTRIPS)]
        self.docs: dict[str, dict] = {}
        self.sp = None  # universal space of an:6, built in support set-up

    def _documents(self) -> dict[str, dict]:
        docs = {"a2-datum": A2_DATUM}
        for g in self.picks.get("sparse", ()):
            docs[f"sparse-{g}"] = gen.sparse_presentation(g)
        for g in self.picks.get("dense", ()):
            docs[f"dense-{g}"] = gen.dense_presentation(g)
        for g in self.picks.get("small", ()):
            docs[f"small-{g}"] = gen.small_presentation(g)
        for g in self.picks.get("tensor", ()):
            docs[f"tensor-{g}"] = gen.tensor_presentation(g)
        for g in self.picks.get("datum", ()):
            d = gen.datum_documents(g)
            docs[f"datum-{g}"] = d["valid"]
            docs[f"bad-datum-{g}"] = d["invalid"]
            docs[f"mutated-{g}"] = d["mutated"]
            docs[f"map-{g}"] = d["map"]
        return docs

    def path(self, doc: str) -> str:
        return str(self.inputs / f"{doc}.json")

    def setup(self, thicklat) -> None:
        """Regenerate and serialize every input; support also builds an:6's space."""
        self.docs = self._documents()
        self.inputs.mkdir(parents=True, exist_ok=True)
        for name, doc in self.docs.items():
            Path(self.path(name)).write_text(json.dumps(doc, indent=1), encoding="utf-8")
        if self.name == "support":
            pres = thicklat.presentation.builtin("an", 6)
            self.sp = thicklat.space.build_sp(thicklat.closure.enumerate_thick(pres))

    def jobs(self) -> list[Job]:
        return getattr(self, f"_{self.name}_jobs")() + self._smoke_jobs()

    def _enumerate_jobs(self) -> list[Job]:
        an6 = oracle.Doc(oracle.an_document(6))
        jobs = [
            Job("enumerate/an7", "enumerate", ["--builtin", "an:7", "--json"],
                oracle.enumerate_json(oracle.Doc(oracle.an_document(7)), oracle.bell(8))),
            Job("space/an6", "space", ["--builtin", "an:6", "--json"],
                oracle.space_json(an6, oracle.bell(7))),
        ]
        for g in self.picks["sparse"]:
            doc = oracle.Doc(self.docs[f"sparse-{g}"])
            jobs.append(Job(f"enumerate/sparse/{g}", "enumerate",
                            ["--input", self.path(f"sparse-{g}"), "--json"],
                            oracle.enumerate_json(doc)))
        for g in self.picks["dense"]:
            doc = oracle.Doc(self.docs[f"dense-{g}"])
            jobs.append(Job(f"space/dense/{g}", "space",
                            ["--input", self.path(f"dense-{g}"), "--json"],
                            oracle.space_json(doc)))
        return jobs

    def _lattice_jobs(self) -> list[Job]:
        jobs = [
            Job("lattice/product7", "lattice", ["--builtin", "product:7", "--json"],
                oracle.lattice_report(128, 7, 7, True, True)),
            Job("lattice/an5", "lattice", ["--builtin", "an:5"],
                _both(oracle.lattice_report(oracle.bell(6), 5, 15, False, False),
                      oracle.an5_witnesses)),
            Job("lattice/an6-dot", "lattice", ["--builtin", "an:6", "--dot"],
                oracle.dot_partition(6)),
            Job("lattice/a2", "lattice", ["--builtin", "a2"],
                oracle.lattice_report(5, 2, 3, False, True)),
        ]
        for g in self.picks["small"]:
            doc = oracle.Doc(self.docs[f"small-{g}"])
            jobs.append(Job(f"lattice/small/{g}", "lattice",
                            ["--input", self.path(f"small-{g}"), "--json"],
                            oracle.small_lattice(doc)))
        return jobs

    def _support_jobs(self) -> list[Job]:
        jobs = [Job(f"roundtrip/{i}", "roundtrip", [str(seed)])
                for i, seed in enumerate(self.roundtrip_seeds)]
        jobs += [
            Job("spectrum/product15", "spectrum", ["--builtin", "product:15", "--json"],
                oracle.product_spectrum(15)),
            Job("compare/product13", "compare", ["--builtin", "product:13"],
                oracle.compare_report(13, 2 ** 13)),
        ]
        for g in self.picks["tensor"]:
            doc = oracle.Doc(self.docs[f"tensor-{g}"])
            jobs.append(Job(f"spectrum/tensor/{g}", "spectrum",
                            ["--input", self.path(f"tensor-{g}"), "--json"],
                            oracle.tensor_spectrum(doc)))
        an4 = ["--builtin", "an:4"]
        for g in self.picks["datum"]:
            datum, bad = self.path(f"datum-{g}"), self.path(f"bad-datum-{g}")
            jobs += [
                Job(f"check/valid/{g}", "check", an4 + ["--datum", datum],
                    oracle.datum_report(True)),
                Job(f"check/invalid/{g}", "check", an4 + ["--datum", bad],
                    oracle.datum_report(False)),
                Job(f"map/canonical/{g}", "map", an4 + ["--datum", datum, "--json"],
                    oracle.map_recovers(self.docs[f"map-{g}"])),
                Job(f"map/mutated/{g}", "map",
                    an4 + ["--datum", datum, "--morphism", self.path(f"mutated-{g}"), "--json"],
                    oracle.map_rejected),
            ]
        for g in self.picks["generate"]:
            jobs.append(Job(f"generate/an4/{g}", "generate",
                            an4 + ["--seed", str(g), "--points", str(gen.DATUM_POINTS)],
                            oracle.generated_datum(gen.AN4, gen.DATUM_POINTS)))
        return jobs

    def _smoke_jobs(self) -> list[Job]:
        """One tiny job per layer the workload's own jobs leave idle.

        Every workload runs the same list, so each per-layer metric is
        measured on every workload; together they cost a few milliseconds.
        """
        return [
            Job("smoke/lattice-a2", "lattice", ["--builtin", "a2", "--json"],
                oracle.lattice_report(5, 2, 3, False, True)),
            Job("smoke/dot-a2", "lattice", ["--builtin", "a2", "--dot"]),
            Job("smoke/generate-a2", "generate",
                ["--builtin", "a2", "--seed", "1", "--points", "3"]),
            Job("smoke/map-a2", "map", ["--builtin", "a2", "--datum", self.path("a2-datum")],
                oracle.datum_report(True)),
            Job("smoke/spectrum-point", "spectrum", ["--builtin", "point"]),
            Job("smoke/compare-point", "compare", ["--builtin", "point"],
                oracle.compare_report(1, 2)),
        ]

    def roundtrip(self, thicklat, seed: int) -> str | None:
        """Draw a datum, check it, recover its map, and reject a mutation."""
        space = thicklat.space
        sp = self.sp
        pres = sp.lattice.presentation
        elems = sp.lattice.elements
        rng = random.Random(seed)
        datum = space.random_support_datum(sp, ROUNDTRIP_POINTS, seed)
        origin = datum.origin_map
        for a in range(pres.size):
            want = sum(1 << x for x, t in enumerate(origin) if not elems[t] >> a & 1)
            if datum.sigma[a] != want:
                return f"sigma of {pres.names[a]} is not the pullback of its support"
        if not space.check_support_datum(datum, pres).valid:
            return "a pulled-back datum was reported invalid"
        morphism = space.universal_morphism(datum, sp)
        if morphism.mapping != origin:
            return "universal morphism does not recover the drawn map"
        if not space.check_morphism(datum, sp, morphism).ok:
            return "the recovered morphism was rejected"
        x = rng.randrange(ROUNDTRIP_POINTS)
        mapping = list(morphism.mapping)
        mapping[x] = (mapping[x] + 1 + rng.randrange(len(elems) - 1)) % len(elems)
        if space.check_morphism(datum, sp, space.SupportMorphism(tuple(mapping))).ok:
            return "a one-point mutation was accepted"
        return None


def _both(*checks):
    def check(out: bytes) -> str | None:
        return next((p for p in (c(out) for c in checks) if p), None)
    return check


def load_expected(bench_dir: Path) -> dict:
    with open(bench_dir / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def fresh_thicklat():
    """Import thicklat and its modules anew, as a new process would."""
    for name in [m for m in sys.modules if m == "thicklat" or m.startswith("thicklat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("thicklat")
    importlib.import_module("thicklat.cli")
    return pkg
