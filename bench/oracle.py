"""Independent correctness checks for benchmark job outputs.

Nothing here imports thicklat. The triangle rule, the builtin families, the
closed sets of small presentations and the lattice facts used below are
re-derived from their definitions, so a check never trusts the code it
checks. Each check returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
import re
from math import comb

AN_NAME = re.compile(r"\[\d+,\d+\]")


# --------------------------------------------------------------------------
# Presentations, read from their documents


class Doc:
    """A presentation document reduced to names and triangle bitmasks."""

    def __init__(self, doc: dict):
        self.names = list(doc["indecomposables"])
        self.index = {name: i for i, name in enumerate(self.names)}
        self.triangles = [tuple(self.mask(v) for v in tri) for tri in doc["triangles"]]
        self.tensor = doc.get("tensor")

    def mask(self, names) -> int:
        m = 0
        for name in names:
            m |= 1 << self.index[name]
        return m

    def label(self, mask: int) -> str:
        return "{" + ",".join(n for i, n in enumerate(self.names) if mask >> i & 1) + "}"

    def parse_label(self, label: str) -> int:
        inner = label.strip()[1:-1]
        if not inner:
            return 0
        parts = AN_NAME.findall(inner) if inner.startswith("[") else inner.split(",")
        return self.mask(parts)

    def is_thick(self, mask: int) -> bool:
        """Direct reading of the rule: two vertices inside force the third."""
        for a, b, c in self.triangles:
            ina, inb, inc = a & ~mask == 0, b & ~mask == 0, c & ~mask == 0
            if ina + inb + inc == 2:
                return False
        return True

    def closure(self, mask: int) -> int:
        while True:
            grown = mask
            for a, b, c in self.triangles:
                ina, inb, inc = a & ~grown == 0, b & ~grown == 0, c & ~grown == 0
                if ina + inb + inc == 2:
                    grown |= a | b | c
            if grown == mask:
                return mask
            mask = grown

    def closed_sets(self) -> list[int]:
        """Every thick subset by sweeping all 2**n subsets (small n only)."""
        found = [m for m in range(1 << len(self.names)) if self.is_thick(m)]
        return sorted(found, key=canonical_key)


def canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (bin(mask).count("1"), tuple(i for i in range(mask.bit_length()) if mask >> i & 1))


def an_document(n: int) -> dict:
    """The an:n family from its definition: intervals, one triangle per i<j<k."""
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    name = {p: f"[{p[0]},{p[1]}]" for p in pairs}
    triangles = [[[name[(i, j)]], [name[(i, k)]], [name[(j, k)]]]
                 for i in range(n + 1) for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
    return {"indecomposables": [name[p] for p in pairs], "triangles": triangles}


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def stirling2(n: int, k: int) -> int:
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def partition_covers(points: int) -> int:
    """Hasse edges of the partition lattice: merging any two of b blocks."""
    return sum(stirling2(points, b) * comb(b, 2) for b in range(1, points + 1))


# --------------------------------------------------------------------------
# Checks on captured stdout


def _listing(doc: Doc, sets: list[list[str]], count: int | None) -> str | None:
    masks = [doc.mask(s) for s in sets]
    if count is not None and len(masks) != count:
        return f"listed {len(masks)} sets, expected {count}"
    if len(set(masks)) != len(masks):
        return "a set is listed twice"
    if masks != sorted(masks, key=canonical_key):
        return "sets are not in canonical order"
    bad = next((m for m in masks if not doc.is_thick(m)), None)
    if bad is not None:
        return f"{doc.label(bad)} breaks the triangle rule"
    return None


def enumerate_json(doc: Doc, count: int | None = None):
    def check(out: bytes) -> str | None:
        got = json.loads(out)
        if got["count"] != len(got["subcategories"]):
            return "count disagrees with the listing"
        return _listing(doc, got["subcategories"], count)
    return check


def space_json(doc: Doc, count: int | None = None):
    """Points are thick subsets; sup(a) is exactly the points that miss a."""
    def check(out: bytes) -> str | None:
        got = json.loads(out)
        points = got["points"]
        masks = [doc.parse_label(p) for p in points]
        problem = _listing(doc, [[doc.names[i] for i in range(len(doc.names)) if m >> i & 1]
                                 for m in masks], count)
        if problem:
            return problem
        for a, name in enumerate(doc.names):
            want = [p for p, m in zip(points, masks) if not m >> a & 1]
            if got["sup"][name] != want:
                return f"sup({name}) is not the set of points missing it"
        return None
    return check


def lattice_report(size: int, height: int, atoms: int, distributive: bool, modular: bool):
    """Text or JSON lattice report against known lattice facts."""
    def check(out: bytes) -> str | None:
        text = out.decode()
        if text.startswith("{"):
            got = json.loads(text)
            fields = (got["size"], got["height"], len(got["atoms"]),
                      got["distributive"], got["modular"])
        else:
            kv = dict(line.split(": ", 1) for line in text.splitlines())
            n_atoms = 0 if kv["atoms"] == "none" else kv["atoms"].count("}")
            fields = (int(kv["size"]), int(kv["height"]), n_atoms,
                      kv["distributive"] == "true", kv["modular"] == "true")
        want = (size, height, atoms, distributive, modular)
        if fields != want:
            return f"report {fields} differs from {want}"
        return None
    return check


def witnesses_hold(doc: Doc):
    """Every reported law witness, recomputed with an independent closure."""
    def check(out: bytes) -> str | None:
        got = json.loads(out)
        for law in ("distributive", "modular"):
            w = got[f"{law}_witness"]
            if got[law] != (w is None):
                return f"{law} verdict disagrees with its witness"
            if w is None:
                continue
            x, y, z, lhs, rhs = (doc.mask(w[k]) for k in ("x", "y", "z", "lhs", "rhs"))
            if law == "distributive":
                want = (x & doc.closure(y | z), doc.closure((x & y) | (x & z)))
            else:
                if x & ~z:
                    return "modular witness does not have x <= z"
                want = (doc.closure(x | (y & z)), doc.closure(x | y) & z)
            if (lhs, rhs) != want or lhs == rhs:
                return f"{law} witness does not evaluate as reported"
        return None
    return check


def small_lattice(doc: Doc):
    """Size, atoms and witnesses of a random lattice, by brute force."""
    elems = doc.closed_sets()
    bottom = elems[0]
    atoms = [e for e in elems[1:] if not any(f != bottom and f != e and f & ~e == 0
                                             for f in elems)]
    witnesses = witnesses_hold(doc)

    def check(out: bytes) -> str | None:
        got = json.loads(out)
        if got["size"] != len(elems):
            return f"size {got['size']}, brute force finds {len(elems)}"
        if [doc.mask(a) for a in got["atoms"]] != atoms:
            return "atoms differ from brute force"
        return witnesses(out)
    return check


def an5_witnesses(out: bytes) -> str | None:
    """Text witnesses of lattice an:5, recomputed as JSON-shaped witnesses."""
    doc = Doc(an_document(5))
    lines = dict(line.split(": ", 1) for line in out.decode().splitlines())
    got = {"distributive": lines["distributive"] == "true",
           "modular": lines["modular"] == "true"}
    for law in ("distributive", "modular"):
        raw = lines.get(f"{law} witness")
        if raw is None:
            got[f"{law}_witness"] = None
            continue
        parts = dict(p.split("=", 1) for p in re.findall(r"\w+=\{[^}]*\}", raw))
        got[f"{law}_witness"] = {k: AN_NAME.findall(v) for k, v in parts.items()}
    return witnesses_hold(doc)(json.dumps(got).encode())


def dot_partition(n: int):
    """DOT of an:n: Bell(n+1) nodes, partition-lattice covers, edges go up."""
    doc = Doc(an_document(n))

    def check(out: bytes) -> str | None:
        text = out.decode()
        labels = re.findall(r'n\d+ \[label="([^"]*)"\]', text)
        edges = [(int(a), int(b)) for a, b in re.findall(r"n(\d+) -> n(\d+);", text)]
        if len(labels) != bell(n + 1):
            return f"{len(labels)} nodes, expected Bell({n + 1})"
        if len(edges) != partition_covers(n + 1):
            return f"{len(edges)} edges, expected {partition_covers(n + 1)}"
        masks = [doc.parse_label(lab) for lab in labels]
        if any(masks[lo] & ~masks[hi] or masks[lo] == masks[hi] for lo, hi in edges):
            return "an edge does not go up"
        return None
    return check


def product_spectrum(n: int):
    """product:n has exactly n primes, each the complement of one idempotent."""
    def check(out: bytes) -> str | None:
        got = json.loads(out)
        names = [f"e{i + 1}" for i in range(n)]
        want = sorted(([x for x in names if x != e] for e in names),
                      key=lambda s: (len(s), [names.index(x) for x in s]))
        if got["primes"] != want:
            return "primes are not the complements of single idempotents"
        return None if got["valid"] else "tensor support axioms reported invalid"
    return check


def compare_report(spectrum_points: int, universal_points: int):
    """The spectrum embeds: it fixes every prime and is injective."""
    want = (f"spectrum points: {spectrum_points}\nuniversal points: {universal_points}\n"
            "iota fixes primes: true\ninjective: true\n").encode()
    return lambda out: None if out == want else "comparison report differs"


def tensor_spectrum(doc: Doc):
    """Each listed prime is a proper ideal where a vanishing product forces a factor."""
    table = {k: doc.mask(v) for k, v in doc.tensor["table"].items()}
    names, full = doc.names, (1 << len(doc.names)) - 1

    def absorbed(q: int) -> bool:
        return all(table[f"{g}|{x}"] & ~q == 0
                   for i, x in enumerate(names) if q >> i & 1 for g in names)

    def prime(q: int) -> bool:
        return all(table[f"{x}|{y}"] & ~q or q >> i & 1 or q >> j & 1
                   for i, x in enumerate(names) for j, y in enumerate(names))

    def check(out: bytes) -> str | None:
        got = json.loads(out)
        for p in got["primes"]:
            q = doc.mask(p)
            if q == full or not doc.is_thick(q) or not absorbed(q) or not prime(q):
                return f"{doc.label(q)} is not a prime ideal"
        return None
    return check


def datum_report(valid: bool):
    def check(out: bytes) -> str | None:
        verdict = out.decode().splitlines()[-1]
        want = "verdict: valid" if valid else "verdict: invalid"
        return None if verdict == want else f"check said {verdict!r}"
    return check


def generated_datum(doc: Doc, points: int):
    """A generated datum must be a pullback: each point misses a thick subset."""
    def check(out: bytes) -> str | None:
        got = json.loads(out)
        if len(got["points"]) != points:
            return f"{len(got['points'])} points, asked for {points}"
        for p in got["points"]:
            missing = doc.mask(n for n in doc.names if p not in got["sigma"][n])
            if not doc.is_thick(missing):
                return f"point {p} does not pull back from a thick subset"
        return None
    return check


def map_recovers(origin: dict[str, str]):
    def check(out: bytes) -> str | None:
        got = json.loads(out)
        if not got["valid"] or got["map"] != origin:
            return "canonical morphism does not recover the drawn map"
        return None
    return check


def map_rejected(out: bytes) -> str | None:
    got = json.loads(out)
    return None if got["valid"] is False else "a mutated morphism was accepted"
