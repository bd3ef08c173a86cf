"""Seeded input documents for the benchmark workloads.

Every generator takes one integer and returns plain JSON-ready dicts, so
the same integer always gives the same document. The program only ever
sees these documents serialized to files. Generators are pure Python and
never import thicklat; the datum generator builds the universal space of
an:4 from the oracle's own reading of the triangle rule.
"""

from __future__ import annotations

import random

from oracle import Doc, an_document


def sparse_presentation(g: int) -> dict:
    """19 indecomposables, 13 triangles whose vertices have 1-2 components.

    Such presentations have tens of thousands of thick subsets and the
    lectic loop rejects few closures per emitted set.
    """
    rng = random.Random(f"sparse:{g}")
    names = [f"s{i}" for i in range(19)]
    triangles = [[rng.sample(names, rng.randint(1, 2)) for _ in range(3)] for _ in range(13)]
    return {"indecomposables": names, "triangles": triangles}


def dense_presentation(g: int) -> dict:
    """24 indecomposables, 40 triangles of single components.

    Few thousand thick subsets, with many canonicity-rejected closures per
    emitted set: the opposite input shape to ``sparse_presentation``.
    """
    rng = random.Random(f"dense:{g}")
    names = [f"d{i}" for i in range(24)]
    triangles = [[[v] for v in rng.sample(names, 3)] for _ in range(40)]
    return {"indecomposables": names, "triangles": triangles}


def small_presentation(g: int) -> dict:
    """11 indecomposables and 9 triangles: lattices of a few hundred elements."""
    rng = random.Random(f"small:{g}")
    names = [f"l{i}" for i in range(11)]
    triangles = [[rng.sample(names, rng.randint(1, 2)) for _ in range(3)] for _ in range(9)]
    return {"indecomposables": names, "triangles": triangles}


def tensor_presentation(g: int) -> dict:
    """Nine orthogonal idempotents plus three two-object blocks, and 5 triangles.

    Products vanish across blocks; inside a block of two the mixed product
    is one or both of its objects, so absorption links them. Triangles run
    across blocks, so ideal closure interleaves triangle and absorption work.
    Component supports of the table are symmetric, as parsing requires.
    """
    rng = random.Random(f"tensor:{g}")
    blocks = [[f"e{i}"] for i in range(9)] + [[f"p{i}", f"q{i}"] for i in range(3)]
    names = [x for b in blocks for x in b]
    table = {f"{x}|{y}": [] for x in names for y in names}
    for block in blocks:
        for x in block:
            table[f"{x}|{x}"] = [x]
        if len(block) == 2:
            x, y = block
            cell = rng.sample(block, rng.randint(1, 2))
            table[f"{x}|{y}"] = cell
            table[f"{y}|{x}"] = cell[::-1]
    triangles = [[[v] for v in rng.sample(names, 3)] for _ in range(5)]
    return {"indecomposables": names, "triangles": triangles,
            "tensor": {"unit": names, "table": table}}


AN4 = Doc(an_document(4))
AN4_POINTS = AN4.closed_sets()
DATUM_POINTS = 12


def datum_documents(g: int) -> dict:
    """Support data over an:4 drawn as pullbacks along a random point map.

    Returns the drawn map by universal-space label, a valid datum, an
    invalid one (a stray point added to one support so a triangle's
    containment fails), and a morphism document with one point mutated.
    """
    rng = random.Random(f"datum:{g}")
    points = [f"x{i}" for i in range(DATUM_POINTS)]
    stray = None
    while stray is None:
        origin = [rng.choice(AN4_POINTS) for _ in points]
        stray = _stray_point(rng, points, origin)
    sigma = {name: [p for p, o in zip(points, origin) if not o >> a & 1]
             for a, name in enumerate(AN4.names)}
    valid = {"points": points, "sigma": sigma}
    invalid = {"points": points, "sigma": {k: list(v) for k, v in sigma.items()}}
    invalid["sigma"][stray[1]].append(stray[0])
    mapping = {p: AN4.label(o) for p, o in zip(points, origin)}
    mutated = dict(mapping)
    x = rng.choice(points)
    mutated[x] = AN4.label(rng.choice([o for o in AN4_POINTS if AN4.label(o) != mapping[x]]))
    return {"map": mapping, "valid": valid, "invalid": invalid, "mutated": {"map": mutated}}


def _stray_point(rng: random.Random, points: list[str],
                 origin: list[int]) -> tuple[str, str] | None:
    """A (point, indecomposable) pair whose addition breaks a triangle rotation.

    A point x lies in sigma(a) exactly when a is missing from origin(x).
    Adding x to sigma(a) for some a in origin(x) breaks the rotation headed
    by a on any triangle whose other two vertices both lie in origin(x).
    None when no drawn point contains a whole triangle.
    """
    choices = []
    for p, o in zip(points, origin):
        for a, b, c in AN4.triangles:
            for head, rest in ((a, b | c), (b, c | a), (c, a | b)):
                if head & o and rest & ~o == 0:
                    choices.append((p, AN4.names[head.bit_length() - 1]))
    return rng.choice(sorted(choices)) if choices else None
