"""Order-theoretic analysis of an enumerated lattice of closed subsets."""

from __future__ import annotations

from collections.abc import Iterable
from functools import reduce
from itertools import combinations
from operator import and_

from ._value import Value
from .bitsets import omitted, pick
from .closure import ThickLattice
from .closure import thick_closure  # noqa: F401  unused; bench/spans.py counts calls through this name
from .errors import InvalidParameter, NotAnElement, TooLarge

DEFAULT_MAX_SIZE = 10_000


class LawWitness(Value):
    """A triple violating a lattice law, with both evaluated sides."""

    x: int
    y: int
    z: int
    lhs: int
    rhs: int

    def __init__(self, x: int, y: int, z: int, lhs: int, rhs: int) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class LatticeReport(Value):
    size: int
    height: int
    atoms: tuple[int, ...]
    is_distributive: bool
    distributive_witness: LawWitness | None
    is_modular: bool
    modular_witness: LawWitness | None
    covers: tuple[tuple[int, int], ...]  # the Hasse edges, as ``covering_pairs``

    def __init__(self, size: int, height: int, atoms: tuple[int, ...],
                 is_distributive: bool, distributive_witness: LawWitness | None,
                 is_modular: bool, modular_witness: LawWitness | None,
                 covers: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "is_distributive", is_distributive)
        object.__setattr__(self, "distributive_witness", distributive_witness)
        object.__setattr__(self, "is_modular", is_modular)
        object.__setattr__(self, "modular_witness", modular_witness)
        object.__setattr__(self, "covers", covers)


def analyze(lattice: ThickLattice, max_size: int = DEFAULT_MAX_SIZE) -> LatticeReport:
    """Height, atoms and both laws, read from the Hasse diagram.

    A finite lattice is modular iff it is upper and lower semimodular, and
    that holds iff every two upper (lower) covers of an element have a common
    upper (lower) cover. A modular lattice is distributive iff its height is
    its number of join-irreducibles, the elements with one lower cover. A law
    that fails gets its first witness in canonical (x, y, z) order, from a
    sweep that skips the triples satisfying it by an identity.

    Covers and joins are read off the family's inclusion order (see
    ``_upper_covers``), so the family must be closed under intersection and
    hold the full set, as the thick subsets and the thick ideals are; one
    that is not raises ``NotAnElement``, and an answer that is given is
    exact.
    """
    n = len(lattice.elements)
    elems = lattice.elements
    position = lattice.position
    up, above = _upper_covers(lattice, max_size)
    covers = _edges(up)
    down: list[list[int]] = [[] for _ in range(n)]
    heights = [0] * n
    for lo, hi in covers:
        down[hi].append(lo)
        heights[hi] = max(heights[hi], heights[lo] + 1)
    height = heights[-1]
    modular = _semimodular(up) and _semimodular(down)
    distributive = modular and sum(len(d) == 1 for d in down) == height

    # _upper_covers found the family closed under intersection, so the join
    # is the least element above both: the lowest position above both
    def jn(a: int, b: int) -> int:
        m = above[position[a]] & above[position[b]]
        return elems[(m & -m).bit_length() - 1]

    dw = None if distributive else _first_distributive_witness(elems, jn)
    mw = None if modular else _first_modular_witness(elems, jn)
    return LatticeReport(
        size=n,
        height=height,
        atoms=tuple(elems[p] for p in up[0]),
        is_distributive=distributive,
        distributive_witness=dw,
        is_modular=modular,
        modular_witness=mw,
        covers=tuple(covers),
    )


def _semimodular(covers: list[list[int]]) -> bool:
    """Every two covers of an element share a cover (upper covers: upper
    semimodularity; lower covers: lower semimodularity)."""
    cover_sets = [set(c) for c in covers]
    return all(not cover_sets[a].isdisjoint(covers[b])
               for c in covers for a, b in combinations(c, 2))


def _first_distributive_witness(elems, jn) -> LawWitness | None:
    # x <= y, x <= z, or y and z comparable satisfy the law identically
    for x in elems:
        for y in elems:
            if x & ~y == 0:
                continue
            for z in elems:
                if x & ~z == 0 or y & ~z == 0 or z & ~y == 0:
                    continue
                lhs = x & jn(y, z)
                rhs = jn(x & y, x & z)
                if lhs != rhs:
                    return LawWitness(x, y, z, lhs, rhs)
    return None


def _first_modular_witness(elems, jn) -> LawWitness | None:
    # the law only constrains x <= z; y comparable to x or z satisfies it
    for x in elems:
        for y in elems:
            if x & ~y == 0 or y & ~x == 0:
                continue
            for z in elems:
                if x & ~z or y & ~z == 0 or z & ~y == 0:
                    continue
                lhs = jn(x, y & z)
                rhs = jn(x, y) & z
                if lhs != rhs:
                    return LawWitness(x, y, z, lhs, rhs)
    return None


def check_size(size: int, max_size: int) -> None:
    """Raise ``TooLarge`` for a lattice of more than ``max_size`` elements."""
    if size > max_size:
        raise TooLarge(f"lattice has {size} elements, guard is {max_size}")


def _upper_covers(lattice: ThickLattice,
                  max_size: int) -> tuple[list[list[int]], list[int]]:
    """Positions of each element's upper covers, ascending, and per element
    the mask of the positions above it.

    Element q lies above p iff q holds every member of p, so ``above[p]``
    is the AND over p's members i of ``holding[i]``, the positions holding
    i. Canonical order is by size, so the least element holding a set is
    the lowest position g in the mask m of those holding it, if there is a
    least one: m is not empty and lies within ``above[g]``. The covers of e
    are the minimal least elements above e plus one indecomposable.

    Each such least element must exist, and some element (the first, if
    any) must lie below every element, or ``NotAnElement`` is raised. Then
    the family is closed under intersection: a maximal element inside
    a & b (the bottom is inside) is all of a & b, or the least element
    above it plus a missing i of a & b would be a larger one.
    """
    elems = lattice.elements
    check_size(len(elems), max_size)
    pres = lattice.presentation
    full = (1 << len(elems)) - 1
    holding = [full ^ m for m in omitted(elems, pres.size)]
    above = [reduce(and_, pick(holding, e), full) for e in elems]
    if not elems or above[0] != full:
        raise NotAnElement("no element lies below every element")
    out = []
    for e, mask in zip(elems, above):
        found = set()
        for i in pick(range(pres.size), pres.full_mask & ~e):
            m = mask & holding[i]
            g = (m & -m).bit_length() - 1
            least = above[g]
            if not m or m | least != least:
                raise NotAnElement(f"no least element holds {pres.label(e | 1 << i)}")
            found.add(g)
        # a candidate is a cover unless it lies strictly above another
        strictly_above = 0
        for g in found:
            strictly_above |= above[g] ^ (1 << g)
        out.append([g for g in sorted(found) if not strictly_above >> g & 1])
    return out, above


def covering_pairs(lattice: ThickLattice,
                   max_size: int = DEFAULT_MAX_SIZE) -> list[tuple[int, int]]:
    """Hasse edges as (lower, upper) positions in canonical order; TooLarge past ``max_size``."""
    return _edges(_upper_covers(lattice, max_size)[0])


def _edges(up: list[list[int]]) -> list[tuple[int, int]]:
    return [(lo, hi) for lo, his in enumerate(up) for hi in his]


def export_dot(lattice: ThickLattice, covers: Iterable[tuple[int, int]]) -> str:
    """Hasse diagram in DOT syntax from edges already found, such as
    ``covering_pairs(lattice)`` or ``analyze(lattice).covers``: nodes in
    canonical order, edges upward. An edge that does not go up between two
    positions of the lattice raises ``InvalidParameter``."""
    lines = ["digraph thick_lattice {", "  rankdir=BT;"]
    for i, label in enumerate(lattice.presentation.labels(lattice.elements)):
        safe = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{safe}"];')
    n = len(lattice.elements)
    for lo, hi in covers:
        # canonical order is by size, so a cover lies at a higher position
        if not 0 <= lo < hi < n:
            raise InvalidParameter(f"edge ({lo}, {hi}) does not go up within the lattice")
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
