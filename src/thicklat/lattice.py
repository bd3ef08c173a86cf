"""Order-theoretic analysis of an enumerated lattice of closed subsets."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from .bitsets import pick
from .closure import ThickLattice, thick_closure
from .errors import InvalidParameter, NotAnElement, TooLarge

DEFAULT_MAX_SIZE = 10_000


def meet(lattice: ThickLattice, j: int, k: int) -> int:
    """Intersection; closure systems are intersection-closed, so this stays inside."""
    _position(lattice, j, "left operand")
    _position(lattice, k, "right operand")
    return j & k


def join(lattice: ThickLattice, j: int, k: int) -> int:
    """Closure of the union, which must itself be an element."""
    _position(lattice, j, "left operand")
    _position(lattice, k, "right operand")
    got = _join(lattice.presentation, j, k)
    _position(lattice, got, "join")
    return got


def _join(pres, j: int, k: int) -> int:
    """Closure of the union of two closed sets, propagating from the operand
    that leaves fewer new elements to queue."""
    base = j if (k & ~j).bit_count() <= (j & ~k).bit_count() else k
    return thick_closure(pres, j | k, base)


def _position(lattice: ThickLattice, mask: int, role: str) -> int:
    pos = lattice.position.get(mask)
    if pos is None:
        raise NotAnElement(
            f"{role} {lattice.presentation.label(mask)} is not a lattice element")
    return pos


@dataclass(frozen=True)
class LawWitness:
    """A triple violating a lattice law, with both evaluated sides."""

    x: int
    y: int
    z: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class LatticeReport:
    size: int
    height: int
    atoms: tuple[int, ...]
    is_distributive: bool
    distributive_witness: LawWitness | None
    is_modular: bool
    modular_witness: LawWitness | None
    covers: tuple[tuple[int, int], ...]  # the Hasse edges, as ``covering_pairs``


def analyze(lattice: ThickLattice, max_size: int = DEFAULT_MAX_SIZE) -> LatticeReport:
    """Height, atoms and both laws, read from the Hasse diagram.

    A finite lattice is modular iff it is upper and lower semimodular, and
    that holds iff every two upper (lower) covers of an element have a common
    upper (lower) cover. A modular lattice is distributive iff its height is
    its number of join-irreducibles, the elements with one lower cover. A law
    that fails gets its first witness in canonical (x, y, z) order, from a
    sweep that skips the triples satisfying it by an identity.

    Covers and joins are thick closures, so the family must be closed under
    ``thick_closure``; a closure that is not an element raises
    ``NotAnElement``, and an answer that is given is exact.
    """
    n = len(lattice.elements)
    if n > max_size:
        raise TooLarge(f"lattice has {n} elements, guard is {max_size}")
    elems = lattice.elements
    pres = lattice.presentation
    up = _upper_covers(lattice)
    covers = _edges(up)
    down: list[list[int]] = [[] for _ in range(n)]
    heights = [0] * n
    for lo, hi in covers:
        down[hi].append(lo)
        heights[hi] = max(heights[hi], heights[lo] + 1)
    height = heights[-1]
    modular = _semimodular(up) and _semimodular(down)
    distributive = modular and sum(len(d) == 1 for d in down) == height
    memo: dict[tuple[int, int], int] = {}

    # _upper_covers found every cover closure to be an element, so every join
    # is one: adding the second operand one indecomposable at a time climbs
    # through cover closures
    def jn(a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        got = memo.get(key)
        if got is None:
            got = _join(pres, a, b)
            memo[key] = got
        return got

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


def _upper_covers(lattice: ThickLattice) -> list[list[int]]:
    """Positions of each element's upper covers, ascending: the minimal sets
    among the closures of the element plus one more indecomposable.

    Ascending position is ascending size, so a candidate is minimal unless
    a cover already accepted lies inside it.
    """
    elems = lattice.elements
    pres = lattice.presentation
    out = []
    for e in elems:
        try:
            found = {lattice.position[thick_closure(pres, e | 1 << i, e)]
                     for i in pick(range(pres.size), pres.full_mask & ~e)}
        except KeyError as exc:
            raise NotAnElement(
                f"closure {pres.label(exc.args[0])} is not a lattice element") from None
        covers: list[int] = []
        for p in sorted(found):
            if not any(elems[q] & ~elems[p] == 0 for q in covers):
                covers.append(p)
        out.append(covers)
    return out


def covering_pairs(lattice: ThickLattice) -> list[tuple[int, int]]:
    """Hasse edges as (lower position, upper position) in canonical order."""
    return _edges(_upper_covers(lattice))


def _edges(up: list[list[int]]) -> list[tuple[int, int]]:
    return [(lo, hi) for lo, his in enumerate(up) for hi in his]


def export_dot(lattice: ThickLattice, covers: Iterable[tuple[int, int]]) -> str:
    """Hasse diagram in DOT syntax from edges already found, such as
    ``covering_pairs(lattice)`` or ``analyze(lattice).covers``: nodes in
    canonical order, edges upward. An edge that does not go up between two
    positions of the lattice raises ``InvalidParameter``."""
    lines = ["digraph thick_lattice {", "  rankdir=BT;"]
    for i, label in enumerate(lattice.labels()):
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
