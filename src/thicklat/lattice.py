"""Order-theoretic analysis of an enumerated lattice of closed subsets."""

from __future__ import annotations

from dataclasses import dataclass

from .closure import ThickLattice, thick_closure
from .errors import NotAnElement, TooLarge

DEFAULT_MAX_SIZE = 10_000


def meet(lattice: ThickLattice, j: int, k: int) -> int:
    """Intersection; closure systems are intersection-closed, so this stays inside."""
    _position(lattice, j, "left operand")
    _position(lattice, k, "right operand")
    result = j & k
    assert result in lattice.position
    return result


def join(lattice: ThickLattice, j: int, k: int) -> int:
    """Closure of the union."""
    _position(lattice, j, "left operand")
    _position(lattice, k, "right operand")
    return _join(lattice.presentation, j, k)


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


def analyze(lattice: ThickLattice, max_size: int = DEFAULT_MAX_SIZE) -> LatticeReport:
    """Exhaustive law checks, first witness in canonical order on failure.

    Deliberately the O(n^3) sweep: desk-scale lattices, auditable verdicts.
    """
    n = len(lattice.elements)
    if n > max_size:
        raise TooLarge(f"lattice has {n} elements, guard is {max_size}")
    elems = lattice.elements
    pres = lattice.presentation
    memo: dict[tuple[int, int], int] = {}

    def jn(a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        got = memo.get(key)
        if got is None:
            got = _join(pres, a, b)
            memo[key] = got
        return got

    dw = _first_distributive_witness(elems, jn)
    mw = _first_modular_witness(elems, jn)
    return LatticeReport(
        size=n,
        height=_height(elems),
        atoms=_atoms(elems),
        is_distributive=dw is None,
        distributive_witness=dw,
        is_modular=mw is None,
        modular_witness=mw,
    )


def _first_distributive_witness(elems, jn) -> LawWitness | None:
    for x in elems:
        for y in elems:
            for z in elems:
                lhs = x & jn(y, z)
                rhs = jn(x & y, x & z)
                if lhs != rhs:
                    return LawWitness(x, y, z, lhs, rhs)
    return None


def _first_modular_witness(elems, jn) -> LawWitness | None:
    for x in elems:
        for y in elems:
            for z in elems:
                if x & ~z:
                    continue  # the law only constrains x <= z
                lhs = jn(x, y & z)
                rhs = jn(x, y) & z
                if lhs != rhs:
                    return LawWitness(x, y, z, lhs, rhs)
    return None


def _height(elems: tuple[int, ...]) -> int:
    """Covering steps in a longest chain (a two-element chain has height 1)."""
    heights: list[int] = []
    best_overall = 0
    for idx, e in enumerate(elems):
        best = 0
        for jdx in range(idx):
            d = elems[jdx]
            if d != e and d & ~e == 0 and heights[jdx] + 1 > best:
                best = heights[jdx] + 1
        heights.append(best)
        if best > best_overall:
            best_overall = best
    return best_overall


def _atoms(elems: tuple[int, ...]) -> tuple[int, ...]:
    if len(elems) < 2:
        return ()
    out = []
    for idx in range(1, len(elems)):
        e = elems[idx]
        if not any(elems[m] & ~e == 0 for m in range(1, idx)):
            out.append(e)
    return tuple(out)


def covering_pairs(lattice: ThickLattice) -> list[tuple[int, int]]:
    """Hasse edges as (lower position, upper position) in canonical order."""
    elems = lattice.elements
    pairs: list[tuple[int, int]] = []
    for i, e in enumerate(elems):
        found: list[int] = []
        for j in range(i + 1, len(elems)):
            f = elems[j]
            if e & ~f == 0 and not any(elems[k] & ~f == 0 for k in found):
                found.append(j)
                pairs.append((i, j))
    return pairs


def export_dot(lattice: ThickLattice) -> str:
    """Hasse diagram in DOT syntax; nodes in canonical order, edges upward."""
    lines = ["digraph thick_lattice {", "  rankdir=BT;"]
    for i, label in enumerate(lattice.labels()):
        safe = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{safe}"];')
    for lo, hi in covering_pairs(lattice):
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
