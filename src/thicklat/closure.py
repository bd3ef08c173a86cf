"""Closure engine for the triangle rule and enumeration of all closed subsets.

A subset of indecomposables is closed ("thick") when, for every triangle and
every choice of two vertices whose component supports it contains, it also
contains the support of the third vertex. Summand closure is built into
component-wise membership and shift closure is automatic because
indecomposables are shift orbits, so the triangle rule is the whole story.
Tensor ideals add one more rule per element (absorption).

Closure is a worklist propagation over a table of rules keyed by the element
whose arrival can fire them: ``Presentation.rules`` for thick subsets,
``Presentation.ideal_rules`` for ideals. Only elements not already in a
known closed subset are queued, and each checks just its own rules.
Enumeration is Close-by-One (Kuznetsov 1993) with FCbO's inherited-failure
pruning (Krajca, Outrata & Vychodil 2010): every closed set is the closure
of a closed parent plus one element, so each closure starts from a closed
base, and each node hands its children one copy of its parent's failure
records plus its own. As in In-Close (Andrews 2009), the canonicity test
runs inside the closure: a candidate's closure stops at its first addition
below the added element, so a rejected candidate costs only the work up to
that addition.

The thick subsets of a presentation whose elements fall into several
blocks, with no triangle between two of them, are the unions of one thick
subset per block, as the thick subcategories of a product are the products
of the factors'. So past the table bound below, ``enumerate_thick`` runs
FCbO on each block alone (``_walk_blocks``) and streams the unions, paying
a closure per set of a block, not per set of the product. Ideals keep one
walk over all elements (see ``tensor``).

A small presentation is enumerated with no closure at all. Thickness is one
Boolean function on the 2^n subsets, and Python's ints compute it as a
truth table (Knuth, TAOCP 4A, 7.1.3): one 2^n-bit int per element, ANDed
into each implication of ``Presentation.rules`` and OR-ed into one table of
the subsets that break one. The thick subsets are read off the other bits
in blocks, with no Python call per subset, and come out in member-sequence
order within each size, so only a sort by size is left (``bench/run.py``
``enumerate`` 0.277 -> 0.184 s, 2-vCPU Xeon, Python 3.11). The table's cost
grows with 2^n times the triangles, FCbO's with the closed sets, so the
table takes a presentation only while ``(triangles + 16) << n`` stays
within ``TABLE_BOUND``, set from a sweep of both engines over 14-20
elements. ``count_thick`` counts without listing: the table's set bits, or
the product of the blocks' FCbO counts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import compress, product
from math import prod
from operator import and_

from .bitsets import _DIGITS, canonical_sorted, pick
from .presentation import Presentation, RuleTable

# the truth table enumerates a presentation of n elements and t triangles
# while (t + 16) << n is at most this; past it, FCbO does. With 19 elements
# and 13 sparse triangles the table takes 0.15-0.4 of FCbO's time; with far
# more triangles than elements FCbO's few closures win, by up to 20 ms at 14
TABLE_BOUND = 1 << 24


def propagate(rules: RuleTable, members: int, closed: int, stop: int = 0) -> int:
    """Least superset of ``members`` closed under the rule table ``rules``.

    ``closed`` must be 0 or a subset of ``members`` that is already closed
    under the same rules; its elements are trusted and never re-examined.
    The walk returns early, with a partial closure, at the first addition
    that meets ``stop``. What it returns lies between ``members`` and the
    closure, meets ``stop`` exactly when the closure does, and is the
    closure whenever it misses ``stop``.
    """
    cur, todo = members, members & ~closed
    while todo:
        low = todo & -todo
        todo ^= low
        e = low.bit_length() - 1
        add = 0
        missing = ~cur
        for rest, p, q in rules[e]:
            if rest & missing:
                continue  # the vertex through e is not complete yet
            if not p & missing:
                add |= q
            elif not q & missing:
                add |= p
        add &= missing
        if add:
            cur |= add
            if add & stop:
                return cur
            todo |= add
    return cur


def thick_closure(pres: Presentation, members: int, closed: int = 0,
                  stop: int = 0) -> int:
    """Least thick superset of ``members``; ``closed`` is a thick subset of
    ``members`` (or 0) whose closure work is already done. A non-zero
    ``stop`` may end the closure early, as in ``propagate``.

    Runs ``pres.rules`` from ``members`` and ``pres.forced``; a rule fires
    on any two vertices, as rotating a stored triangle is always permitted.
    Extensive, monotone, and idempotent.
    """
    return propagate(pres.rules, members | pres.forced, closed, stop)


def iter_closed(n: int, close: Callable[[int, int, int], int]) -> Iterator[int]:
    """All fixed points of a closure operator on subsets of range(n).

    ``close(members, closed, stop)`` must return the closure of ``members``
    given that ``closed`` is 0 or a closed subset of ``members``; every call
    made here passes the closed parent of the candidate. With a non-zero
    ``stop`` it may instead return any set between ``members`` and the
    closure that meets ``stop``, but only when the closure meets it.

    FCbO enumeration: each closed set is the closure of a parent plus one
    element j that adds nothing below j, so each is produced exactly once.
    In-Close's early test (Andrews 2009) passes the elements below j outside
    the parent as ``stop``, so a closure can end at its first failing
    addition. A candidate that fails is remembered for j, and descendants
    whose set misses one of its elements below j skip the call, since their
    candidate would fail too. A partial record P still counts: P lies in
    cl(parent | j), hence in cl(d | j) for each descendant d, so an element
    of P below j that d lacks is in cl(d | j) too. Each node copies its
    parent's records once, writes its failures there and pushes each child
    with it at once: no child pops before the loop ends, so each sees every
    record, and each copies before writing, so none sees a sibling's.
    """
    return _fcbo((1 << n) - 1, close)


def _fcbo(full: int, close: Callable[[int, int, int], int]) -> Iterator[int]:
    """``iter_closed``'s walk, trying only the candidates inside ``full``.
    Where no rule links ``full`` to the other elements, it yields the closed
    sets whose part outside ``full`` is that of ``close(0, 0, 0)``."""
    stack = [(close(0, 0, 0), 0, [0] * full.bit_length())]
    while stack:
        parent, start, failed = stack.pop()
        yield parent
        failed = list(failed)
        todo = full & ~parent & -(1 << start)
        while todo:
            bit = todo & -todo
            todo ^= bit
            j = bit.bit_length() - 1
            below = ~parent & (bit - 1)
            if failed[j] & below:
                continue  # an ancestor's candidate for j already failed here
            child = close(parent | bit, parent, below)
            if child & below:
                failed[j] = child
            else:
                stack.append((child, j + 1, failed))


@dataclass(frozen=True)
class ThickLattice:
    """Closed subsets of a presentation in canonical order: all thick
    subsets, all thick ideals, or the prime ideals.

    Canonical order sorts by cardinality with ties broken by the member
    sequence, so positions and serialized listings are byte-stable. In
    ``lattice``, covers and ``analyze`` read the family's inclusion order,
    so they need a family closed under intersection that holds the full
    set, as the thick subsets and the thick ideals are, and raise
    ``NotAnElement`` on any other; ``join`` closes with ``thick_closure``
    and raises ``NotAnElement`` where the closure falls outside.
    """

    presentation: Presentation
    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def position(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def labels(self) -> tuple[str, ...]:
        return tuple(self.presentation.labels(self.elements))


def _fits_table(pres: Presentation) -> bool:
    return (len(pres.triangles) + 16) << pres.size <= TABLE_BOUND


def _closed_table(pres: Presentation) -> int:
    """Truth table of thickness: bit x is set when the subset that holds
    element i for each set bit n-1-i of x is thick.

    Each rule (rest, p, q) of element e states two implications, rest|e|p
    -> q and rest|e|q -> p, and ``pres.forced`` a third, from nothing; the
    subsets that break one hold its premise, but not all of its conclusion.
    Element i's table is bit n-1-i of every x, written as repeated bytes."""
    n = pres.size
    full = (1 << (1 << n)) - 1
    size = max(1, (1 << n) >> 3)  # bytes, one at least where 2^n < 8
    held = []
    for i in range(n):
        k = n - 1 - i
        run = 1 << k >> 3
        pattern = bytes(run) + b"\xff" * run if run else bytes(((0xAA, 0xCC, 0xF0)[k],))
        held.append(int.from_bytes(pattern * (size // len(pattern)), "little") & full)
    implications = {(0, pres.forced)}
    for e, rules in enumerate(pres.rules):
        for rest, p, q in rules:
            implications.add((rest | 1 << e | p, q))
            implications.add((rest | 1 << e | q, p))
    bad = 0
    for premise, conclusion in implications:
        if conclusion & ~premise:
            have = reduce(and_, map(held.__getitem__, pick(range(n), premise)), full)
            bad |= have ^ reduce(and_, map(held.__getitem__, pick(range(n), conclusion)), have)
    return full ^ bad


def _table_sets(n: int, closed: int) -> list[int]:
    """The subsets at the set bits of a truth table over n elements, from
    the highest bit down, which is member-sequence order within each size.

    ``bin`` writes bit 2^n - 1 - k at index k, the full set, always thick,
    first; element n-1-b is in where bit b of k is clear. The digits are
    cut into blocks of 2^10, and each block's sets are its low part's masks
    selected by ``compress``, OR-ed with the block's high part."""
    def masks(bits: range) -> list[int]:  # per value of the bits, by doubling
        table = [0]
        for b in bits:
            table = [t | 1 << (n - 1 - b) for t in table] + table
        return table

    width = min(n, 10)
    lows, highs = masks(range(width)), masks(range(width, n))
    digits = bin(closed)[2:].encode().translate(_DIGITS)
    found: list[int] = []
    for j, high in enumerate(highs):
        found += map(high.__or__, compress(lows, digits[j << width:(j + 1) << width]))
    return found


def _walk_blocks(pres: Presentation) -> Iterator[int]:
    """All thick subsets, each once, unsorted: FCbO on each block, and the
    unions of one set per block streamed from ``itertools.product``, holding
    only the parts. One block is walked lazily, as ``iter_closed`` walks it."""
    close = partial(thick_closure, pres)
    blocks = pres.blocks
    if len(blocks) < 2:
        return _fcbo(pres.full_mask, close)
    parts = [tuple(s & block for s in _fcbo(block, close)) for block in blocks]
    return map(sum, product(*parts))


def count_thick(pres: Presentation) -> int:
    """The number of thick subsets, none of them listed: the truth table's
    set bits, or past the bound the product of each block's FCbO count."""
    if _fits_table(pres):
        return _closed_table(pres).bit_count()
    close = partial(thick_closure, pres)
    return prod(sum(1 for _ in _fcbo(block, close)) for block in pres.blocks)


def count_thick_by_blocks(pres: Presentation) -> int | None:
    """``count_thick`` where it walks far fewer sets than ``enumerate_thick``
    lists: past the table bound, on two or more blocks. None elsewhere, where
    the count costs about what the listing does."""
    if _fits_table(pres) or len(pres.blocks) < 2:
        return None
    return count_thick(pres)


def enumerate_thick(pres: Presentation) -> ThickLattice:
    """All thick subsets, canonically ordered, from the table or the blocks."""
    if _fits_table(pres):
        found = _table_sets(pres.size, _closed_table(pres))
        # member-sequence order within each size: a stable sort by size finishes it
        found.sort(key=int.bit_count)
        return ThickLattice(pres, tuple(found))
    # collected first, so that the blocks' parts are freed before the sort
    return ThickLattice(pres, canonical_sorted(tuple(_walk_blocks(pres))))
