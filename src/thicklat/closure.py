"""Closure engine for the triangle rule and enumeration of all closed subsets.

A subset of indecomposables is closed ("thick") when, for every triangle and
every choice of two vertices whose component supports it contains, it also
contains the support of the third vertex. Summand closure is built into
component-wise membership and shift closure is automatic because
indecomposables are shift orbits, so the triangle rule is the whole story.
Tensor ideals add one more rule per element (absorption), run by the same
engine.

Closure is a worklist propagation over the presentation's ``rule_index``:
only elements not already in a known closed subset are queued, and each
queued element checks just the triangles that touch it. Enumeration is
Close-by-One (Kuznetsov 1993) with FCbO's inherited-failure pruning (Krajca,
Outrata & Vychodil 2010): every closed set is the closure of a closed parent
plus one element, so each closure starts from a closed base, and each node
hands its children one copy of its parent's failure records plus its own. As
in In-Close (Andrews 2009), the canonicity test runs inside the closure: a
candidate's closure stops at its first addition below the added element, so
a rejected candidate costs only the work up to that addition.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

from .bitsets import canonical_sorted
from .presentation import Presentation


def propagate(pres: Presentation, members: int, closed: int,
              implied: tuple[int, ...], stop: int = 0) -> int:
    """Least superset of ``members`` closed under the triangle rule and
    ``implied`` (the mask each element forces in by itself).

    ``closed`` must be 0 or a subset of ``members`` that is already closed
    under the same rules; its elements are trusted and never re-examined.
    The rule fires on any two contained vertices because rotating a stored
    triangle is always permitted.

    The walk returns early, with a partial closure, at the first addition
    that meets ``stop``. What it returns lies between ``members`` and the
    closure, meets ``stop`` exactly when the closure does, and is the
    closure whenever it misses ``stop``.
    """
    index = pres.rule_index
    touching = index.touching
    cur = members | index.forced
    todo = cur & ~closed
    while todo:
        low = todo & -todo
        todo ^= low
        e = low.bit_length() - 1
        add = implied[e]
        missing = ~cur
        for rest, p, q in touching[e]:
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

    Extensive, monotone, and idempotent.
    """
    return propagate(pres, members, closed, pres.rule_index.implied, stop)


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
    full = (1 << n) - 1
    stack = [(close(0, 0, 0), 0, [0] * n)]
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
        return self.presentation.labels(self.elements)


def iter_thick(pres: Presentation) -> Iterator[int]:
    """All thick subsets via FCbO enumeration, in ``iter_closed``'s order."""
    return iter_closed(pres.size, lambda m, c, s: thick_closure(pres, m, c, s))


def enumerate_thick(pres: Presentation) -> ThickLattice:
    """All thick subsets, canonically ordered."""
    return ThickLattice(pres, canonical_sorted(iter_thick(pres)))

