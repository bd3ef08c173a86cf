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
of the factors'. So ``iter_thick`` runs FCbO on each block alone and streams
the unions, paying a closure per set of a block, not per set of the
product. Ideals keep one walk over all elements (see ``tensor``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product

from .bitsets import canonical_sorted
from .presentation import Presentation, RuleTable


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
        return self.presentation.labels(self.elements)


def iter_thick(pres: Presentation) -> Iterator[int]:
    """All thick subsets, each once, in no canonical order.

    No triangle links two of the presentation's ``blocks``, so the thick
    subsets are the unions of one thick subset of each block. FCbO
    enumerates each block's part, and the unions are streamed from
    ``itertools.product`` with no closure per set. This holds only the
    blocks' parts, the sum of their sizes where the result is their
    product, never the whole product. A presentation of one block is walked
    lazily, in ``iter_closed``'s order and with its calls.
    """
    close = partial(thick_closure, pres)
    blocks = pres.blocks
    if len(blocks) < 2:
        return _fcbo(pres.full_mask, close)
    parts = [tuple(s & block for s in _fcbo(block, close)) for block in blocks]
    return map(sum, product(*parts))


def enumerate_thick(pres: Presentation) -> ThickLattice:
    """All thick subsets, canonically ordered."""
    # collected first, so that the blocks' parts are freed before the sort
    return ThickLattice(pres, canonical_sorted(tuple(iter_thick(pres))))

