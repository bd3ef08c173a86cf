"""Tensor structure: thick ideals, the prime spectrum, and the comparison map.

With a tensor table present, subsets can additionally be closed under
absorption (multiplying by anything stays inside), one more rule per element
in the closure engine's table. An ideal is closed under summands, so the
table holds each product, and the unit, as the mask of its components;
``ObjectExpr`` stays only in triangle vertices. Proper absorption-closed
subsets where a vanishing product forces a vanishing factor are the primes.
They are found by a pruned in/out search over the indecomposables, not by
enumerating every ideal: product:N has 2^N ideals and N primes, and its
search makes 2N closures. The prime spectrum is the universal construction
restricted to the primes, and the canonical comparison map into the
universal space is the inclusion.

Of the support axioms only the unit can fail on a spectrum, since the unit
law is never validated; the base axioms and the product rule are theorems
there, proved in the tests.
"""

from __future__ import annotations

from functools import partial

from .bitsets import canonical_sorted, mask_of, pick
from .closure import ThickLattice, iter_closed, propagate
from .closure import thick_closure  # noqa: F401  unused; bench/spans.py counts calls through this name
from .errors import NoTensor
from .presentation import Presentation, TensorTable
from .space import SupportMorphism, SupportSpace, build_sp


def _tensor(pres: Presentation) -> TensorTable:
    if pres.tensor is None:
        raise NoTensor("presentation has no tensor table")
    return pres.tensor


def ideal_closure(pres: Presentation, members: int, closed: int = 0,
                  stop: int = 0) -> int:
    """Least superset closed under the triangle rule and tensor absorption;
    ``closed`` is an ideal contained in ``members`` (or 0). A non-zero
    ``stop`` may end the closure at its first addition meeting ``stop``,
    with a partial closure, as in ``closure.propagate``. Runs
    ``pres.ideal_rules``: the triangle rules plus one absorption rule per
    element."""
    _tensor(pres)
    return propagate(pres.ideal_rules, members | pres.forced, closed, stop)


def enumerate_ideals(pres: Presentation) -> ThickLattice:
    """All absorption-closed thick subsets, canonical order."""
    _tensor(pres)
    # one FCbO over all elements, not one per triangle block as in
    # ``closure._walk_blocks``: absorption masks link elements across those blocks
    found = iter_closed(pres.size, partial(ideal_closure, pres))
    return ThickLattice(pres, canonical_sorted(found))


class Spectrum(SupportSpace):
    """The support space on the prime ideals, whose points it names
    ``primes``: each indecomposable is supported on the primes that miss it."""

    @property
    def primes(self) -> tuple[int, ...]:
        return self.lattice.elements


def primes(pres: Presentation) -> Spectrum:
    """Proper ideals where a vanishing product forces a vanishing factor,
    as the support space on them.

    A depth-first search puts each indecomposable, lowest undecided first,
    in or out of a candidate prime, keeping the in-set an ideal. For out
    elements x and y, a node dies when (a) its in-set's closure meets the
    out-set or (b) x*y lies in the in-set, and (c) every u with x*u in the
    in-set goes in, in one closure. These are exact: a prime holding the
    in-set holds its closure, and holding x*y or x*u but not x, it holds y
    or u. Each leaf with a proper in-set is a distinct prime. Primality is
    decided on pairs of indecomposables, with a symmetric table as parsing
    and builtins validate; membership is component-determined, so the
    object-level condition follows.
    """
    products = _tensor(pres).table
    indices = range(pres.size)
    full = pres.full_mask
    found = []
    stack = [(ideal_closure(pres, 0), 0)]
    while stack:
        q, out = stack.pop()
        # the u for which some out element x has x*u inside q
        vanishing = mask_of(u for x in pick(indices, out) for u in indices
                            if products[x][u] & ~q == 0)
        if vanishing & out:
            continue  # (b)
        add = vanishing & ~q  # (c)
        if not add:
            rest = full & ~(q | out)
            if not rest:
                if q != full:
                    found.append(q)
                continue
            add = rest & -rest
            stack.append((q, out | add))
        grown = ideal_closure(pres, q | add, q, out)
        if not grown & out:  # (a)
            stack.append((grown, out))
    sp = build_sp(ThickLattice(pres, canonical_sorted(found)))
    return Spectrum(sp.space, sp.sigma, sp.lattice)


def verify_tt_support(spectrum: SupportSpace) -> bool:
    """Whether the unit is supported on every point: each one misses some
    component of the unit.

    On the output of ``primes`` the base axioms and the product rule need
    no check. If x lies in a prime q, absorption puts the components of y*x
    into q, and with a symmetric table those are the components of x*y; if
    neither x nor y lies in q, primality keeps x*y out of q.
    """
    unit = _tensor(spectrum.lattice.presentation).unit
    return all(unit & ~q for q in spectrum.lattice.elements)


def comparison_map(spectrum: Spectrum, lattice: ThickLattice) -> SupportMorphism:
    """Canonical morphism from the prime spectrum into the universal space
    over ``lattice``.

    The universal morphism sends a point to the objects whose support avoids
    it, and at the prime q those are exactly the members of q. So the map is
    the inclusion of the primes among the thick subsets: it fixes every
    prime and is injective.
    """
    position = lattice.position
    return SupportMorphism(tuple(position[q] for q in spectrum.primes))
