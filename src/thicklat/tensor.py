"""Tensor structure: thick ideals, the prime spectrum, and the comparison map.

With a tensor table present, subsets can additionally be closed under
absorption (multiplying by anything stays inside). Proper absorption-closed
subsets where a vanishing product forces a vanishing factor are the primes.
The prime spectrum is the universal construction restricted to the primes,
and the canonical comparison map into the universal space is the inclusion.

Of the support axioms only the unit can fail on a spectrum, since the unit
law is never validated; the base axioms and the product rule are theorems
there, proved in the tests.
"""

from __future__ import annotations

from .bitsets import canonical_key, mask_of
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
    with a partial closure, as in ``closure.propagate``."""
    return propagate(pres, members, closed, _tensor(pres).absorption_masks, stop)


def enumerate_ideals(pres: Presentation) -> ThickLattice:
    """All absorption-closed thick subsets, canonical order."""
    _tensor(pres)
    found = iter_closed(pres.size, lambda m, c, s: ideal_closure(pres, m, c, s))
    return ThickLattice(pres, tuple(sorted(found, key=canonical_key)))


class Spectrum(SupportSpace):
    """The support space on the prime ideals, whose points it names
    ``primes``: each indecomposable is supported on the primes that miss it."""

    @property
    def primes(self) -> tuple[int, ...]:
        return self.lattice.elements


def primes(pres: Presentation) -> Spectrum:
    """Proper ideals where a vanishing product forces a vanishing factor,
    as the support space on them.

    Primality is decided on pairs of indecomposables; the object-level
    condition follows because membership is component-determined.
    """
    product_masks = _tensor(pres).product_masks
    n = pres.size
    full = pres.full_mask
    # a subsequence of the ideals, so still in canonical order
    found = tuple(q for q in enumerate_ideals(pres).elements
                  if q != full and _is_prime(q, n, product_masks))
    sp = build_sp(ThickLattice(pres, found))
    return Spectrum(sp.lattice, sp.space, sp.sup)


def _is_prime(q: int, n: int, product_masks: tuple[tuple[int, ...], ...]) -> bool:
    for x in range(n):
        x_in = (q >> x) & 1
        row = product_masks[x]
        for y in range(x, n):
            if row[y] & ~q == 0 and not (x_in or (q >> y) & 1):
                return False
    return True


def verify_tt_support(spectrum: SupportSpace) -> bool:
    """Whether the unit is supported on every point: each one misses some
    component of the unit.

    On the output of ``primes`` the base axioms and the product rule need
    no check. If x lies in a prime q, absorption puts the components of y*x
    into q, and with symmetric component supports those are the components
    of x*y; if neither x nor y lies in q, primality keeps x*y out of q.
    """
    unit = mask_of(_tensor(spectrum.lattice.presentation).unit)
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
