"""Tensor structure: thick ideals, the prime spectrum, and the comparison map.

With a tensor table present, subsets can additionally be closed under
absorption (multiplying by anything stays inside). Proper absorption-closed
subsets where a vanishing product forces a vanishing factor are the primes.
The prime spectrum is the universal construction restricted to the primes,
so its supports satisfy the two tensor axioms on top of the base four, and
the canonical comparison map into the universal space is the inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import canonical_key
from .closure import ThickLattice, iter_closed, propagate
from .closure import thick_closure  # noqa: F401  unused; bench/spans.py counts calls through this name
from .errors import NoTensor
from .presentation import Presentation, TensorTable
from .space import (
    DatumReport,
    SupportMorphism,
    SupportSpace,
    build_sp,
    check_support_datum,
)


def _tensor(pres: Presentation) -> TensorTable:
    if pres.tensor is None:
        raise NoTensor("presentation has no tensor table")
    return pres.tensor


def ideal_closure(pres: Presentation, members: int, closed: int = 0) -> int:
    """Least superset closed under the triangle rule and tensor absorption;
    ``closed`` is an ideal contained in ``members`` (or 0)."""
    return propagate(pres, members, closed, _tensor(pres).absorption_masks)


def enumerate_ideals(pres: Presentation) -> ThickLattice:
    """All absorption-closed thick subsets, canonical order."""
    _tensor(pres)
    found = iter_closed(pres.size, lambda m, c: ideal_closure(pres, m, c))
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


@dataclass(frozen=True)
class TtReport:
    """Tensor support verdict: the base axioms plus unit and products."""

    support_report: DatumReport
    unit_full: bool
    product_violations: tuple[tuple[int, int], ...]

    @property
    def valid(self) -> bool:
        return self.support_report.valid and self.unit_full and not self.product_violations


def verify_tt_support(spectrum: SupportSpace) -> TtReport:
    """Check the unit covers everything and supports turn products into
    intersections, re-running the base axiom checks along the way."""
    pres = spectrum.lattice.presentation
    table = _tensor(pres)
    datum = spectrum.as_datum()
    base = check_support_datum(datum, pres)
    unit_full = datum.sigma_of(table.unit) == datum.space.full_mask
    sigma = datum.sigma
    bad_pairs = []
    for x in range(pres.size):
        for y in range(x, pres.size):
            if datum.sigma_of(table.table[x][y]) != sigma[x] & sigma[y]:
                bad_pairs.append((x, y))
    return TtReport(base, unit_full, tuple(bad_pairs))


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
