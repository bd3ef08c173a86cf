"""Tensor structure: thick ideals, the prime spectrum, and the comparison map.

With a tensor table present, subsets can additionally be closed under
absorption (multiplying by anything stays inside). Proper absorption-closed
subsets where a vanishing product forces a vanishing factor are the primes;
their supports satisfy the two tensor axioms on top of the base four, and
the finality of the universal space yields a canonical comparison map that
fixes each prime.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .bitsets import canonical_key, mask_of
from .closure import iter_closed, propagate
from .closure import thick_closure  # noqa: F401  unused; bench/spans.py counts calls through this name
from .errors import NoTensor
from .presentation import ObjectExpr, Presentation, TensorTable
from .space import (
    DatumReport,
    FinSpace,
    SupportDatum,
    SupportMorphism,
    SupportSpace,
    check_support_datum,
    universal_morphism,
)


def _tensor(pres: Presentation) -> TensorTable:
    if pres.tensor is None:
        raise NoTensor("presentation has no tensor table")
    return pres.tensor


def ideal_closure(pres: Presentation, members: int, closed: int = 0) -> int:
    """Least superset closed under the triangle rule and tensor absorption;
    ``closed`` is an ideal contained in ``members`` (or 0)."""
    return propagate(pres, members, closed, _tensor(pres).absorption_masks)


def enumerate_ideals(pres: Presentation) -> tuple[int, ...]:
    """All absorption-closed thick subsets, canonical order."""
    _tensor(pres)
    found = iter_closed(pres.size, lambda m, c: ideal_closure(pres, m, c))
    return tuple(sorted(found, key=canonical_key))


@dataclass(frozen=True)
class Spectrum:
    """Prime ideals in canonical order with their supports.

    supp assigns each indecomposable the set of primes that miss it, and
    extends to objects by union over components.
    """

    presentation: Presentation
    primes: tuple[int, ...]
    supp: tuple[int, ...]

    @classmethod
    def from_primes(cls, pres: Presentation, prime_sets: Iterable[int]) -> Spectrum:
        ordered = tuple(sorted(prime_sets, key=canonical_key))
        supp = []
        for a in range(pres.size):
            bit = 1 << a
            m = 0
            for pos, q in enumerate(ordered):
                if not q & bit:
                    m |= 1 << pos
            supp.append(m)
        return cls(pres, ordered, tuple(supp))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.presentation.label(q) for q in self.primes)

    def supp_of(self, expr: ObjectExpr) -> int:
        m = 0
        for i in set(expr):
            m |= self.supp[i]
        return m

    @cached_property
    def prime_space(self) -> FinSpace:
        return FinSpace.generate(self.labels(), self.supp)

    def as_datum(self) -> SupportDatum:
        return SupportDatum(self.prime_space, self.supp)


def primes(pres: Presentation) -> Spectrum:
    """Proper ideals where a vanishing product forces a vanishing factor.

    Primality is decided on pairs of indecomposables; the object-level
    condition follows because membership is component-determined.
    """
    table = _tensor(pres)
    n = pres.size
    full = pres.full_mask
    product_masks = [[mask_of(table.table[x][y]) for y in range(n)] for x in range(n)]
    found = []
    for q in enumerate_ideals(pres):
        if q != full and _is_prime(q, n, product_masks):
            found.append(q)
    return Spectrum.from_primes(pres, found)


def _is_prime(q: int, n: int, product_masks: list[list[int]]) -> bool:
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


def verify_tt_support(spectrum: Spectrum, pres: Presentation) -> TtReport:
    """Check the unit covers everything and supports turn products into
    intersections, re-running the base axiom checks along the way."""
    table = _tensor(pres)
    base = check_support_datum(spectrum.as_datum(), pres)
    everything = (1 << len(spectrum.primes)) - 1
    unit_full = spectrum.supp_of(table.unit) == everything
    bad_pairs = []
    for x in range(pres.size):
        for y in range(x, pres.size):
            if spectrum.supp_of(table.table[x][y]) != spectrum.supp[x] & spectrum.supp[y]:
                bad_pairs.append((x, y))
    return TtReport(base, unit_full, tuple(bad_pairs))


@dataclass(frozen=True)
class CompressionReport:
    spectrum_points: int
    universal_points: int
    injective: bool


def comparison_map(spectrum: Spectrum,
                   sp: SupportSpace) -> tuple[SupportMorphism, CompressionReport]:
    """Canonical morphism from the prime spectrum into the universal space.

    Every prime is itself a thick subset, so the map must fix primes; the
    sizes side by side show how much smaller the spectrum is.
    """
    morphism = universal_morphism(spectrum.as_datum(), sp)
    position = sp.lattice.position
    for idx, q in enumerate(spectrum.primes):
        assert morphism.mapping[idx] == position[q]
    injective = len(set(morphism.mapping)) == len(morphism.mapping)
    report = CompressionReport(
        spectrum_points=len(spectrum.primes),
        universal_points=len(sp.lattice.elements),
        injective=injective,
    )
    return morphism, report
