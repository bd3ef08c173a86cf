"""Finite spaces of closed sets, support data, and the universal construction.

The universal support space has one point per thick subset and assigns each
indecomposable the set of points (subcategories) that miss it. Those
assignments generate the closed-set family, every support datum maps into
the space uniquely, and both directions of that statement are checkable
here: axiom verification, the canonical morphism, and morphism checking.

``build_sp`` and ``universal_morphism`` read one object-by-point incidence
matrix in its two directions: supports by omission are the complemented
transpose of the points, and the image of a point is the complemented
transpose of the supports. Pullbacks along a point map are the same
transpose of the mapped points, so all of them go through
``bitsets.omitted``.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, or_

from .bitsets import mask_of, omitted, pick
from .closure import ThickLattice
from .errors import InvalidParameter, NotThick, SchemaError, ValidationError
from .presentation import ObjectExpr, Presentation, _members, _parse_names, _require_keys, _values


@dataclass(frozen=True)
class FinSpace:
    """Finite space described by generators of its closed-set family.

    The generators, the empty set and the whole space are closed by definition,
    and the family is what union and intersection make of them. Its members are
    the unions of intersections of generators, so the smallest closed set
    holding a point is its point closure: the intersection of the generators
    through it, or the whole space when none is. The smallest closed superset
    of a set is the union of its points' closures, and a set is closed when
    that adds nothing; the family is never materialized. A directly built space
    may hold generators past its points: those are not closed.
    """

    points: tuple[str, ...]
    generators: tuple[int, ...]

    @classmethod
    def generate(cls, points: Iterable[str], generators: Iterable[int]) -> FinSpace:
        pts = tuple(points)
        full = (1 << len(pts)) - 1
        # the empty set is closed by fiat, so it is dropped as a generator
        gens = tuple(sorted({g & full for g in generators} - {0}))
        return cls(pts, gens)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    @cached_property
    def _point_closures(self) -> tuple[int, ...]:
        gens = self.generators
        every = (1 << len(gens)) - 1
        return tuple(reduce(and_, pick(gens, every ^ avoiding), self.full_mask)
                     for avoiding in omitted(gens, len(self.points)))

    def closed_closure(self, mask: int) -> int:
        """Smallest closed superset of the given point set."""
        return reduce(or_, pick(self._point_closures, mask), 0)

    @cached_property
    def _closed_by_definition(self) -> frozenset[int]:
        return frozenset([0, self.full_mask, *(g for g in self.generators if g <= self.full_mask)])

    def is_closed(self, mask: int) -> bool:
        """A generator, the empty set and the whole space are closed by definition."""
        return mask in self._closed_by_definition or self.closed_closure(mask) == mask


@dataclass(frozen=True)
class SupportDatum:
    """Closed support sets per indecomposable over a finite space.

    Supports extend to arbitrary objects by union over components. That
    extension makes the zero object's support empty and direct sums
    additive by construction, and shift invariance holds because
    indecomposables already stand for shift orbits; only the triangle
    axiom and closedness carry actual content to check.
    """

    space: FinSpace
    sigma: tuple[int, ...]
    origin_map: tuple[int, ...] | None = field(default=None, kw_only=True)

    def sigma_of(self, expr: ObjectExpr) -> int:
        """Support of a formal sum: the union over its components."""
        m = 0
        for i in set(expr):
            m |= self.sigma[i]
        return m


@dataclass(frozen=True)
class SupportSpace(SupportDatum):
    """Closed subsets as points, each indecomposable supported on the points
    that omit it.

    Over every thick subset this is the universal support space, itself a
    support datum: the terminal one, into which every datum maps uniquely
    and whose own map is the identity. Over the prime ideals it is the
    prime spectrum.
    """

    lattice: ThickLattice


def build_sp(lattice: ThickLattice) -> SupportSpace:
    """One point per element of ``lattice``, supports by omission."""
    sigma = omitted(lattice.elements, lattice.presentation.size)
    return SupportSpace(FinSpace.generate(lattice.labels(), sigma), sigma, lattice)


STRUCTURAL_AXIOMS: tuple[tuple[str, str], ...] = (
    ("zero", "the zero object has empty support: empty union over no components"),
    ("sums", "supports extend over direct sums by union"),
    ("shift", "indecomposables stand for whole shift orbits"),
)

ROTATIONS = ("a vs b,c", "b vs c,a", "c vs a,b")
# map prints one "<point> -> <label>" line per point, read by its first arrow
POINT_ARROW = " -> "


@dataclass(frozen=True)
class TriangleViolation:
    triangle: int
    rotation: int
    excess: int  # points of the head support outside the union of the others


@dataclass(frozen=True)
class DatumReport:
    triangle_violations: tuple[TriangleViolation, ...]
    unclosed: tuple[int, ...]

    @property
    def valid(self) -> bool:
        return not self.triangle_violations and not self.unclosed


def check_support_datum(datum: SupportDatum, pres: Presentation) -> DatumReport:
    """Verify the support axioms; violations are report content, not errors.

    The triangle containment is checked in all three rotations of every
    stored triangle, and every per-indecomposable support must be closed.
    """
    _require_one_support_each(datum, pres)
    tri_violations = []
    for t_idx, tri in enumerate(pres.triangles):
        sa = datum.sigma_of(tri.a)
        sb = datum.sigma_of(tri.b)
        sc = datum.sigma_of(tri.c)
        for rot, (head, rest) in enumerate(
                ((sa, sb | sc), (sb, sc | sa), (sc, sa | sb))):
            excess = head & ~rest
            if excess:
                tri_violations.append(TriangleViolation(t_idx, rot, excess))
    unclosed = tuple(
        a for a in range(pres.size) if not datum.space.is_closed(datum.sigma[a]))
    return DatumReport(tuple(tri_violations), unclosed)


def _require_one_support_each(datum: SupportDatum, pres: Presentation) -> None:
    if len(datum.sigma) != pres.size:
        raise InvalidParameter(
            f"datum has {len(datum.sigma)} supports for {pres.size} indecomposables; "
            "it must assign one to each")


@dataclass(frozen=True)
class SupportMorphism:
    """Point map into a support space, as positions of lattice elements."""

    mapping: tuple[int, ...]


def universal_morphism(datum: SupportDatum, sp: SupportSpace) -> SupportMorphism:
    """Send each point to the set of objects whose support avoids it.

    That set must be a thick subset, i.e. a point of the universal space;
    when it is not, the datum violated an axiom and NotThick is raised.
    The pullback identity holds by construction: x lies in the preimage of
    sp.sigma[a] exactly when a is missing from the image of x, i.e. when x
    lies in datum.sigma[a].
    """
    pres = sp.lattice.presentation
    _require_one_support_each(datum, pres)
    position = sp.lattice.position
    mapping = []
    for x, image in enumerate(omitted(datum.sigma, len(datum.space.points))):
        pos = position.get(image)
        if pos is None:
            raise NotThick(
                f"point {datum.space.points[x]!r} maps to {pres.label(image)}, "
                "which is not closed under the triangle rule")
        mapping.append(pos)
    return SupportMorphism(tuple(mapping))


@dataclass(frozen=True)
class MorphismReport:
    ok: bool
    pullback_failure: str | None = None
    continuity_failure: str | None = None


def check_morphism(datum: SupportDatum, sp: SupportSpace,
                   morphism: SupportMorphism) -> MorphismReport:
    """Pullback identity and continuity; diagnostics stop at the first failure.

    Continuity is decided on the generating closed sets of the target:
    preimages commute with union and intersection and the source family is
    closed under both, so the generators decide the whole family.
    """
    _require_one_support_each(datum, sp.lattice.presentation)
    if len(morphism.mapping) != len(datum.space.points):
        raise InvalidParameter("morphism must map every point of the datum's space")
    elems = sp.lattice.elements
    for t in morphism.mapping:
        if not 0 <= t < len(elems):
            raise InvalidParameter(f"morphism target position {t} is out of range")
    names = sp.lattice.presentation.names
    # x lies in the preimage of sp.sigma[a] exactly when a is missing from x's target
    pullbacks = omitted([elems[t] for t in morphism.mapping], len(names))
    for a, pre in enumerate(pullbacks):
        if pre != datum.sigma[a]:
            return MorphismReport(False, pullback_failure=names[a])
        if not datum.space.is_closed(pre):
            return MorphismReport(
                False, continuity_failure=f"preimage of sup({names[a]})")
    return MorphismReport(True)


def check_draw_parameters(num_points: int, seed: int) -> None:
    """Raise ``InvalidParameter`` unless ``random_support_datum`` accepts
    ``num_points`` and ``seed``. The seed must lie in [0, 2**64):
    ``random.Random`` seeds an int with its absolute value, so -1 would draw
    the datum of 1."""
    if num_points < 0:
        raise InvalidParameter("num_points must be >= 0")
    if not 0 <= seed < 1 << 64:
        raise InvalidParameter(f"seed {seed} is outside [0, 2**64)")


def random_support_datum(sp: SupportSpace, num_points: int, seed: int) -> SupportDatum:
    """Pull the canonical supports back along a seeded random point map.

    Pullbacks of support data along arbitrary maps are support data, so the
    result is always valid; the drawn map is retained on the result so
    round trips through the universal morphism can be checked pointwise.
    The arguments are checked by ``check_draw_parameters``.
    """
    check_draw_parameters(num_points, seed)
    rng = random.Random(seed)
    elems = sp.lattice.elements
    origin = tuple(rng.randrange(len(elems)) for _ in range(num_points))
    sigma = omitted([elems[t] for t in origin], sp.lattice.presentation.size)
    points = tuple(f"x{i}" for i in range(num_points))
    space = FinSpace.generate(points, sigma)
    return SupportDatum(space, sigma, origin_map=origin)


# --------------------------------------------------------------------------
# Document formats


def datum_from_document(doc: object, pres: Presentation) -> SupportDatum:
    """Parse a support datum document.

    ``closed`` is optional; when present its sets generate the closed
    family, otherwise the family is generated from the supports themselves.
    """
    _require_keys(doc, {"points", "closed", "sigma"}, {"points", "sigma"}, "support datum")
    points = _parse_names(doc["points"], "points")
    for name in points:
        # an arrow inside the name, or one its end makes with the arrow
        # printed after it, would come first
        if POINT_ARROW in name + POINT_ARROW[:-1]:
            raise ValidationError(
                f"points: name {name!r} runs into the {POINT_ARROW!r} that map prints after it")
    index = {p: i for i, p in enumerate(points)}
    sigma = tuple(mask_of(_members(raw, index, f"sigma[{name}]"))
                  for name, raw in zip(pres.names, _values(doc["sigma"], pres.names, "sigma")))
    gens = sigma
    if doc.get("closed") is not None:
        raw_closed = doc["closed"]
        if not isinstance(raw_closed, list):
            raise SchemaError("closed must be a list of point lists")
        gens = [mask_of(_members(c, index, f"closed[{i}]")) for i, c in enumerate(raw_closed)]
    return SupportDatum(FinSpace.generate(points, gens), sigma)


def datum_to_document(datum: SupportDatum, pres: Presentation) -> dict:
    return {
        "points": list(datum.space.points),
        "closed": [pick(datum.space.points, g) for g in datum.space.generators],
        "sigma": {
            pres.names[a]: pick(datum.space.points, datum.sigma[a])
            for a in range(pres.size)
        },
    }


def morphism_from_document(doc: object, datum: SupportDatum,
                           sp: SupportSpace) -> SupportMorphism:
    _require_keys(doc, {"map"}, {"map"}, "morphism")
    target_index = {p: i for i, p in enumerate(sp.space.points)}
    mapping = []
    for dest in _values(doc["map"], datum.space.points, "map"):
        if not isinstance(dest, str) or dest not in target_index:
            raise ValidationError(f"map: target {dest!r} is not a point of the space")
        mapping.append(target_index[dest])
    return SupportMorphism(tuple(mapping))


def morphism_to_document(morphism: SupportMorphism, datum: SupportDatum,
                         sp: SupportSpace) -> dict:
    return {
        "map": {
            datum.space.points[x]: sp.space.points[t]
            for x, t in enumerate(morphism.mapping)
        }
    }
