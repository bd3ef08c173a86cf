"""Finite spaces of closed sets, support data, and the universal construction.

The universal support space has one point per thick subset and assigns each
indecomposable the set of points (subcategories) that miss it. Those
assignments generate the closed-set family, every support datum maps into
the space uniquely, and both directions of that statement are checkable
here: axiom verification, the canonical morphism, and morphism checking.

A datum is one object-by-point incidence matrix, read in two directions:
its supports are the rows per object, and ``SupportDatum.images``, their
complemented transpose, the rows per point, each the objects whose support
avoids the point. ``build_sp`` makes the supports by omission from the
points, and ``random_support_datum`` makes them from the rows it draws and
keeps those rows as the images, so a drawn datum pays one
``bitsets.omitted`` transpose and no more. ``universal_morphism`` looks
each image up among the thick subsets, and ``check_morphism`` compares the
images with the mapped points row by row, with no transpose: a's pullback
equals a's support exactly when no point's target and image differ at a.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from functools import cached_property, reduce
from itertools import compress, repeat
from operator import and_, not_, or_, xor

from ._value import Value
from .bitsets import mask_of, omitted, pick, picks
from .closure import ThickLattice
from .errors import InvalidParameter, NotThick, SchemaError, ValidationError
from .presentation import Presentation, _members, _parse_names, _require_keys, _values


class FinSpace(Value):
    """Finite space described by generators of its closed-set family.

    The generators, the empty set and the whole space are closed by definition,
    and the family is what union and intersection make of them. Its members are
    the unions of intersections of generators, so the smallest closed set
    holding a point is its point closure: the intersection of the generators
    through it, or the whole space when none is. The smallest closed superset
    of a set is the union of its points' closures, and a set is closed when
    that adds nothing; the family is never materialized. The constructor
    masks each generator to the points, drops repeats and the empty set,
    and sorts what is left.
    """

    points: tuple[str, ...]
    generators: tuple[int, ...]

    def __init__(self, points: Iterable[str], generators: Iterable[int]) -> None:
        points = tuple(points)
        full = (1 << len(points)) - 1
        object.__setattr__(self, "points", points)
        # the empty set is closed by fiat, so it is dropped as a generator
        object.__setattr__(self, "generators",
                           tuple(sorted({g & full for g in generators} - {0})))

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
        return frozenset([0, self.full_mask, *self.generators])

    def is_closed(self, mask: int) -> bool:
        """A generator, the empty set and the whole space are closed by definition."""
        return mask in self._closed_by_definition or self.closed_closure(mask) == mask


class SupportDatum(Value):
    """Closed support sets per indecomposable over a finite space.

    Supports extend to arbitrary objects by union over components. That
    extension makes the zero object's support empty and direct sums
    additive by construction, and shift invariance holds because
    indecomposables already stand for shift orbits; only the triangle
    axiom and closedness carry actual content to check. The constructor
    masks each support to the points, as ``FinSpace`` masks its generators.
    """

    space: FinSpace
    sigma: tuple[int, ...]
    origin_map: tuple[int, ...] | None

    def __init__(self, space: FinSpace, sigma: Iterable[int], *,
                 origin_map: tuple[int, ...] | None = None) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "sigma", tuple(map(and_, sigma, repeat(space.full_mask))))
        object.__setattr__(self, "origin_map", origin_map)

    @cached_property
    def images(self) -> tuple[int, ...]:
        """Per point, the mask of the indecomposables whose support avoids it."""
        return omitted(self.sigma, len(self.space.points))


class SupportSpace(SupportDatum):
    """Closed subsets as points, each indecomposable supported on the points
    that omit it.

    Over every thick subset this is the universal support space, itself a
    support datum: the terminal one, into which every datum maps uniquely
    and whose own map is the identity. Over the prime ideals it is the
    prime spectrum.
    """

    lattice: ThickLattice

    def __init__(self, space: FinSpace, sigma: tuple[int, ...], lattice: ThickLattice) -> None:
        super().__init__(space, sigma)
        object.__setattr__(self, "lattice", lattice)


def build_sp(lattice: ThickLattice) -> SupportSpace:
    """One point per element of ``lattice``, supports by omission."""
    pres = lattice.presentation
    sigma = omitted(lattice.elements, pres.size)
    return SupportSpace(FinSpace(pres.labels(lattice.elements), sigma), sigma, lattice)


STRUCTURAL_AXIOMS: tuple[tuple[str, str], ...] = (
    ("zero", "the zero object has empty support: empty union over no components"),
    ("sums", "supports extend over direct sums by union"),
    ("shift", "indecomposables stand for whole shift orbits"),
)

ROTATIONS = ("a vs b,c", "b vs c,a", "c vs a,b")
# map prints one "<point> -> <label>" line per point, read by its first arrow
POINT_ARROW = " -> "


class TriangleViolation(Value):
    triangle: int
    rotation: int
    excess: int  # points of the head support outside the union of the others

    def __init__(self, triangle: int, rotation: int, excess: int) -> None:
        object.__setattr__(self, "triangle", triangle)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "excess", excess)


class DatumReport(Value):
    triangle_violations: tuple[TriangleViolation, ...]
    unclosed: tuple[int, ...]

    def __init__(self, triangle_violations: tuple[TriangleViolation, ...],
                 unclosed: tuple[int, ...]) -> None:
        object.__setattr__(self, "triangle_violations", triangle_violations)
        object.__setattr__(self, "unclosed", unclosed)

    @property
    def valid(self) -> bool:
        return not self.triangle_violations and not self.unclosed


def check_support_datum(datum: SupportDatum, pres: Presentation) -> DatumReport:
    """Verify the support axioms; violations are report content, not errors.

    The triangle containment is checked in all three rotations of every
    stored triangle, and every per-indecomposable support must be closed.
    A rotation fails exactly where a point lies in its head's support and
    in neither other, i.e. in exactly one of the three supports, so the
    rotations are computed only for a triangle that has such a point.
    """
    _require_one_support_each(datum, pres)
    sigma = datum.sigma
    sums, slots = pres.vertex_slots
    supports = sigma + tuple([reduce(or_, pick(sigma, m), 0) for m in sums])
    tri_violations = []
    for t_idx, (a, b, c) in enumerate(slots):
        sa, sb, sc = supports[a], supports[b], supports[c]
        if (sa ^ sb ^ sc) & ~(sa & sb & sc):
            for rot, (head, rest) in enumerate(
                    ((sa, sb | sc), (sb, sc | sa), (sc, sa | sb))):
                excess = head & ~rest
                if excess:
                    tri_violations.append(TriangleViolation(t_idx, rot, excess))
    unclosed = tuple(compress(range(pres.size), map(not_, map(datum.space.is_closed, sigma))))
    return DatumReport(tuple(tri_violations), unclosed)


def _require_one_support_each(datum: SupportDatum, pres: Presentation) -> None:
    if len(datum.sigma) != pres.size:
        raise InvalidParameter(
            f"datum has {len(datum.sigma)} supports for {pres.size} indecomposables; "
            "it must assign one to each")


class SupportMorphism(Value):
    """Point map into a support space, as positions of lattice elements."""

    mapping: tuple[int, ...]

    def __init__(self, mapping: tuple[int, ...]) -> None:
        object.__setattr__(self, "mapping", mapping)


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
    images = datum.images
    mapping = tuple(map(sp.lattice.position.get, images))
    if None in mapping:
        x = mapping.index(None)
        raise NotThick(
            f"point {datum.space.points[x]!r} maps to {pres.label(images[x])}, "
            "which is not closed under the triangle rule")
    return SupportMorphism(mapping)


class MorphismReport(Value):
    ok: bool
    pullback_failure: str | None
    continuity_failure: str | None

    def __init__(self, ok: bool, pullback_failure: str | None = None,
                 continuity_failure: str | None = None) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "pullback_failure", pullback_failure)
        object.__setattr__(self, "continuity_failure", continuity_failure)


def check_morphism(datum: SupportDatum, sp: SupportSpace,
                   morphism: SupportMorphism) -> MorphismReport:
    """Pullback identity and continuity; diagnostics stop at the first failure.

    Continuity is decided on the generating closed sets of the target:
    preimages commute with union and intersection and the source family is
    closed under both, so the generators decide the whole family.
    """
    _require_one_support_each(datum, sp.lattice.presentation)
    mapping = morphism.mapping
    if len(mapping) != len(datum.space.points):
        raise InvalidParameter("morphism must map every point of the datum's space")
    elems = sp.lattice.elements
    if mapping and not (min(mapping) >= 0 and max(mapping) < len(elems)):
        t = next(t for t in mapping if not 0 <= t < len(elems))
        raise InvalidParameter(f"morphism target position {t} is out of range")
    names = sp.lattice.presentation.names
    # x lies in the pullback of sp.sigma[a] when x's target lacks a, and in
    # datum.sigma[a] when x's image lacks a, so bit a of the OR of the
    # targets XOR the images is set exactly when the two differ
    differ = reduce(or_, map(xor, map(elems.__getitem__, mapping), datum.images), 0)
    is_closed = datum.space.is_closed
    for a, name in enumerate(names):
        if differ >> a & 1:
            return MorphismReport(False, pullback_failure=name)
        # the pullback is datum.sigma[a] itself
        if not is_closed(datum.sigma[a]):
            return MorphismReport(False, continuity_failure=f"preimage of sup({name})")
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
    rows = tuple(map(elems.__getitem__, origin))
    sigma = omitted(rows, sp.lattice.presentation.size)
    points = tuple(f"x{i}" for i in range(num_points))
    datum = SupportDatum(FinSpace(points, sigma), sigma, origin_map=origin)
    # x lacks a in its row exactly when sigma[a] holds x, so the rows are
    # the datum's images, and the draw's transpose is the datum's only one
    vars(datum)["images"] = rows
    return datum


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
    return SupportDatum(FinSpace(points, gens), sigma)


def datum_to_document(datum: SupportDatum, pres: Presentation) -> dict:
    return {"points": list(datum.space.points),
            "closed": list(map(list, picks(datum.space.points, datum.space.generators))),
            "sigma": dict(zip(pres.names, map(list, picks(datum.space.points, datum.sigma))))}


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
