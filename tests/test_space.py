import random

import pytest

from conftest import (
    closed_sets,
    closure_by_avoiding_union,
    preimage,
    random_presentation,
    random_tensor_presentation,
)
from thicklat.bitsets import mask_of
from thicklat.closure import ThickLattice, enumerate_thick
from thicklat.errors import InvalidParameter, NotThick, ValidationError
from thicklat.presentation import Presentation, builtin, make_expr
from thicklat.space import (
    STRUCTURAL_AXIOMS,
    FinSpace,
    MorphismReport,
    SupportDatum,
    SupportMorphism,
    build_sp,
    check_morphism,
    check_support_datum,
    datum_from_document,
    datum_to_document,
    morphism_from_document,
    morphism_to_document,
    random_support_datum,
    universal_morphism,
)

A2 = builtin("a2")
A2_SP = build_sp(enumerate_thick(A2))


def positions_of(sp, *labels):
    index = {p: i for i, p in enumerate(sp.space.points)}
    return mask_of(index[l] for l in labels)


# --------------------------------------------------------------------------
# FinSpace


def random_finspace(seed, max_points=12, max_generators=5):
    rng = random.Random(seed)
    n = rng.randint(0, max_points)
    gens = [rng.randrange(1 << n) for _ in range(rng.randint(0, max_generators))]
    return FinSpace.generate([f"p{i}" for i in range(n)], gens)


@pytest.mark.parametrize("seed", range(40))
def test_finspace_family_invariants(seed):
    space = random_finspace(seed)
    family = closed_sets(space)
    assert 0 in family
    assert space.full_mask in family
    for u in family:
        for v in family:
            assert (u | v) in family
            assert (u & v) in family
    for g in space.generators:
        assert g in family


@pytest.mark.parametrize("seed", range(40))
def test_finspace_is_closed_matches_materialized_family(seed):
    space = random_finspace(seed, max_points=8)
    family = closed_sets(space)
    for mask in range(1 << len(space.points)):
        assert space.is_closed(mask) == (mask in family)


@pytest.mark.parametrize("seed", range(40))
def test_finspace_is_closed_matches_materialized_family_on_direct_spaces(seed):
    # built without generate: zeros, duplicates and bits past the points are
    # kept, so a generator that holds such bits is no closed set of the space
    rng = random.Random(seed)
    n = rng.randint(0, 8)
    gens = [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]
    gens += [g | rng.randrange(1, 8) << n for g in rng.sample(gens, len(gens) // 2)]
    space = FinSpace(tuple(f"p{i}" for i in range(n)), tuple(gens + [0]))
    family = closed_sets(space)
    for mask in range(1 << n):
        assert space.is_closed(mask) == (mask in family)
    for g in space.generators:
        assert space.is_closed(g) == (g <= space.full_mask)


def test_finspace_direct_generator_past_the_points_is_not_closed():
    space = FinSpace(("a", "b"), (0b101,))
    assert space.is_closed(0b101) is False
    # its part within the points is closed: the intersection with the whole space
    assert space.is_closed(0b001) is True
    assert space.is_closed(0b010) is False


@pytest.mark.parametrize("space", [
    FinSpace((), ()),
    FinSpace(("a", "b", "c"), ()),
    FinSpace.generate(["a", "b", "c"], []),
    FinSpace(("a", "b", "c"), (0b1010,)),
    FinSpace.generate(["a", "b", "c"], [0b001, 0b110]),
], ids=["no-points", "direct-empty", "generated-empty", "direct-stray", "generated"])
def test_finspace_empty_set_and_whole_space_are_closed(space):
    assert space.is_closed(0) is True
    assert space.is_closed(space.full_mask) is True


@pytest.mark.parametrize("seed", range(20))
def test_finspace_closure_is_smallest_closed_superset(seed):
    space = random_finspace(seed, max_points=8)
    family = closed_sets(space)
    for mask in range(1 << len(space.points)):
        closed = space.closed_closure(mask)
        assert mask & ~closed == 0
        assert space.is_closed(closed)
        # the family is intersection-closed, so this is the smallest member
        expected = space.full_mask
        for c in family:
            if mask & ~c == 0:
                expected &= c
        assert closed == expected


@pytest.mark.parametrize("seed", range(30))
def test_finspace_closure_matches_avoiding_unions_on_wide_spaces(seed):
    # up to 200 points, too many for closed_sets; some points lie in no
    # generator, and the raw generators hold zeros and duplicates
    rng = random.Random(seed)
    n = rng.randint(0, 200)
    covered = rng.getrandbits(n) | rng.getrandbits(n)
    gens = [rng.getrandbits(n) & rng.getrandbits(n) & covered
            for _ in range(rng.randint(0, 12))]
    gens += [0, *rng.sample(gens, min(len(gens), 3))]
    points = [f"p{i}" for i in range(n)]
    full = (1 << n) - 1
    singles = [1 << x for x in rng.sample(range(n), min(n, 5))]
    for space in (FinSpace(tuple(points), tuple(gens)), FinSpace.generate(points, gens)):
        for mask in (0, full, full & ~covered, *singles, *space.generators,
                     *(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(8))):
            closed = closure_by_avoiding_union(space, mask)
            assert space.closed_closure(mask) == closed
            assert space.is_closed(mask) == (closed == mask)
            assert space.is_closed(closed)


def test_finspace_no_generators():
    space = FinSpace.generate(["a", "b"], [])
    assert space.is_closed(0)
    assert space.is_closed(0b11)
    assert not space.is_closed(0b01)
    assert closed_sets(space) == frozenset({0, 0b11})


# --------------------------------------------------------------------------
# build_sp


def test_build_sp_a2():
    assert len(A2_SP.space.points) == 5
    assert A2_SP.sigma[0] == positions_of(A2_SP, "{}", "{P2}", "{S2}")
    assert A2_SP.sigma[0].bit_count() == 3
    assert A2_SP.sigma_of(()) == 0  # the zero object is supported nowhere


def test_build_sp_point():
    sp = build_sp(enumerate_thick(builtin("point")))
    assert sp.space.points == ("{}", "{k}")
    assert sp.sigma[0] == positions_of(sp, "{}")


def test_sp_is_a_valid_datum():
    for pres in (A2, builtin("an", 3), builtin("product", 2), builtin("point")):
        sp = build_sp(enumerate_thick(pres))
        assert isinstance(sp, SupportDatum) and sp.origin_map is None
        assert check_support_datum(sp, pres).valid


def test_sup_union_compatible_over_objects():
    rng = random.Random(3)
    for pres in (A2, builtin("an", 3), builtin("product", 3)):
        sp = build_sp(enumerate_thick(pres))
        sup_of = sp.sigma_of
        for _ in range(50):
            x = make_expr(rng.choices(range(pres.size), k=rng.randint(0, 3)))
            y = make_expr(rng.choices(range(pres.size), k=rng.randint(0, 3)))
            assert sup_of(make_expr(x + y)) == sup_of(x) | sup_of(y)
            # and sup really is the omission set, object-wise
            direct = 0
            for pos, elem in enumerate(sp.lattice.elements):
                if mask_of(x) & ~elem:
                    direct |= 1 << pos
            assert direct == sup_of(x)


# --------------------------------------------------------------------------
# check_support_datum


def test_empty_sigma_is_valid_anywhere():
    space = FinSpace.generate(["u", "v"], [])
    datum = SupportDatum(space, (0, 0, 0))
    assert check_support_datum(datum, A2).valid


def test_triangle_axiom_violation_single_point():
    space = FinSpace.generate(["pt"], [0b1])
    datum = SupportDatum(space, (0b1, 0, 0))  # P1 supported, P2 and S2 not
    report = check_support_datum(datum, A2)
    assert not report.valid
    assert report.unclosed == ()
    v = report.triangle_violations[0]
    assert (v.triangle, v.rotation) == (0, 0)
    assert v.excess == 0b1


def test_closedness_violation():
    pres = Presentation(("a", "b"), ())
    space = FinSpace.generate(["u", "v"], [])  # only {} and {u,v} closed
    datum = SupportDatum(space, (0b01, 0))
    report = check_support_datum(datum, pres)
    assert not report.valid
    assert report.triangle_violations == ()
    assert report.unclosed == (0,)


def test_check_requires_total_sigma():
    space = FinSpace.generate(["pt"], [])
    with pytest.raises(InvalidParameter):
        check_support_datum(SupportDatum(space, (0,)), A2)


def test_structural_axioms_reported():
    assert [axiom for axiom, _ in STRUCTURAL_AXIOMS] == ["zero", "sums", "shift"]


@pytest.mark.parametrize("seed", range(60))
def test_build_sp_satisfies_the_axioms_over_any_family(seed):
    # supports by omission satisfy the base axioms over any family of thick
    # subsets, so `spectrum` reports them from a constant
    pres = random_presentation(seed)
    elements = enumerate_thick(pres).elements
    rng = random.Random(seed)
    for _ in range(10):
        family = tuple(e for e in elements if rng.random() < 0.5)
        sp = build_sp(ThickLattice(pres, family))
        assert check_support_datum(sp, pres).valid


# --------------------------------------------------------------------------
# universal_morphism / check_morphism


def test_universal_morphism_identity_on_sp():
    for pres in (A2, builtin("an", 3), builtin("product", 2), builtin("point")):
        sp = build_sp(enumerate_thick(pres))
        f = universal_morphism(sp, sp)
        assert f.mapping == tuple(range(len(sp.lattice.elements)))
        assert check_morphism(sp, sp, f).ok


def test_universal_morphism_constant_empty_sigma():
    space = FinSpace.generate(["pt"], [])
    datum = SupportDatum(space, (0, 0, 0))
    f = universal_morphism(datum, A2_SP)
    assert f.mapping == (4,)  # the top subcategory


def test_universal_morphism_not_thick():
    # sigma picks out exactly {P1, P2}, which is not closed
    space = FinSpace.generate(["pt"], [0b1])
    datum = SupportDatum(space, (0, 0, 0b1))
    with pytest.raises(NotThick):
        universal_morphism(datum, A2_SP)


def test_check_morphism_counterexample_named():
    # sigma constant empty, but the morphism lands on {P2}: the first
    # pullback failure in index order is at P1
    space = FinSpace.generate(["pt"], [])
    datum = SupportDatum(space, (0, 0, 0))
    g = SupportMorphism((2,))  # position of {P2}
    report = check_morphism(datum, A2_SP, g)
    assert not report.ok
    assert report.pullback_failure == "P1"
    assert preimage(g, A2_SP.sigma[0]) == 0b1 != datum.sigma[0]


def test_check_morphism_continuity_failure():
    # pullback holds but the datum's family is too coarse for the preimage
    pres = Presentation(("a",), ())
    sp = build_sp(enumerate_thick(pres))
    space = FinSpace.generate(["u", "v"], [])  # {u} is not closed here
    datum = SupportDatum(space, (0b01,))
    g = SupportMorphism((0, 1))  # u -> {}, v -> {a}; preimage of sup(a) is {u}
    report = check_morphism(datum, sp, g)
    assert not report.ok
    assert report.continuity_failure == "preimage of sup(a)"


@pytest.mark.parametrize("n", [3, 4])
def test_check_morphism_never_fails_continuity_on_valid_data(n):
    # a valid datum's supports are closed, so once a pullback equals one it
    # is closed too: on valid data only the pullback check can say no
    pres = builtin("an", n)
    sp = build_sp(enumerate_thick(pres))
    rng = random.Random(n)
    verdicts = set()
    for seed in range(100):
        pulled = random_support_datum(sp, rng.randint(0, 8), seed)
        width = len(pulled.space.points)
        # extra closed sets make the family finer, so the supports stay closed
        extra = [rng.getrandbits(width) for _ in range(rng.randint(0, 3))]
        space = FinSpace.generate(pulled.space.points, pulled.space.generators + tuple(extra))
        datum = SupportDatum(space, pulled.sigma)
        assert check_support_datum(datum, pres).valid
        # `map` without --morphism prints this verdict as a constant
        assert check_morphism(datum, sp, universal_morphism(datum, sp)) == MorphismReport(True)
        mapping = list(pulled.origin_map)
        for x in rng.sample(range(width), rng.randint(0, width)):
            mapping[x] = rng.randrange(len(sp.lattice))
        doc = morphism_to_document(SupportMorphism(tuple(mapping)), datum, sp)
        report = check_morphism(datum, sp, morphism_from_document(doc, datum, sp))
        assert report.continuity_failure is None
        verdicts.add(report.ok)
    assert verdicts == {True, False}


def test_check_morphism_validates_shape():
    with pytest.raises(InvalidParameter):
        check_morphism(A2_SP, A2_SP, SupportMorphism((0,)))
    with pytest.raises(InvalidParameter):
        check_morphism(A2_SP, A2_SP, SupportMorphism((9,) * 5))


@pytest.mark.parametrize("count", [3, 8])
def test_morphisms_refuse_a_datum_of_another_presentation(count):
    # an:3 has 6 indecomposables; a short datum used to raise IndexError in
    # check_morphism, and a long one passed it or met NotThick in
    # universal_morphism
    sp = build_sp(enumerate_thick(builtin("an", 3)))
    datum = SupportDatum(FinSpace.generate(["x0"], []), (0,) * count)
    with pytest.raises(InvalidParameter, match=f"datum has {count} supports for 6"):
        check_support_datum(datum, sp.lattice.presentation)
    with pytest.raises(InvalidParameter, match=f"datum has {count} supports for 6"):
        universal_morphism(datum, sp)
    with pytest.raises(InvalidParameter, match=f"datum has {count} supports for 6"):
        check_morphism(datum, sp, SupportMorphism((0,)))


# --------------------------------------------------------------------------
# random_support_datum and the finality round trip


def test_random_datum_deterministic():
    sp = A2_SP
    d1 = random_support_datum(sp, 6, seed=123)
    d2 = random_support_datum(sp, 6, seed=123)
    assert d1 == d2
    assert datum_to_document(d1, A2) == datum_to_document(d2, A2)


def test_random_datum_zero_points():
    datum = random_support_datum(A2_SP, 0, seed=0)
    assert datum.space.points == ()
    assert datum.sigma == (0, 0, 0)
    assert check_support_datum(datum, A2).valid
    f = universal_morphism(datum, A2_SP)
    assert f.mapping == ()
    assert check_morphism(datum, A2_SP, f).ok


def test_random_datum_rejects_negative():
    with pytest.raises(InvalidParameter):
        random_support_datum(A2_SP, -1, seed=0)


@pytest.mark.parametrize("seed", [-1, -(1 << 64), 1 << 64])
def test_random_datum_rejects_a_seed_outside_u64(seed):
    # random.Random seeds with the absolute value, so -1 would draw seed 1
    with pytest.raises(InvalidParameter):
        random_support_datum(A2_SP, 4, seed)
    assert random_support_datum(A2_SP, 4, (1 << 64) - 1).space.points


def test_random_datum_over_point_is_zero_fiber():
    sp = build_sp(enumerate_thick(builtin("point")))
    zero_position = sp.lattice.position[0]
    for seed in (0, 1, 7):
        datum = random_support_datum(sp, 4, seed=seed)
        expected = mask_of(x for x, t in enumerate(datum.origin_map)
                           if t == zero_position)
        assert datum.sigma[0] == expected


@pytest.mark.parametrize("family,n", [("a2", None), ("an", 3), ("product", 2)])
def test_finality_round_trip(family, n):
    pres = builtin(family, n)
    sp = build_sp(enumerate_thick(pres))
    for num_points in range(0, 6):
        for seed in range(40):
            datum = random_support_datum(sp, num_points, seed)
            assert check_support_datum(datum, pres).valid
            f = universal_morphism(datum, sp)
            assert f.mapping == datum.origin_map
            for a in range(pres.size):
                assert preimage(f, sp.sigma[a]) == datum.sigma[a]
            assert check_morphism(datum, sp, f).ok


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_round_trip_never_builds_point_closures(n):
    # every support of a drawn datum is a generator of its space or empty, so
    # checking it, mapping it and checking the map answer closedness without
    # the point closures; a deterministic work gate, no clock involved
    pres = builtin("an", n)
    sp = build_sp(enumerate_thick(pres))
    empty = 0
    for num_points in (0, 1, 2, 5, 64):
        for seed in range(8):
            datum = random_support_datum(sp, num_points, seed)
            assert check_support_datum(datum, pres).valid
            f = universal_morphism(datum, sp)
            assert check_morphism(datum, sp, f).ok
            assert "_point_closures" not in vars(datum.space)
            empty += datum.sigma.count(0)
    assert empty > 0


def test_explicit_closed_sets_still_report_unclosed_supports():
    # no support is a generator here, so each takes the point-closure test:
    # u+v is a union of generators, w lies in none, u+w closes to everything
    doc = {"points": ["u", "v", "w"], "closed": [["u"], ["v"]],
           "sigma": {"P1": ["u", "v"], "P2": ["w"], "S2": ["u", "w"]}}
    datum = datum_from_document(doc, A2)
    report = check_support_datum(datum, A2)
    assert report.unclosed == (1, 2)
    assert "_point_closures" in vars(datum.space)


@pytest.mark.parametrize("family,n", [("a2", None), ("product", 2)])
def test_uniqueness_mutations_fail(family, n):
    pres = builtin(family, n)
    sp = build_sp(enumerate_thick(pres))
    count = len(sp.lattice.elements)
    for num_points in range(1, 5):
        for seed in range(15):
            datum = random_support_datum(sp, num_points, seed)
            f = universal_morphism(datum, sp)
            for x in range(num_points):
                for alt in range(count):
                    if alt == f.mapping[x]:
                        continue
                    mutated = list(f.mapping)
                    mutated[x] = alt
                    assert not check_morphism(datum, sp, SupportMorphism(tuple(mutated))).ok


# --------------------------------------------------------------------------
# the pullback identity, which universal_morphism meets by construction


def assert_pullback_identity(datum, sp):
    f = universal_morphism(datum, sp)
    for a, sigma_a in enumerate(datum.sigma):
        assert preimage(f, sp.sigma[a]) == sigma_a


@pytest.mark.parametrize("family,n", [
    ("a2", None), ("point", None), ("an", 3), ("an", 4), ("product", 3),
])
def test_pullback_identity_on_random_data(family, n):
    sp = build_sp(enumerate_thick(builtin(family, n)))
    for seed in range(60):
        assert_pullback_identity(random_support_datum(sp, seed % 7, seed), sp)


@pytest.mark.parametrize("family,n", [("a2", None), ("an", 3), ("product", 2)])
def test_pullback_identity_on_parsed_documents(family, n):
    # arbitrary supports and closed sets: whenever the universal morphism
    # exists it pulls sup back to sigma, even for a datum that check rejects
    pres = builtin(family, n)
    sp = build_sp(enumerate_thick(pres))
    rng = random.Random(11)
    mapped = rejected = 0
    for _ in range(300):
        points = [f"p{i}" for i in range(rng.randint(0, 4))]

        def some_points():
            return rng.sample(points, rng.randint(0, len(points)))

        doc = {"points": points, "sigma": {name: some_points() for name in pres.names}}
        if rng.random() < 0.5:
            doc["closed"] = [some_points() for _ in range(rng.randint(0, 3))]
        datum = datum_from_document(doc, pres)
        try:
            assert_pullback_identity(datum, sp)
        except NotThick:
            continue
        mapped += 1
        rejected += not check_support_datum(datum, pres).valid
    assert mapped >= 50 and rejected > 0


@pytest.mark.parametrize("draw", [random_presentation, random_tensor_presentation],
                         ids=["plain", "tensor"])
def test_accepted_data_map_to_thick_subsets(draw):
    # `map` labels each point's image without looking it up among the thick
    # subsets. That is safe: a point that avoids the supports of two
    # vertices of a triangle avoids the third's by the triangle axiom, so
    # every datum that check accepts sends each point to a thick subset
    rng = random.Random(16)
    accepted = rejected = 0
    for seed in range(40):
        pres = draw(seed)
        sp = build_sp(enumerate_thick(pres))
        for _ in range(30):
            points = [f"p{i}" for i in range(rng.randint(1, 3))]
            density = rng.random()
            doc = {"points": points,
                   "sigma": {name: [p for p in points if rng.random() < density]
                             for name in pres.names}}
            if rng.random() < 0.5:
                doc["closed"] = [rng.sample(points, rng.randint(0, len(points)))
                                 for _ in range(rng.randint(0, 3))]
            datum = datum_from_document(doc, pres)
            if not check_support_datum(datum, pres).valid:
                rejected += 1
                continue
            universal_morphism(datum, sp)  # raises NotThick off the thick subsets
            # a datum with every support empty maps each point to the top
            accepted += any(datum.sigma)
    assert accepted >= 150 and rejected >= 150


# --------------------------------------------------------------------------
# documents


def test_datum_document_round_trip():
    datum = random_support_datum(A2_SP, 5, seed=9)
    doc = datum_to_document(datum, A2)
    back = datum_from_document(doc, A2)
    assert back.space == datum.space
    assert back.sigma == datum.sigma


def test_datum_document_closed_defaults_to_sigma():
    doc = {"points": ["u", "v"], "sigma": {"P1": ["u"], "P2": [], "S2": []}}
    datum = datum_from_document(doc, A2)
    assert datum.space.generators == (0b01,)
    assert datum.space.is_closed(0b01)


def test_datum_document_explicit_closed():
    doc = {"points": ["u", "v"], "closed": [["v"]],
           "sigma": {"P1": ["u"], "P2": [], "S2": []}}
    datum = datum_from_document(doc, A2)
    assert not datum.space.is_closed(0b01)
    report = check_support_datum(datum, A2)
    assert report.unclosed == (0,)


@pytest.mark.parametrize("doc,err", [
    ([], "schema"),
    ({"points": ["u"]}, "schema"),
    ({"points": ["u", "u"], "sigma": {}}, "validation"),
    ({"points": ["u"], "sigma": {"P1": ["u"], "P2": [], "S2": [], "zz": []}}, "validation"),
    ({"points": ["u"], "sigma": {"P1": ["u"], "P2": []}}, "validation"),
    ({"points": ["u"], "sigma": {"P1": ["w"], "P2": [], "S2": []}}, "validation"),
    ({"points": ["\ud800"], "sigma": {"P1": [], "P2": [], "S2": []}}, "validation"),
])
def test_datum_document_errors(doc, err):
    from thicklat.errors import SchemaError
    expected = SchemaError if err == "schema" else ValidationError
    with pytest.raises(expected):
        datum_from_document(doc, A2)


def test_morphism_document_round_trip():
    datum = random_support_datum(A2_SP, 3, seed=2)
    f = universal_morphism(datum, A2_SP)
    doc = morphism_to_document(f, datum, A2_SP)
    assert morphism_from_document(doc, datum, A2_SP) == f


def test_morphism_document_errors():
    datum = random_support_datum(A2_SP, 2, seed=0)
    with pytest.raises(ValidationError):
        morphism_from_document({"map": {"x0": "{}"}}, datum, A2_SP)
    with pytest.raises(ValidationError):
        morphism_from_document(
            {"map": {"x0": "{}", "x1": "nope"}}, datum, A2_SP)
    from thicklat.errors import SchemaError
    with pytest.raises(SchemaError):
        morphism_from_document({"not-map": {}}, datum, A2_SP)
