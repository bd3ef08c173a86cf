import json
import random
from functools import reduce

import pytest

from conftest import (
    covers_by_closures,
    covers_by_definition,
    disjoint_union,
    random_presentation,
    random_tensor_presentation,
    report_by_sweep,
)
from thicklat import lattice
from thicklat.bitsets import mask_of, pick
from thicklat.closure import ThickLattice, enumerate_thick, thick_closure
from thicklat.errors import InvalidParameter, NotAnElement, TooLarge
from thicklat.lattice import analyze, covering_pairs, export_dot
from thicklat.presentation import Presentation, Triangle, builtin, parse_presentation
from thicklat.tensor import enumerate_ideals, primes

A2 = builtin("a2")
A2_LAT = enumerate_thick(A2)


def join_oracle(lat, j, k):
    """Smallest element containing the union: intersection of all closed supersets."""
    u = j | k
    supersets = [e for e in lat.elements if u & ~e == 0]
    return reduce(lambda a, b: a & b, supersets)


def join(lat, j, k):
    """The join of two thick subsets: the thick closure of their union,
    whose part j is thick already."""
    return thick_closure(lat.presentation, j | k, j)


def test_meet_examples():
    # the meet of two thick subsets is their intersection
    p1, p2 = mask_of([0]), mask_of([1])
    for j, k, meet in ((p1, p2, 0), (A2.full_mask, p2, p2)):
        assert j & k == meet and meet in A2_LAT.position


def test_join_examples():
    p1, p2, s2 = mask_of([0]), mask_of([1]), mask_of([2])
    assert join(A2_LAT, p1, p2) == A2.full_mask
    assert join(A2_LAT, p1, s2) == A2.full_mask
    for j in A2_LAT.elements:
        assert join(A2_LAT, 0, j) == j


def test_meet_of_elements_is_an_element():
    cases = [builtin("point"), A2, builtin("an", 3), builtin("an", 4), builtin("product", 4)]
    cases += [random_presentation(seed, max_indecs=7) for seed in range(50)]
    for pres in cases:
        lat = enumerate_thick(pres)
        for j in lat.elements:
            for k in lat.elements:
                assert j & k in lat.position


def test_join_matches_superset_oracle():
    for pres in (A2, builtin("an", 3), builtin("product", 3), builtin("point")):
        lat = enumerate_thick(pres)
        for j in lat.elements:
            for k in lat.elements:
                assert join(lat, j, k) == join_oracle(lat, j, k)


def test_lattice_laws_exhaustive_small():
    for pres in (builtin("point"), A2, builtin("product", 2), builtin("product", 3),
                 builtin("an", 3), builtin("an", 4)):
        lat = enumerate_thick(pres)
        assert len(lat) <= 100
        elems = lat.elements
        for x in elems:
            for y in elems:
                assert x & y in lat.position and join(lat, x, y) in lat.position
                assert join(lat, x, y) == join(lat, y, x)
                assert join(lat, x, x & y) == x
                assert x & join(lat, x, y) == x
        for x in elems:
            for y in elems:
                for z in elems:
                    assert join(lat, join(lat, x, y), z) == join(lat, x, join(lat, y, z))


def test_lattice_laws_sampled_large():
    lat = enumerate_thick(builtin("an", 5))
    assert len(lat) > 100
    rng = random.Random(11)
    for _ in range(300):
        x, y, z = (rng.choice(lat.elements) for _ in range(3))
        assert x & y in lat.position and join(lat, x, y) in lat.position
        assert join(lat, x, y) == join(lat, y, x)
        assert join(lat, x, x & y) == x
        assert x & join(lat, x, y) == x
        assert join(lat, join(lat, x, y), z) == join(lat, x, join(lat, y, z))


def test_analyze_a2():
    report = analyze(A2_LAT)
    assert report.size == 5
    assert report.height == 2
    assert report.atoms == (mask_of([0]), mask_of([1]), mask_of([2]))
    assert not report.is_distributive
    assert report.is_modular
    assert report.modular_witness is None
    w = report.distributive_witness
    assert (w.x, w.y, w.z) == (mask_of([0]), mask_of([1]), mask_of([2]))
    # the witness really violates the law
    assert w.lhs == w.x & join(A2_LAT, w.y, w.z)
    assert w.rhs == join(A2_LAT, w.x & w.y, w.x & w.z)
    assert w.lhs != w.rhs


def test_analyze_point_lattice():
    report = analyze(enumerate_thick(builtin("point")))
    assert report.size == 2
    assert report.is_distributive
    assert report.is_modular
    assert report.atoms == (mask_of([0]),)
    assert report.height == 1


def test_analyze_chain_is_distributive():
    # triangle (x, y, x) makes {x} close to everything: {} < {y} < {x,y}
    pres = Presentation(("x", "y"), (Triangle((0,), (1,), (0,)),))
    lat = enumerate_thick(pres)
    assert lat.elements == (0, mask_of([1]), mask_of([0, 1]))
    report = analyze(lat)
    assert report.is_distributive
    assert report.is_modular
    assert report.height == 2


@pytest.mark.parametrize("k", range(1, 7))
def test_product_lattices_are_boolean_and_distributive(k):
    lat = enumerate_thick(builtin("product", k))
    assert len(lat) == 2 ** k
    report = analyze(lat)
    assert report.is_distributive
    assert report.is_modular
    assert report.height == k
    assert len(report.atoms) == k


def test_distributive_implies_modular():
    cases = [builtin("point"), A2, builtin("product", 3), builtin("an", 3)]
    cases += [random_presentation(seed, max_indecs=6, max_triangles=5) for seed in range(20)]
    for pres in cases:
        report = analyze(enumerate_thick(pres))
        if report.is_distributive:
            assert report.is_modular


def test_witnesses_actually_violate():
    for seed in range(30):
        pres = random_presentation(seed, max_indecs=6, max_triangles=5)
        lat = enumerate_thick(pres)
        report = analyze(lat)
        if report.distributive_witness is not None:
            w = report.distributive_witness
            lhs = w.x & join(lat, w.y, w.z)
            rhs = join(lat, w.x & w.y, w.x & w.z)
            assert (lhs, rhs) == (w.lhs, w.rhs) and lhs != rhs
        if report.modular_witness is not None:
            w = report.modular_witness
            assert w.x & ~w.z == 0
            lhs = join(lat, w.x, w.y & w.z)
            rhs = join(lat, w.x, w.y) & w.z
            assert (lhs, rhs) == (w.lhs, w.rhs) and lhs != rhs


def test_analyze_size_guard():
    with pytest.raises(TooLarge):
        analyze(A2_LAT, max_size=3)


def test_covering_pairs_size_guard_comes_before_any_closure(monkeypatch):
    # analyze and covering_pairs share one guard, checked before the covers
    # and before any mask is built
    monkeypatch.setattr(lattice, "thick_closure", None)
    monkeypatch.setattr(lattice, "omitted", None)
    for find in (analyze, covering_pairs):
        with pytest.raises(TooLarge, match="^lattice has 5 elements, guard is 4$"):
            find(A2_LAT, max_size=4)
    monkeypatch.undo()
    assert covering_pairs(A2_LAT, max_size=5) == covering_pairs(A2_LAT)


def dot_of(lat):
    return export_dot(lat, covering_pairs(lat))


def test_export_dot_counts():
    point_dot = dot_of(enumerate_thick(builtin("point")))
    assert point_dot.count("[label=") == 2
    assert point_dot.count(" -> ") == 1

    a2_dot = dot_of(A2_LAT)
    assert a2_dot.count("[label=") == 5
    assert a2_dot.count(" -> ") == 6

    empty_dot = dot_of(enumerate_thick(Presentation((), ())))
    assert empty_dot.count("[label=") == 1
    assert empty_dot.count(" -> ") == 0


def test_export_dot_shape():
    dot = dot_of(A2_LAT)
    assert dot.startswith("digraph thick_lattice {")
    assert dot.endswith("}\n")
    assert '  n0 [label="{}"];' in dot
    assert "  n0 -> n1;" in dot


@pytest.mark.parametrize("edge", [(0, 5), (-1, 4), (4, 0), (1, 1)])
def test_export_dot_refuses_an_edge_that_does_not_go_up_within_the_lattice(edge):
    with pytest.raises(InvalidParameter, match="does not go up within the lattice"):
        export_dot(A2_LAT, [(0, 1), edge])


def test_covering_pairs_a2():
    pairs = covering_pairs(A2_LAT)
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]


def test_covers_match_order_theoretic_definition():
    for seed in range(15):
        pres = random_presentation(seed, max_indecs=6, max_triangles=5)
        lat = enumerate_thick(pres)
        assert sorted(covering_pairs(lat)) == covers_by_definition(lat.elements)


def test_covers_match_closures_on_wide_inputs():
    # past the ~200 elements covers_by_definition reaches: an:6 (877
    # elements), product:8..10 and 100 presentations of 12-16
    # indecomposables; lattices past 4,096 elements are passed over to
    # bound the closure oracle's cost
    lats = [enumerate_thick(builtin("an", 6))]
    lats += [enumerate_thick(builtin("product", k)) for k in (8, 9, 10)]
    seed = 0
    while len(lats) < 104:
        lat = enumerate_thick(random_presentation(seed, 16, 30, min_indecs=12))
        seed += 1
        if len(lat) <= 4_096:
            lats.append(lat)
    assert seed < 130
    for lat in lats:
        assert covering_pairs(lat) == covers_by_closures(lat)


def test_operations_on_ideal_lattices_answer_exactly_or_refuse():
    # an ideal family is closed under intersection and holds every
    # indecomposable, so covers and analyze, which read its inclusion
    # order, answer exactly; the thick closure of two ideals' union may
    # leave the family, and where it does not it is their join there
    not_ideal = 0
    for seed in range(200):
        lat = enumerate_ideals(random_tensor_presentation(seed))
        assert covering_pairs(lat) == covers_by_definition(lat.elements)
        assert analyze(lat) == report_by_sweep(lat)
        for j in lat.elements:
            for k in lat.elements:
                got = join(lat, j, k)
                if got not in lat.position:
                    not_ideal += 1
                    continue
                assert got == join_oracle(lat, j, k)
    assert not_ideal > 0


@pytest.mark.parametrize("elements", [(0, 0b011, 0b101, 0b111), (0b011, 0b101, 0b111), ()],
                         ids=["no-meet", "no-bottom", "empty"])
def test_families_not_closed_under_intersection_are_refused(elements):
    # {0,1} & {0,2} = {0} is not an element: above {} plus 0 there is no
    # least element, and without the empty set no bottom lies below all;
    # an empty family does not hold the full set
    lat = ThickLattice(A2, elements)
    for find in (analyze, covering_pairs):
        with pytest.raises(NotAnElement):
            find(lat)


@pytest.mark.parametrize("k", range(1, 8))
def test_prime_families_are_refused(k):
    # the primes are proper ideals, so no prime holds every indecomposable
    lat = primes(builtin("product", k)).lattice
    for find in (analyze, covering_pairs):
        with pytest.raises(NotAnElement):
            find(lat)


def test_a_family_with_no_prime_is_refused():
    # the only proper ideal is 0, which holds a (x) a but not a: no prime
    pres = parse_presentation(json.dumps({
        "indecomposables": ["a"], "triangles": [],
        "tensor": {"unit": ["a"], "table": {"a|a": []}}}))
    lat = primes(pres).lattice
    assert lat.elements == ()
    for find in (analyze, covering_pairs):
        with pytest.raises(NotAnElement):
            find(lat)


@pytest.mark.parametrize("k", range(2, 8))
def test_meets_of_distinct_primes_are_refused(k):
    # the intersection of two distinct primes of a product is no prime:
    # they omit distinct indecomposables, and every prime omits exactly one
    lat = primes(builtin("product", k)).lattice
    outside = sum(j & k not in lat.position for j in lat.elements for k in lat.elements)
    assert outside == len(lat) * (len(lat) - 1)


SMALL_BUILTINS = [("point", None), ("a2", None), ("an", 3), ("an", 4)]
SMALL_BUILTINS += [("product", k) for k in range(1, 8)]


def join_irreducible_count(lat):
    """Elements that are not the join of the elements strictly below them."""
    pres = lat.presentation
    count = 0
    for e in lat.elements[1:]:
        below = reduce(int.__or__, (d for d in lat.elements if d != e and d & ~e == 0))
        count += thick_closure(pres, below) != e
    return count


def assert_matches_sweep(lat):
    expected = report_by_sweep(lat)
    assert analyze(lat) == expected
    # a modular lattice is distributive iff its height counts its join-irreducibles
    j_verdict = expected.is_modular and join_irreducible_count(lat) == expected.height
    assert j_verdict == expected.is_distributive


@pytest.mark.parametrize("family,n", SMALL_BUILTINS)
def test_analyze_matches_sweep_on_builtins(family, n):
    lat = enumerate_thick(builtin(family, n))
    assert len(lat) <= 128
    assert_matches_sweep(lat)


def test_analyze_matches_sweep_on_random():
    for seed in range(500):
        assert_matches_sweep(enumerate_thick(random_presentation(seed, max_indecs=6)))


@pytest.mark.parametrize("family,n", [("product", 7), ("an", 5), ("an", 6)])
def test_analyze_and_covers_make_no_closure_calls(monkeypatch, family, n):
    # a work gate that does not depend on the wall clock: covers and joins
    # are read off the family's inclusion order; the triple sweep made
    # 8,256 calls on product:7 and 20,706 on an:5, and one closure per
    # element and missing indecomposable 448, 2,286 and 14,182 here
    calls = 0
    original = lattice.thick_closure

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    lat = enumerate_thick(builtin(family, n))
    monkeypatch.setattr(lattice, "thick_closure", counted)
    analyze(lat)
    covering_pairs(lat)
    assert calls == 0


def renamed(pres, seed):
    """``pres`` with its indecomposables renumbered by a seeded permutation
    and its triangles shuffled, and the permutation: element i becomes
    ``perm[i]``, under the same name."""
    rng = random.Random(seed)
    perm = rng.sample(range(pres.size), pres.size)
    names = [None] * pres.size
    for i, new in enumerate(perm):
        names[new] = pres.names[i]
    triangles = [Triangle(*(tuple(sorted(perm[i] for i in vertex)) for vertex in (t.a, t.b, t.c)))
                 for t in pres.triangles]
    rng.shuffle(triangles)
    return Presentation(tuple(names), tuple(triangles)), perm


def permuted(mask, perm):
    """Oracle: the mask with bit i moved to bit ``perm[i]``, one bit at a time."""
    out = 0
    for i, new in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << new
    return out


@pytest.mark.parametrize("pres,seed", [(builtin("an", 5), 0)]
                         + [(random_presentation(seed, max_indecs=8), seed) for seed in range(50)],
                         ids=["an5"] + [f"random{seed}" for seed in range(50)])
def test_renaming_and_reordering_maps_the_report(pres, seed):
    # a metamorphic relation: the lattice of the renamed presentation is the
    # image of the original under the permutation, so every invariant of
    # the report holds and each cover, as a pair of masks, maps to a cover
    lat = enumerate_thick(pres)
    image, perm = renamed(pres, seed)
    moved = enumerate_thick(image)
    got, want = analyze(moved), analyze(lat)
    assert (got.size, got.height, len(got.atoms), got.is_distributive, got.is_modular) == (
        want.size, want.height, len(want.atoms), want.is_distributive, want.is_modular)
    assert sorted(got.atoms) == sorted(permuted(a, perm) for a in want.atoms)

    def mask_covers(lattice, report):
        return [(lattice.elements[lo], lattice.elements[hi]) for lo, hi in report.covers]

    assert sorted(mask_covers(moved, got)) == sorted(
        (permuted(lo, perm), permuted(hi, perm)) for lo, hi in mask_covers(lat, want))


def reports_beside(part):
    """Per input, the reports of its lattice and of its disjoint union with
    ``part``: an:4..5, product:3..6 and 200 random presentations of at
    most 6 names."""
    inputs = [builtin("an", n) for n in (4, 5)] + [builtin("product", n) for n in range(3, 7)]
    inputs += [random_presentation(seed, max_indecs=6) for seed in range(200)]
    for seed, pres in enumerate(inputs):
        yield (analyze(enumerate_thick(pres)),
               analyze(enumerate_thick(disjoint_union(pres, part, seed=seed))))


# metamorphic relations: the thick subsets of a disjoint union are the
# unions of one per part, so its lattice is the product of the parts'

def test_a_free_name_doubles_the_lattice():
    # times the two-element chain: one level more, and both laws kept
    for want, got in reports_beside(Presentation(("free",), ())):
        assert (got.size, got.height) == (2 * want.size, want.height + 1)
        assert (got.is_distributive, got.is_modular) == (want.is_distributive, want.is_modular)


def test_a2_beside_multiplies_the_lattice_by_five():
    # times M3, which is modular and not distributive: two levels more, and
    # modularity kept
    for want, got in reports_beside(A2):
        assert (got.size, got.height) == (5 * want.size, want.height + 2)
        assert got.is_modular == want.is_modular and not got.is_distributive


def test_a_disjoint_union_is_the_product_of_its_parts():
    # the relation for any two parts: sizes multiply and heights add, the
    # atoms are each part's atoms beside the other part's least element, and
    # each law holds on the union exactly when it holds on both parts
    pairs = [(builtin("an", 5), A2)] + [(builtin("product", k), A2) for k in range(1, 7)]
    pairs += [(random_presentation(2 * s, max_indecs=5),
               random_presentation(2 * s + 1, max_indecs=5)) for s in range(200)]
    laws = ("is_distributive", "is_modular")
    held = {law: set() for law in laws}
    for seed, parts in enumerate(pairs):
        union = disjoint_union(*parts, seed=seed)
        lattices = [enumerate_thick(part) for part in parts]
        reports = [analyze(lat) for lat in lattices]
        got = analyze(enumerate_thick(union))
        assert got.size == reports[0].size * reports[1].size
        assert got.height == reports[0].height + reports[1].height
        position = {name: i for i, name in enumerate(union.names)}

        def moved(k, mask):
            return mask_of(position[f"{k}.{name}"] for name in pick(parts[k].names, mask))

        least = [moved(k, lat.elements[0]) for k, lat in enumerate(lattices)]
        assert sorted(got.atoms) == sorted(moved(k, atom) | least[1 - k]
                                           for k, report in enumerate(reports)
                                           for atom in report.atoms)
        for law in laws:
            assert getattr(got, law) == all(getattr(report, law) for report in reports)
            held[law].add(sum(getattr(report, law) for report in reports))
    # each law held on both parts, on one, and on neither
    assert held == {law: {0, 1, 2} for law in laws}
