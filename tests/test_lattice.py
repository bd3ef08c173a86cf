import random
from functools import reduce

import pytest

from conftest import (
    covers_by_definition,
    random_presentation,
    random_tensor_presentation,
    report_by_sweep,
)
from thicklat import lattice
from thicklat.bitsets import mask_of
from thicklat.closure import enumerate_thick, thick_closure
from thicklat.errors import InvalidParameter, NotAnElement, TooLarge
from thicklat.lattice import analyze, covering_pairs, export_dot, join, meet
from thicklat.presentation import Presentation, Triangle, builtin
from thicklat.tensor import enumerate_ideals

A2 = builtin("a2")
A2_LAT = enumerate_thick(A2)


def join_oracle(lat, j, k):
    """Smallest element containing the union: intersection of all closed supersets."""
    u = j | k
    supersets = [e for e in lat.elements if u & ~e == 0]
    return reduce(lambda a, b: a & b, supersets)


def test_meet_examples():
    p1, p2, s2 = mask_of([0]), mask_of([1]), mask_of([2])
    top = A2.full_mask
    assert meet(A2_LAT, p1, p2) == 0
    assert meet(A2_LAT, top, p2) == p2
    for j in A2_LAT.elements:
        assert meet(A2_LAT, j, j) == j


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


def test_meet_join_reject_non_elements():
    with pytest.raises(NotAnElement):
        meet(A2_LAT, mask_of([0, 1]), 0)
    with pytest.raises(NotAnElement):
        join(A2_LAT, 0, mask_of([0, 2]))


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
                assert meet(lat, x, y) == meet(lat, y, x)
                assert join(lat, x, y) == join(lat, y, x)
                assert join(lat, x, meet(lat, x, y)) == x
                assert meet(lat, x, join(lat, x, y)) == x
        for x in elems:
            for y in elems:
                for z in elems:
                    assert meet(lat, meet(lat, x, y), z) == meet(lat, x, meet(lat, y, z))
                    assert join(lat, join(lat, x, y), z) == join(lat, x, join(lat, y, z))


def test_lattice_laws_sampled_large():
    lat = enumerate_thick(builtin("an", 5))
    assert len(lat) > 100
    rng = random.Random(11)
    for _ in range(300):
        x, y, z = (rng.choice(lat.elements) for _ in range(3))
        assert meet(lat, x, y) == meet(lat, y, x)
        assert join(lat, x, y) == join(lat, y, x)
        assert join(lat, x, meet(lat, x, y)) == x
        assert meet(lat, x, join(lat, x, y)) == x
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
    assert w.lhs == meet(A2_LAT, w.x, join(A2_LAT, w.y, w.z))
    assert w.rhs == join(A2_LAT, meet(A2_LAT, w.x, w.y), meet(A2_LAT, w.x, w.z))
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
            lhs = meet(lat, w.x, join(lat, w.y, w.z))
            rhs = join(lat, meet(lat, w.x, w.y), meet(lat, w.x, w.z))
            assert (lhs, rhs) == (w.lhs, w.rhs) and lhs != rhs
        if report.modular_witness is not None:
            w = report.modular_witness
            assert w.x & ~w.z == 0
            lhs = join(lat, w.x, meet(lat, w.y, w.z))
            rhs = meet(lat, join(lat, w.x, w.y), w.z)
            assert (lhs, rhs) == (w.lhs, w.rhs) and lhs != rhs


def test_analyze_size_guard():
    with pytest.raises(TooLarge):
        analyze(A2_LAT, max_size=3)


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


def test_operations_on_ideal_lattices_answer_exactly_or_refuse():
    # joins and covers are thick closures, and an ideal family need not be
    # closed under thick_closure: every call either answers exactly or raises
    # NotAnElement, never a KeyError or a set outside the family
    outcomes = set()
    for seed in range(200):
        lat = enumerate_ideals(random_tensor_presentation(seed))
        try:
            pairs = covering_pairs(lat)
        except NotAnElement:
            pairs = None
        else:
            assert sorted(pairs) == covers_by_definition(lat.elements)
        try:
            analyze(lat)
        except NotAnElement:
            assert pairs is None
        else:
            assert pairs is not None
        join_refused = False
        for j in lat.elements:
            for k in lat.elements:
                try:
                    got = join(lat, j, k)
                except NotAnElement:
                    join_refused = True
                    continue
                assert got == join_oracle(lat, j, k)
        # when every cover closure is an element, so is every join: analyze
        # checks only the covers
        assert pairs is None or not join_refused
        if pairs is not None:
            assert analyze(lat) == report_by_sweep(lat)
        outcomes.add((pairs is not None, join_refused))
    assert {(True, False), (False, True)} <= outcomes


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


@pytest.mark.parametrize("family,n,ceiling", [("product", 7, 540), ("an", 5, 2_750)])
def test_analyze_closure_call_ceiling(monkeypatch, family, n, ceiling):
    # a work gate that does not depend on the wall clock; the triple sweep
    # made 8,256 calls on product:7 and 20,706 on an:5
    calls = 0
    original = lattice.thick_closure

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    lat = enumerate_thick(builtin(family, n))
    monkeypatch.setattr(lattice, "thick_closure", counted)
    analyze(lat)
    assert calls <= ceiling
