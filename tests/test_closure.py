import importlib
import json
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_stopped_closure,
    bell_numbers,
    brute_force_thick,
    closed_by_sweep,
    closure_by_sweep,
    disjoint_union,
    fcbo_by_handoff,
    fixpoint_closure,
    key_by_members,
    next_closure,
    object_in,
    random_presentation,
    random_tensor_presentation,
    triangle_rule_closed,
    wide_presentation,
)
from thicklat import closure
from thicklat.bitsets import canonical_key, canonical_sorted, mask_of
from thicklat.closure import _fcbo, enumerate_thick, thick_closure
from thicklat.errors import TooLarge
from thicklat.presentation import (
    Presentation, Triangle, builtin, make_expr, presentation_from_document)
from thicklat.tensor import enumerate_ideals, ideal_closure

A2 = builtin("a2")
GOLDEN = Path(__file__).parent / "golden"


def masks(pres, *name_groups):
    return [mask_of(pres.names.index(n) for n in names) for names in name_groups]


def test_object_in_examples():
    j = mask_of([1])  # {P2}
    assert object_in(j, ())  # the zero object is everywhere
    assert not object_in(j, (0, 1))  # P1 + P2 needs P1
    assert object_in(A2.full_mask, (1, 1))  # P2 + P2


def test_thick_closure_a2_examples():
    assert thick_closure(A2, 0) == 0
    assert thick_closure(A2, 0b011) == 0b111  # {P1,P2} closes to everything
    assert thick_closure(A2, 0b010) == 0b010  # {P2} alone is closed


@pytest.mark.parametrize("seed", range(25))
def test_thick_closure_matches_sweep_oracle(seed):
    pres = random_presentation(seed, max_indecs=7, max_triangles=6)
    rng = random.Random(seed + 1000)
    for _ in range(20):
        s = rng.randrange(1 << pres.size)
        assert thick_closure(pres, s) == closure_by_sweep(pres, s)


def test_closure_properties_on_builtins_and_randoms():
    cases = [A2, builtin("an", 3), builtin("point"), builtin("product", 3)]
    cases += [random_presentation(seed) for seed in range(100)]
    rng = random.Random(7)
    for pres in cases:
        space = 1 << pres.size
        for _ in range(12):
            s = rng.randrange(space)
            t = rng.randrange(space)
            cs = thick_closure(pres, s)
            assert cs | s == cs  # extensive
            assert thick_closure(pres, cs) == cs  # idempotent
            if s & ~t == 0:
                assert cs & ~thick_closure(pres, t) == 0  # monotone


@given(st.integers(0, 200), st.integers(0, 2 ** 8 - 1), st.integers(0, 2 ** 8 - 1))
@settings(max_examples=60, deadline=None)
def test_closure_properties_hypothesis(seed, raw_s, raw_t):
    pres = random_presentation(seed, max_indecs=8, max_triangles=8)
    full = pres.full_mask
    s, t = raw_s & full, raw_t & full
    cs = thick_closure(pres, s)
    assert cs | s == cs
    assert thick_closure(pres, cs) == cs
    cu = thick_closure(pres, s | t)
    assert cs & ~cu == 0


def test_enumerate_a2_exact():
    lat = enumerate_thick(A2)
    assert list(A2.labels(lat.elements)) == ["{}", "{P1}", "{P2}", "{S2}", "{P1,P2,S2}"]


def test_enumerate_point_product_empty():
    assert len(enumerate_thick(builtin("point"))) == 2
    assert len(enumerate_thick(builtin("product", 2))) == 4
    empty = Presentation((), ())
    assert enumerate_thick(empty).elements == (0,)


def test_enumerate_an3():
    assert len(enumerate_thick(builtin("an", 3))) == 15


def test_brute_force_examples():
    assert brute_force_thick(A2).elements == enumerate_thick(A2).elements
    assert len(brute_force_thick(builtin("point"))) == 2
    assert len(brute_force_thick(builtin("product", 2))) == 4


def test_brute_force_guard():
    big = Presentation(tuple(f"g{i}" for i in range(21)), ())
    with pytest.raises(TooLarge):
        brute_force_thick(big)


@pytest.mark.parametrize("seed", range(300))
def test_enumerate_equals_brute_force_random(seed):
    # the sweep reads the triangle rule directly, so a rule the engine fails
    # to fire shows up here even though brute_force_thick would miss it
    pres = random_presentation(seed)
    expected = closed_by_sweep(pres)
    assert enumerate_thick(pres).elements == expected
    assert brute_force_thick(pres).elements == expected


@pytest.mark.parametrize("seed", range(60))
def test_closure_from_closed_base_matches_sweep(seed):
    pres = random_presentation(seed, max_indecs=9, max_triangles=8)
    closed_sets = closed_by_sweep(pres)
    rng = random.Random(seed + 2000)
    for _ in range(10):
        m = rng.randrange(1 << pres.size)
        c = rng.choice([c for c in closed_sets if c & ~m == 0] or [0])
        assert thick_closure(pres, m, c) == closure_by_sweep(pres, m)


@pytest.mark.parametrize("family,n", [
    ("a2", None), ("an", 2), ("an", 3), ("an", 4),
    ("point", None), ("product", 2), ("product", 3),
])
def test_enumerate_equals_brute_force_builtins(family, n):
    pres = builtin(family, n)
    assert enumerate_thick(pres).elements == brute_force_thick(pres).elements


def test_bell_number_scaling():
    expected = bell_numbers(7)
    assert expected == [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(2, 7):
        assert len(enumerate_thick(builtin("an", n))) == expected[n + 1]


def test_intersections_stay_closed():
    for pres in (A2, builtin("an", 3), builtin("an", 4), builtin("an", 5),
                 builtin("product", 3)):
        lat = enumerate_thick(pres)
        if len(lat) > 500:
            continue
        for j in lat.elements:
            for k in lat.elements:
                assert (j & k) in lat.position


def test_canonical_order_and_uniqueness():
    for seed in range(10):
        pres = random_presentation(seed, max_indecs=8)
        lat = enumerate_thick(pres)
        keys = [canonical_key(e) for e in lat.elements]
        assert keys == sorted(keys)
        assert len(set(lat.elements)) == len(lat.elements)


def test_stopped_closure_is_exact():
    # a closure told to stop may return a partial closure, but only one that
    # still meets stop, so the canonicity test reads the same either way
    stopped_early = 0
    for seed in range(200):
        pres = random_presentation(seed, max_indecs=9, max_triangles=8)
        closed_sets = closed_by_sweep(pres)
        rng = random.Random(seed + 4000)
        for _ in range(10):
            m = rng.randrange(1 << pres.size)
            c = rng.choice([c for c in closed_sets if c & ~m == 0] or [0])
            stop = rng.randrange(1 << pres.size) & rng.choice((~m, -1))
            full = thick_closure(pres, m)
            stopped = thick_closure(pres, m, c, stop)
            assert_stopped_closure(m, stopped, full, stop)
            stopped_early += stopped != full
    assert stopped_early  # the early return is exercised, not just allowed


@pytest.mark.parametrize("seed", range(200))
def test_iter_closed_is_unchanged_by_stopping(seed):
    # the tests named after iter_closed test closure._fcbo over every element
    pres = random_presentation(seed)
    stopped = list(_fcbo(pres.full_mask, lambda m, c, s: thick_closure(pres, m, c, s)))
    full = list(_fcbo(pres.full_mask, lambda m, c, s: thick_closure(pres, m, c)))
    assert stopped == full


def test_iter_closed_yields_each_once():
    pres = builtin("an", 4)

    def close(members, closed, stop):
        assert closed & ~members == 0  # the base lies inside the candidate
        assert thick_closure(pres, closed) == closed  # and is closed
        result = thick_closure(pres, members, closed, stop)
        assert_stopped_closure(members, result, thick_closure(pres, members), stop)
        return result

    seen = list(_fcbo(pres.full_mask, close))
    assert len(seen) == len(set(seen)) == 52


def assert_prunes_as_reference(pres, closure_fn):
    # the same sets in the same order from the same close calls: each node's
    # children see all of its failure records and none of their siblings'
    def recording(calls):
        def close(members, closed, stop):
            calls.append(members)
            return closure_fn(pres, members, closed, stop)
        return close

    ours, reference = [], []
    assert (list(_fcbo(pres.full_mask, recording(ours)))
            == list(fcbo_by_handoff(pres.size, recording(reference))))
    assert ours == reference


@pytest.mark.parametrize("seed", range(200))
def test_iter_closed_prunes_as_reference(seed):
    assert_prunes_as_reference(random_presentation(seed), thick_closure)


@pytest.mark.parametrize("seed", range(50))
def test_iter_closed_ideals_prune_as_reference(seed):
    assert_prunes_as_reference(random_tensor_presentation(seed), ideal_closure)


@pytest.mark.parametrize("n", [6, 7])
def test_iter_closed_prunes_as_reference_on_an(n):
    assert_prunes_as_reference(builtin("an", n), thick_closure)


def record_closures(monkeypatch):
    """The members of every ``closure.thick_closure`` call from now on."""
    calls = []
    original = closure.thick_closure

    def recorded(pres, members, *rest):
        calls.append(members)
        return original(pres, members, *rest)

    monkeypatch.setattr(closure, "thick_closure", recorded)
    return calls


@pytest.mark.parametrize("n,ceiling", [(6, 2_000), (7, 10_000)])
def test_enumeration_closure_call_ceiling(monkeypatch, n, ceiling):
    # a work gate that does not depend on the wall clock
    calls = record_closures(monkeypatch)
    assert len(enumerate_thick(builtin("an", n))) == bell_numbers(n + 1)[-1]
    assert len(calls) <= ceiling


def test_product_enumeration_makes_two_closures_per_block(monkeypatch):
    # a work gate past the table bound: an:6 beside three free elements,
    # each free element's block {}, {e} from two closures, and the 7,016
    # unions of the blocks' parts cost no closure at all
    an6 = builtin("an", 6)
    pres = Presentation(an6.names + ("f0", "f1", "f2"), an6.triangles)
    assert not closure._fits_table(pres) and len(pres.blocks) == 4
    calls = record_closures(monkeypatch)
    assert len(enumerate_thick(an6)) == 877
    walked = len(calls)
    calls.clear()
    assert len(enumerate_thick(pres)) == 877 << 3
    assert len(calls) == walked + 2 * 3


def test_connected_presentation_is_walked_as_iter_closed(monkeypatch):
    # one block past the table bound: the same lazy walk, in the same order,
    # from the same calls
    pres = builtin("an", 6)
    assert len(pres.blocks) == 1 and not closure._fits_table(pres)
    calls = record_closures(monkeypatch)
    sets = closure._walk_blocks(pres)
    walked = [next(sets)]
    assert len(calls) == 1  # lazy: the bottom comes from the first closure
    walked += sets
    ours = calls[:]
    calls.clear()
    assert walked == list(_fcbo(pres.full_mask, partial(closure.thick_closure, pres)))
    assert ours == calls


SPARSE = presentation_from_document(
    json.loads((GOLDEN / "sparse104.presentation.json").read_text()))


@pytest.mark.parametrize("pres,count", [(builtin("product", 16), 1 << 16),
                                        (builtin("an", 5), 203), (SPARSE, 32_423)])
def test_table_enumeration_makes_no_closure(monkeypatch, pres, count):
    # a work gate within the table bound: every set is read off the table
    assert closure._fits_table(pres)
    calls = record_closures(monkeypatch)
    assert len(enumerate_thick(pres)) == closure.count_thick(pres) == count
    assert calls == []


def test_table_bound_holds_its_edge(monkeypatch):
    # product:20 costs (0 + 16) << 20, the bound itself, and is counted off
    # the table with no closure; one element more, each block is walked
    calls = record_closures(monkeypatch)
    assert closure.count_thick(builtin("product", 20)) == 1 << 20
    assert calls == []
    assert closure.count_thick(builtin("product", 21)) == 1 << 21
    assert len(calls) == 2 * 21


def test_benchmark_inputs_fall_on_both_sides_of_the_bound(monkeypatch):
    # bench/run.py's enumerate workload times both engines: its sparse
    # entries take the table, an:6, an:7 and its dense entries are walked
    bench = Path(__file__).parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    gen = importlib.import_module("gen")
    pools = json.loads((bench / "expected.json").read_text())["pools"]
    sparse = [gen.sparse_presentation(g) for g in pools["sparse"]]
    walked = [gen.dense_presentation(g) for g in pools["dense"]]
    assert all(closure._fits_table(presentation_from_document(d)) for d in sparse)
    assert not any(closure._fits_table(presentation_from_document(d)) for d in walked)
    assert not any(closure._fits_table(builtin("an", n)) for n in (6, 7))


def random_union(seed):
    """A disjoint union of 2-3 random presentations, 12 elements at most;
    a part may gain a degenerate triangle that forces one of its elements
    in, or one whose vertices are all zero."""
    rng = random.Random(seed)
    parts = []
    for _ in range(rng.randint(2, 3)):
        part = random_presentation(rng.randrange(1 << 30), max_indecs=4, max_triangles=4)
        extra = ()
        if rng.random() < 0.3:
            extra += (Triangle((), (), (rng.randrange(part.size),)),)
        if rng.random() < 0.2:
            extra += (Triangle((), (), ()),)
        parts.append(Presentation(part.names, part.triangles + extra))
    return disjoint_union(*parts, seed=seed)


@pytest.mark.parametrize("seed", range(200))
def test_disjoint_unions_enumerate_as_sweep(seed):
    # read off the table, and walked block by block as past the table bound
    pres = random_union(seed)
    expected = closed_by_sweep(pres)
    assert enumerate_thick(pres).elements == expected
    found = list(closure._walk_blocks(pres))
    assert len(found) == len(set(found)) == len(expected)
    assert canonical_sorted(found) == expected


def test_disjoint_union_sweep_covers_each_kind():
    kinds = {"blocks": 0, "wide blocks": 0, "interleaved": 0, "forced": 0, "all zero": 0,
             "free": 0}
    for seed in range(200):
        pres = random_union(seed)
        touched = 0
        for ma, mb, mc in pres.triangle_masks:
            touched |= ma | mb | mc
            kinds["all zero"] += not ma | mb | mc
        kinds["blocks"] += len(pres.blocks) > 1
        kinds["wide blocks"] += sum(b.bit_count() > 1 for b in pres.blocks) > 1
        kinds["interleaved"] += any(
            b.bit_length() - (b & -b).bit_length() >= b.bit_count() for b in pres.blocks)
        kinds["forced"] += pres.forced != 0
        kinds["free"] += pres.full_mask & ~touched != 0
    assert min(kinds.values()) >= 20, kinds


@pytest.mark.parametrize("family,n,factor", [("point", None, 2), ("a2", None, 5),
                                             ("product", 3, 8)])
def test_union_with_an7_multiplies_its_count(family, n, factor):
    # past brute force: an:7 has Bell(8) thick subsets, and a disjoint
    # summand multiplies that by its own count
    pres = disjoint_union(builtin("an", 7), builtin(family, n), seed=n or 0)
    found = enumerate_thick(pres).elements
    assert len(found) == len(set(found)) == bell_numbers(8)[-1] * factor
    assert all(triangle_rule_closed(pres, s) for s in found)


def engine_presentation(seed):
    """A presentation of seed % 21 elements, on either side of the table
    bound: up to two free elements, vertices of 0-2 components drawn with
    repeats, and triangle counts around the bound from 17 elements on; it
    may gain a degenerate triangle that forces an element in, or one whose
    vertices are all zero."""
    rng = random.Random(seed)
    n = seed % 21
    linked = rng.sample(range(n), n - rng.randint(0, min(n, 2)))
    room = (closure.TABLE_BOUND >> n) - 16  # the most triangles the table takes
    if n >= 17:
        count = rng.randint(max(n // 2, room - 8), max(n, room + 8))
    else:
        count = rng.randint(0, 3 * n)
    triangles = [Triangle(*(make_expr(rng.choices(linked, k=rng.choice((0, 1, 1, 1, 2, 2))))
                            for _ in range(3))) for _ in range(count if linked else 0)]
    if n and rng.random() < 0.2:
        triangles.append(Triangle((), (), (rng.randrange(n),)))
    if rng.random() < 0.15:
        triangles.append(Triangle((), (), ()))
    return Presentation(tuple(f"g{i}" for i in range(n)), tuple(triangles))


@pytest.mark.parametrize("seed", range(294))
def test_table_matches_next_closure_and_the_walk(seed):
    # the table, past the bound too, against NextClosure over a fixpoint
    # read off the triangles and against FCbO over all elements; in each
    # size it lists the sets in member-sequence order
    pres = engine_presentation(seed)
    table = list(closure._table_sets(pres.size, closure._closed_table(pres)))
    walked = closure._fcbo(pres.full_mask, partial(thick_closure, pres))
    expected = sorted(next_closure(pres.size, fixpoint_closure(pres)))
    assert sorted(table) == expected == sorted(walked)
    assert sorted(table, key=int.bit_count) == sorted(table, key=key_by_members)
    assert closure._closed_table(pres).bit_count() == len(table)


def test_engine_presentations_cover_each_kind():
    kinds = dict.fromkeys(("tiny", "table", "walk", "forced", "all zero", "repeats", "free"), 0)
    for seed in range(294):
        pres = engine_presentation(seed)
        touched = 0
        for ma, mb, mc in pres.triangle_masks:
            touched |= ma | mb | mc
            kinds["all zero"] += not ma | mb | mc
        kinds["tiny"] += pres.size < 3
        kinds["table" if closure._fits_table(pres) else "walk"] += 1
        kinds["forced"] += pres.forced != 0
        kinds["repeats"] += any(len(set(v)) < len(v) for t in pres.triangles
                                for v in (t.a, t.b, t.c))
        kinds["free"] += pres.full_mask & ~touched != 0
    assert min(kinds.values()) >= 20, kinds


def test_enumeration_addition_ceiling(monkeypatch):
    # a work gate that does not depend on the wall clock: a third of the
    # candidates here are rejected, and each rejected closure stops at its
    # first addition below the new element instead of at its fixpoint; the
    # walk is called directly, as the table takes this presentation
    pres = random_presentation(192, max_indecs=16, max_triangles=20)
    added = 0
    original = closure.thick_closure

    def counted(pres, members, *rest):
        nonlocal added
        result = original(pres, members, *rest)
        added += (result & ~members).bit_count()
        return result

    monkeypatch.setattr(closure, "thick_closure", counted)
    assert canonical_sorted(closure._walk_blocks(pres)) == closed_by_sweep(pres)
    assert added <= 450  # 355 with the early stop, 883 without


def test_degenerate_triangles_are_legal():
    # a vertex equal to the zero object: the rule degenerates gracefully and
    # forces the third vertex into every closed set
    pres = Presentation(("a", "b"), (Triangle((), (), (0,)),))
    lat = enumerate_thick(pres)
    assert lat.elements == brute_force_thick(pres).elements
    assert thick_closure(pres, 0) == mask_of([0])
    assert lat.elements[0] == mask_of([0])


def test_multi_component_vertices_fire_the_rule():
    pres = Presentation(("a", "b", "c"), (Triangle((0,), (1, 2), (0, 1)),))
    assert thick_closure(pres, mask_of([0, 1])) == pres.full_mask
    assert thick_closure(pres, mask_of([1, 2])) == mask_of([1, 2])


def test_bottom_and_top():
    lat = enumerate_thick(A2)
    assert lat.elements[0] == 0
    assert lat.elements[-1] == A2.full_mask


@pytest.mark.parametrize("seed", range(50))
def test_wide_enumeration_matches_next_closure(seed):
    # past the sweep oracles: NextClosure over a fixpoint read off the
    # triangles and the table, on one block of 18-28 elements, where FCbO's
    # failure records and the early stop prune most
    pres = wide_presentation(seed)
    assert 18 <= pres.size <= 28 and len(pres.blocks) == 1
    thick, ideals = enumerate_thick(pres), enumerate_ideals(pres)
    assert 50 <= len(thick) <= 500 and len(ideals) < len(thick)
    for lattice, ideal in ((thick, False), (ideals, True)):
        found = sorted(next_closure(pres.size, fixpoint_closure(pres, ideal)))
        assert sorted(lattice.elements) == found
    assert_prunes_as_reference(pres, thick_closure)


def with_copy_of_a_triangle(pres, rng):
    """``pres`` with one more triangle: a stored one again, or one of its
    two proper rotations, each of which states the same triangle."""
    t = rng.choice(pres.triangles)
    copy = rng.choice([(t.a, t.b, t.c), (t.b, t.c, t.a), (t.c, t.a, t.b)])
    return Presentation(pres.names, pres.triangles + (Triangle(*copy),), pres.tensor)


@pytest.mark.parametrize("seed", range(100))
def test_a_rotated_or_repeated_triangle_changes_nothing(seed):
    rng = random.Random(seed)
    for pres, enumerate_ in ((random_presentation(seed), enumerate_thick),
                             (random_tensor_presentation(seed), enumerate_ideals)):
        if pres.triangles:
            again = with_copy_of_a_triangle(pres, rng)
            assert enumerate_(again).elements == enumerate_(pres).elements
