import itertools
import json
import math

import pytest
from hypothesis import given, strategies as st

from conftest import (
    disjoint_union,
    presentation_to_document,
    random_presentation,
    random_tensor_presentation,
)
from run_cases import GOLDEN
from thicklat.errors import (
    InvalidParameter,
    SchemaError,
    UnknownFamily,
    ValidationError,
)
from thicklat.presentation import (
    Presentation,
    TensorTable,
    Triangle,
    builtin,
    make_expr,
    parse_presentation,
    presentation_from_document,
)


def test_parse_empty_presentation():
    pres = parse_presentation('{"indecomposables":[],"triangles":[]}')
    assert pres.names == ()
    assert pres.triangles == ()
    assert pres.tensor is None


def test_parse_basic_presentation():
    pres = parse_presentation(
        '{"indecomposables":["P1","P2","S2"],"triangles":[[["P1"],["P2"],["S2"]]]}')
    assert pres.names == ("P1", "P2", "S2")
    assert pres.triangles == (Triangle((0,), (1,), (2,)),)


def test_parse_dangling_reference_names_the_culprit():
    with pytest.raises(ValidationError, match="P2"):
        parse_presentation('{"indecomposables":["P1"],"triangles":[[["P1"],["P2"],[]]]}')


def test_parse_duplicate_name():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_presentation('{"indecomposables":["P1","P1"],"triangles":[]}')


@pytest.mark.parametrize("text", [
    "not json at all",
    "[1,2,3]",
    '{"indecomposables":[]}',
    '{"indecomposables":[1],"triangles":[]}',
    '{"indecomposables":["a"],"triangles":[[["a"],["a"]]]}',
    '{"indecomposables":["a"],"triangles":[],"extra":1}',
    '{"indecomposables":["a"],"triangles":"x"}',
    pytest.param("[" * 200_000, id="nested-too-deep"),
    pytest.param("1" * 5_000, id="integer-too-long"),
])
def test_parse_schema_errors(text):
    with pytest.raises(SchemaError):
        parse_presentation(text)


def test_parse_rejects_separator_in_name():
    with pytest.raises(ValidationError):
        parse_presentation('{"indecomposables":["a|b"],"triangles":[]}')


def test_parse_rejects_lone_surrogate_name():
    with pytest.raises(ValidationError, match="UTF-8"):
        parse_presentation('{"indecomposables":["a\\ud800"],"triangles":[]}')


def test_parse_tensor_missing_pair():
    doc = {
        "indecomposables": ["a", "b"],
        "triangles": [],
        "tensor": {"unit": ["a"], "table": {"a|a": ["a"], "a|b": [], "b|a": []}},
    }
    with pytest.raises(ValidationError, match="missing"):
        parse_presentation(json.dumps(doc))


def test_parse_tensor_asymmetric():
    doc = {
        "indecomposables": ["a", "b"],
        "triangles": [],
        "tensor": {
            "unit": ["a"],
            "table": {"a|a": ["a"], "a|b": ["a"], "b|a": ["b"], "b|b": ["b"]},
        },
    }
    with pytest.raises(ValidationError, match="symmetric"):
        parse_presentation(json.dumps(doc))


def test_parse_tensor_symmetry_ignores_multiplicity():
    # symmetry is of component supports: a+a and a have the same components
    doc = {
        "indecomposables": ["a", "b"],
        "triangles": [],
        "tensor": {
            "unit": ["a"],
            "table": {"a|a": ["a"], "a|b": ["a", "a"], "b|a": ["a"], "b|b": ["b"]},
        },
    }
    tensor = parse_presentation(json.dumps(doc)).tensor
    assert tensor.table == ((0b01, 0b01), (0b01, 0b10))


def test_repeats_in_tensor_cells_and_unit_parse_to_the_same_presentation():
    # cells and the unit are sets of components: a1*b1 written b1+b1 one way
    # and b1+b1+b1 the other is b1 both ways, and the unit with two repeats,
    # out of order, is the same unit
    original = json.loads((GOLDEN / "tensor-triangles.presentation.json").read_text())
    doc = json.loads(json.dumps(original))
    doc["tensor"]["unit"] = ["a2", "e1", "a1", "e1", "e2", "a2", "e3"]
    doc["tensor"]["table"]["a1|b1"] = ["b1", "b1"]
    doc["tensor"]["table"]["b1|a1"] = ["b1", "b1", "b1"]
    assert json.loads((GOLDEN / "tensor-repeats.presentation.json").read_text()) == doc
    pres = presentation_from_document(doc)
    assert pres == presentation_from_document(original)
    # each component once, in index order
    assert presentation_to_document(pres) == original


def test_parse_tensor_unknown_name_and_bad_key():
    base = {"indecomposables": ["a"], "triangles": []}
    with pytest.raises(ValidationError):
        parse_presentation(json.dumps(
            {**base, "tensor": {"unit": ["a"], "table": {"a|z": ["a"], "a|a": ["a"]}}}))
    with pytest.raises(SchemaError):
        parse_presentation(json.dumps(
            {**base, "tensor": {"unit": ["a"], "table": {"aa": ["a"]}}}))


@pytest.mark.parametrize("family,n", [
    ("a2", None), ("point", None), ("an", 3), ("product", 3),
])
def test_roundtrip_builtins(family, n):
    pres = builtin(family, n)
    assert parse_presentation(json.dumps(presentation_to_document(pres))) == pres


@pytest.mark.parametrize("family,n", [("a2", None), ("point", None), ("product", 40)]
                         + [("an", k) for k in range(1, 21)])
def test_builtin_names_label_subsets_decodably(family, n):
    pres = builtin(family, n)
    assert presentation_from_document(presentation_to_document(pres)) == pres


def test_parse_rejects_names_whose_labels_clash():
    # {a,b} labelled both {a} + {b} and {a,b}
    doc = {"indecomposables": ["a", "b", "a,b"], "triangles": []}
    with pytest.raises(ValidationError, match="'a,b' and 'a', 'b' both join to 'a,b'"):
        presentation_from_document(doc)


def test_label_check_ignores_index_order():
    # {x,y} and {y,x} are labelled "{x,y}" and "{y,x}", but the words x, and
    # y, spell y,x, in the order y, x, so the names are rejected all the same
    doc = {"indecomposables": ["x", "y", "y,x"], "triangles": []}
    labels = [Presentation(tuple(doc["indecomposables"]), ()).label(m) for m in range(8)]
    assert len(set(labels)) == 8
    with pytest.raises(ValidationError, match="'y,x' and 'y', 'x'"):
        presentation_from_document(doc)


def test_label_check_follows_a_long_chain_of_parses():
    # a, a,a,...,a,b leaves 2,000 dangling suffixes; with b added the last
    # one is a name, and the error rebuilds both parses
    chain = "a," * 2000 + "b"
    presentation_from_document({"indecomposables": ["a", chain], "triangles": []})
    with pytest.raises(ValidationError, match=f"names '{chain}' and 'a', 'a', "):
        presentation_from_document({"indecomposables": ["a", chain, "b"], "triangles": []})


@st.composite
def label_names(draw):
    """Short names over the characters of a label, plus a few that join
    others by ",", as a label of several members does."""
    names = draw(st.lists(st.text(alphabet="a,{}", min_size=1, max_size=3),
                          min_size=1, max_size=4, unique=True))
    joins = draw(st.lists(st.lists(st.sampled_from(names), min_size=2, max_size=3),
                          max_size=2))
    return list(dict.fromkeys(names + [",".join(j) for j in joins]))


@given(label_names())
def test_accepted_names_label_subsets_injectively(names):
    try:
        pres = presentation_from_document({"indecomposables": names, "triangles": []})
    except ValidationError:
        return
    labels = {pres.label(m) for m in range(1 << pres.size)}
    assert len(labels) == 1 << pres.size


@st.composite
def presentations(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    names = tuple(f"m{i}" for i in range(n))
    exprs = st.lists(st.integers(0, n - 1), max_size=4).map(make_expr) if n else st.just(())
    triangles = tuple(
        Triangle(draw(exprs), draw(exprs), draw(exprs))
        for _ in range(draw(st.integers(0, 4)))
    )
    tensor = None
    if n and draw(st.booleans()):
        masks = st.integers(0, (1 << n) - 1)
        cells = [[None] * n for _ in range(n)]
        for x in range(n):
            for y in range(x, n):
                value = draw(masks)
                cells[x][y] = value
                cells[y][x] = value
        tensor = TensorTable(draw(masks), tuple(tuple(row) for row in cells))
    return Presentation(names, triangles, tensor)


@given(presentations())
def test_roundtrip_random_presentations(pres):
    assert parse_presentation(json.dumps(presentation_to_document(pres))) == pres


def test_builtin_a2_shape():
    pres = builtin("a2")
    assert pres.names == ("P1", "P2", "S2")
    assert pres.triangles == (Triangle((0,), (1,), (2,)),)


@pytest.mark.parametrize("n", range(1, 9))
def test_an_counts(n):
    pres = builtin("an", n)
    assert len(pres.names) == math.comb(n + 1, 2)
    assert len(pres.triangles) == math.comb(n + 1, 3)


def test_an3_shape():
    pres = builtin("an", 3)
    assert len(pres.names) == 6
    assert len(pres.triangles) == 4


def test_an2_isomorphic_to_a2_by_relabeling():
    a2 = builtin("a2")
    an2 = builtin("an", 2)
    assert len(an2.names) == 3
    matches = []
    for perm in itertools.permutations(range(3)):
        relabeled = {
            tuple(tuple(sorted(perm[i] for i in expr)) for expr in (t.a, t.b, t.c))
            for t in an2.triangles
        }
        original = {(t.a, t.b, t.c) for t in a2.triangles}
        if relabeled == original:
            matches.append(perm)
    assert (0, 1, 2) in matches  # [0,1] -> P1, [0,2] -> P2, [1,2] -> S2


def test_builtin_point():
    pres = builtin("point")
    assert pres.names == ("k",)
    assert pres.triangles == ()
    assert pres.tensor.unit == 0b1
    assert pres.tensor.table == ((0b1,),)


def test_builtin_product():
    pres = builtin("product", 3)
    assert pres.names == ("e1", "e2", "e3")
    assert pres.tensor.unit == 0b111
    for x in range(3):
        for y in range(3):
            assert pres.tensor.table[x][y] == (1 << x if x == y else 0)


def test_builtin_errors():
    with pytest.raises(UnknownFamily):
        builtin("nope")
    with pytest.raises(InvalidParameter):
        builtin("an")
    with pytest.raises(InvalidParameter):
        builtin("product", 0)
    with pytest.raises(InvalidParameter):
        builtin("a2", 3)


def test_expr_normalization():
    assert make_expr([2, 0, 2]) == (0, 2, 2)
    assert make_expr([]) == ()


def test_label_and_expr_names():
    pres = builtin("a2")
    assert pres.label(0b101) == "{P1,S2}"
    assert pres.label(0) == "{}"
    assert list(pres.labels([0b101, 0, 0b111])) == ["{P1,S2}", "{}", "{P1,P2,S2}"]


def blocks_by_search(pres):
    """Oracle blocks: from each lowest unvisited element, every element that
    a chain of triangles reaches, each triangle linking its vertices'
    elements."""
    linked = [set() for _ in pres.names]
    for t in pres.triangles:
        elements = set(t.a + t.b + t.c)
        for e in elements:
            linked[e] |= elements
    blocks, seen = [], set()
    for start in range(pres.size):
        if start in seen:
            continue
        block, todo = {start}, [start]
        while todo:
            for f in linked[todo.pop()] - block:
                block.add(f)
                todo.append(f)
        seen |= block
        blocks.append(sum(1 << e for e in block))
    return tuple(blocks)


@pytest.mark.parametrize("seed", range(100))
def test_blocks_match_search_oracle(seed):
    pres = random_presentation(seed, max_indecs=16, max_triangles=6)
    assert pres.blocks == blocks_by_search(pres)


def test_blocks_examples():
    assert builtin("an", 5).blocks == (builtin("an", 5).full_mask,)
    assert builtin("product", 3).blocks == (1, 2, 4)
    assert Presentation((), ()).blocks == ()
    # a degenerate triangle's forced element is a block; an all-zero one links nothing
    pres = Presentation(("a", "b", "c", "d"), (
        Triangle((), (), (2,)), Triangle((), (), ()), Triangle((0,), (3,), (3,))))
    assert pres.blocks == (0b1001, 0b0010, 0b0100)


def test_blocks_of_a_disjoint_union_interleave():
    pres = disjoint_union(builtin("an", 3), builtin("a2"), builtin("point"), seed=2)
    blocks = pres.blocks
    assert sorted(map(int.bit_count, blocks)) == [1, 3, 6]
    assert any(b.bit_length() - (b & -b).bit_length() >= b.bit_count() for b in blocks)
    for b in blocks:
        assert len({pres.names[i].partition(".")[0] for i in range(pres.size) if b >> i & 1}) == 1


def test_vertex_slots_share_one_slot_per_distinct_vertex():
    # P+Q+Q and the zero object get slots past the three names, each once;
    # Q+Q is Q's own slot, as its support is Q's
    pres = Presentation(("P", "Q", "R"), (Triangle((0, 1, 1), (), (1,)),
                                          Triangle((1, 1), (0, 1), ()),
                                          Triangle((2,), (), (0, 1, 1))))
    assert pres.vertex_slots == ((0b011, 0), ((3, 4, 1), (1, 3, 4), (2, 4, 3)))
    assert builtin("a2").vertex_slots == ((), ((0, 1, 2),))


def rules_by_reading(pres):
    """Oracle rule tables: per element e, (vertex without e, next vertex,
    the one after) for every vertex of a stored triangle holding e, read in
    each of the three cyclic orders; what a triangle forces where two of its
    vertices are zero; and per element e, one more rule (0, 0, every
    component of g*e) for ideals."""
    rules = [[] for _ in range(pres.size)]
    forced = 0
    for masks in pres.triangle_masks:
        if sum(m == 0 for m in masks) >= 2:
            forced |= masks[0] | masks[1] | masks[2]
        for k, vertex in enumerate(masks):
            for e in range(pres.size):
                if vertex >> e & 1:
                    rules[e].append((vertex & ~(1 << e), masks[(k + 1) % 3], masks[(k + 2) % 3]))
    ideal = None
    if pres.tensor is not None:
        table = pres.tensor.table
        ideal = [r + [(0, 0, sum({1 << c for row in table for c in range(pres.size)
                                  if row[e] >> c & 1}))]
                 for e, r in enumerate(rules)]
    return rules, forced, ideal


def sorted_table(table):
    return [sorted(rules) for rules in table]


@pytest.mark.parametrize("seed", range(150))
def test_rule_tables_match_a_reading_of_the_triangles(seed):
    pres = random_presentation(seed)
    rules, forced, _ = rules_by_reading(pres)
    assert sorted_table(pres.rules) == sorted_table(rules)
    assert pres.forced == forced


@pytest.mark.parametrize("seed", range(150))
def test_ideal_rule_tables_match_a_reading_of_the_table(seed):
    pres = random_tensor_presentation(seed)
    rules, forced, ideal = rules_by_reading(pres)
    assert sorted_table(pres.rules) == sorted_table(rules)
    assert sorted_table(pres.ideal_rules) == sorted_table(ideal)
    assert pres.forced == forced


def test_rule_table_seeds_cover_each_kind():
    kinds = {"zero vertex": 0, "all zero": 0, "forced": 0, "repeated": 0, "absorbing": 0}
    for seed in range(150):
        for pres in (random_presentation(seed), random_tensor_presentation(seed)):
            kinds["zero vertex"] += any(not t.a or not t.b or not t.c for t in pres.triangles)
            kinds["all zero"] += any(not (t.a or t.b or t.c) for t in pres.triangles)
            kinds["forced"] += pres.forced != 0
            kinds["repeated"] += any(len(set(v)) < len(v) for t in pres.triangles
                                     for v in (t.a, t.b, t.c))
            kinds["absorbing"] += pres.tensor is not None and any(
                row[-1][2] & ~(1 << e) for e, row in enumerate(pres.ideal_rules))
    assert min(kinds.values()) >= 20, kinds
