import random

import pytest

from conftest import key_by_members, mask_by_loop, random_presentation
from thicklat.bitsets import canonical_key, canonical_sorted, mask_of, omitted, pick, picks
from thicklat.closure import enumerate_thick
from thicklat.presentation import builtin
from thicklat.space import build_sp


@pytest.mark.parametrize("seed", range(30))
def test_mask_of_matches_loop_on_random_indices(seed):
    rng = random.Random(seed)
    width = rng.choice([1, 2, 64, 1_000, 100_000])
    indices = [rng.randrange(width) for _ in range(rng.randint(0, min(width, 5_000)))]
    indices += rng.sample(indices, len(indices) // 3)  # repeats, out of order
    rng.shuffle(indices)
    assert mask_of(indices) == mask_by_loop(indices)
    assert mask_of(iter(indices)) == mask_of(sorted(indices))


@pytest.mark.parametrize("indices", [
    [], [0], [0, 0], [5, 1, 5], [99_999], list(range(100_000)), range(0, 100_000, 7),
])
def test_mask_of_edge_cases(indices):
    assert mask_of(indices) == mask_by_loop(indices)


def omitted_by_loop(rows, width):
    """Oracle: test every bit of every row."""
    out = []
    for c in range(width):
        m = 0
        for r, row in enumerate(rows):
            if not (row >> c) & 1:
                m |= 1 << r
        out.append(m)
    return tuple(out)


@pytest.mark.parametrize("seed", range(40))
def test_omitted_matches_loop_on_random_rows(seed):
    rng = random.Random(seed)
    width = rng.randint(0, 70)
    # some rows carry bits at or past width, which the transpose ignores
    rows = [rng.getrandbits(width + rng.randint(0, 3)) for _ in range(rng.randint(0, 70))]
    assert omitted(rows, width) == omitted_by_loop(rows, width)


@pytest.mark.parametrize("rows, width", [
    ((), 0), ((), 5), ([0b101, 0], 0), ([0], 1), ([1], 1), ([0b11, 0b10], 2),
])
def test_omitted_edge_cases(rows, width):
    assert omitted(rows, width) == omitted_by_loop(rows, width)


def test_omitted_matches_loop_on_wide_rows():
    # an:8's supports are 21,147 bits wide: both directions of that shape
    rng = random.Random(8)
    wide = [rng.getrandbits(21_147) for _ in range(4)]
    assert omitted(wide, 21_147) == omitted_by_loop(wide, 21_147)
    tall = [rng.getrandbits(3) for _ in range(21_147)]
    assert omitted(tall, 3) == omitted_by_loop(tall, 3)


def pick_by_bits(items, mask):
    """Oracle: index the items at the set bits, one low bit per step."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out


@pytest.mark.parametrize("seed", range(60))
def test_pick_matches_bits_on_random_masks(seed):
    rng = random.Random(seed)
    width = rng.randint(0, 300)
    items = [f"i{k}" for k in range(width)]
    for mask in (0, (1 << width) - 1, rng.getrandbits(width),
                 rng.getrandbits(width) & rng.getrandbits(width)):
        assert pick(items, mask) == pick_by_bits(items, mask)


def test_pick_ignores_bits_past_the_items():
    items = ["a", "b", "c"]
    assert pick(items, 0b1111_0101) == pick_by_bits(items, 0b101) == ["a", "c"]
    assert pick((), 0b11) == []
    assert pick(range(5), 0b10110) == [1, 2, 4]


def picked_rows(items, masks):
    return [list(row) for row in picks(items, masks)]


@pytest.mark.parametrize("seed", range(30))
def test_picks_matches_pick_on_random_masks(seed):
    rng = random.Random(seed)
    width = rng.randint(0, 300)
    items = [f"i{k}" for k in range(width)]
    # masks reach up to 3 bits past the items; 0 and repeats are among them
    masks = [rng.getrandbits(width + 3) for _ in range(rng.randint(0, 20))]
    masks += [0, 0, (1 << width) - 1, *masks[:3]]
    rng.shuffle(masks)
    assert picked_rows(items, masks) == [pick(items, m) for m in masks]
    low = (1 << width) - 1
    assert picked_rows(items, iter(masks)) == [pick_by_bits(items, m & low) for m in masks]


@pytest.mark.parametrize("items, masks", [
    (["a", "b", "c"], []), (["a", "b", "c"], [0]), ([], [0, 0b111]), ((), ()),
    (["a", "b", "c"], [0b1111_0101, 0b1000, 0b10]), (range(5), [0b10110, 0]),
])
def test_picks_edge_cases(items, masks):
    assert picked_rows(items, masks) == [pick(items, m) for m in masks]


def label_by_join(pres, mask):
    """Oracle: the member names at the set bits, comma-joined in braces."""
    return "{" + ",".join(pres.names[i] for i in range(pres.size) if mask >> i & 1) + "}"


@pytest.mark.parametrize("seed", range(25))
def test_labels_match_label_on_random_presentations(seed):
    pres = random_presentation(seed, max_indecs=40)
    rng = random.Random(seed)
    masks = [0, pres.full_mask, *(rng.getrandbits(pres.size) for _ in range(30))]
    masks += masks[:5]
    assert pres.labels(masks) == tuple(map(pres.label, masks))
    assert pres.labels(iter(masks)) == tuple(label_by_join(pres, m) for m in masks)
    assert pres.labels([]) == ()
    assert [pres.label(m) for m in masks] == [label_by_join(pres, m) for m in masks]


@pytest.fixture(scope="module")
def an8():
    return enumerate_thick(builtin("an", 8))


def test_pick_matches_bits_on_an8_supports(an8):
    # the universal space of an:8 has 21,147 points: its 36 supports are
    # the widest masks the CLI lists
    sp = build_sp(an8)
    points = sp.space.points
    assert len(points) == 21_147 and len(sp.sigma) == 36
    for mask in sp.sigma:
        assert pick(points, mask) == pick_by_bits(points, mask)


def sorted_both_ways(masks):
    """By ``canonical_key`` and by the oracle key, after checking that
    ``canonical_sorted`` agrees with both, on a list and on a generator."""
    by_key, by_members = sorted(masks, key=canonical_key), sorted(masks, key=key_by_members)
    assert list(canonical_sorted(masks)) == by_key == by_members
    assert canonical_sorted(m for m in masks) == tuple(by_members)
    return by_key, by_members


@pytest.mark.parametrize("seed", range(60))
def test_canonical_key_sorts_like_member_tuples_on_random_masks(seed):
    rng = random.Random(seed)
    width = rng.randint(0, 300)
    masks = [0, (1 << width) - 1]
    masks += [rng.getrandbits(rng.randint(0, width)) for _ in range(20)]
    # sets of one size, narrower and wider ones mixed, and pairs that differ
    # by moving one member
    for size in {rng.randint(0, width) for _ in range(3)}:
        for _ in range(10):
            members = rng.sample(range(width), size)
            masks.append(sum(1 << i for i in members))
            if 0 < size < width:
                out = rng.choice([i for i in range(width) if i not in members])
                masks.append(masks[-1] ^ 1 << members[0] ^ 1 << out)
    masks += rng.sample(masks, len(masks) // 4)  # repeats, which are kept
    rng.shuffle(masks)
    by_key, by_members = sorted_both_ways(masks)
    assert by_key == by_members


def test_canonical_key_sorts_every_narrow_mask_like_member_tuples():
    masks = list(range(1 << 10))
    random.Random(10).shuffle(masks)
    by_key, by_members = sorted_both_ways(masks)
    assert by_key == by_members
    # every size from 0 to 10 ties: 252 masks hold 5 members
    assert sorted_both_ways(masks * 2)[0] == [m for m in by_key for _ in range(2)]


@pytest.mark.parametrize("masks, expected", [
    ([], ()), ([0], (0,)), ([0, 0], (0, 0)), ([0b10, 0b1], (0b1, 0b10)),
    ([0b11, 0b100, 0b101, 0], (0, 0b100, 0b11, 0b101)),
    ([0b110, 0b11, 0b110], (0b11, 0b110, 0b110)),
])
def test_canonical_sorted_edge_cases(masks, expected):
    assert canonical_sorted(masks) == canonical_sorted(iter(masks)) == expected
    assert list(expected) == sorted(masks, key=key_by_members)


@pytest.mark.parametrize("family, k", [("an", 8), ("product", 12)])
def test_canonical_key_sorts_builtin_lattices_like_member_tuples(an8, family, k):
    lattice = an8 if family == "an" else enumerate_thick(builtin(family, k))
    elems = list(lattice.elements)
    random.Random(k).shuffle(elems)
    by_key, by_members = sorted_both_ways(elems)
    assert by_key == by_members == list(lattice.elements)
