"""Subsets of range(n) stored as plain int bitmasks.

Build a mask with ``mask_of``, the one index-to-mask build: it writes the
digits into one buffer and reads it once with ``int(..., 2)``, where OR-ing in
one ``1 << i`` at a time copies the growing int on every step. Walk a mask with
``pick(items, mask)``: one C-level pass over its digits, for names, indices
(``pick(range(n), mask)``) and per-point values. ``omitted`` transposes many
rows at once; ``picks`` and ``canonical_sorted`` walk and sort many masks with
no Python call per mask (``bench/run.py`` ``enumerate`` 0.40 -> 0.34 s).
``joins`` writes rows of joined names: below 256 rows each is joined from its
walk through ``picks``; from 256 on, from one lookup per chunk of at most 8
names in tables of joined names built once (``enumerate`` 0.341 -> 0.305 s;
a sparse job's 32,423 JSON rows 37 -> 22 ms, in-process medians of 15).
Inline low-bit loops stay in ``closure.propagate`` and ``closure.iter_closed``,
whose worklists change mid-walk (``pick`` took product:15's ideals from 0.082
to 0.100 s, in-process medians of 7). All on a 2-vCPU Xeon VM, Python 3.11.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, repeat
from operator import and_, getitem, itemgetter, rshift
from typing import TypeVar

T = TypeVar("T")

# binary digits as the bytes 0 and 1, which compress reads as selectors,
# and complemented, so that a held index compares low
_DIGITS = bytes.maketrans(b"01", b"\0\1")
_ABSENT_HIGH = str.maketrans("01", "10")
_LOW_FIRST = itemgetter(slice(None, 1, -1))  # bin(mask)'s digits, lowest index first


def mask_of(indices: Iterable[int]) -> int:
    """The mask holding the given non-negative indices, repeats allowed:
    their digits are set in one buffer, lowest index first, and read once."""
    held = list(indices)
    if not held:
        return 0
    digits = bytearray(b"0") * (max(held) + 1)
    for i in held:
        digits[i] = 49  # ord("1")
    return int(digits[::-1], 2)


def pick(items: Sequence[T], mask: int) -> list[T]:
    """The items at the set bits of ``mask`` in index order, from one pass
    over its binary digits; bits at or past ``len(items)`` are ignored."""
    return list(compress(items, bin(mask)[:1:-1].encode().translate(_DIGITS)))


def picks(items: Sequence[T], masks: Iterable[int]) -> Iterator[Iterator[T]]:
    """Per mask, an iterator over the items that ``pick(items, mask)`` lists."""
    digits = map(str.encode, map(_LOW_FIRST, map(bin, masks)))
    return map(compress, repeat(items), map(bytes.translate, digits, repeat(_DIGITS)))


def joins(items: Sequence[str], masks: Sequence[int], sep: str) -> Iterator[str]:
    """Per mask, ``sep.join(pick(items, mask))``. From 256 masks on, the items
    are cut into at most 6 chunks of consecutive items, and each row is one
    lookup per chunk in a table of the joins of all its chunk's subsets, each
    led by ``sep``; the tables are built once, by doubling."""
    # a table of 2^width joins pays for itself over about 2^(width + 3) rows;
    # wider tables add memory for little time, more chunks lose to the walk
    width = min(8, len(masks).bit_length() - 3)
    if width < 6 or not 0 < len(items) <= 6 * width:
        return map(sep.join, picks(items, masks))
    columns = []
    for start in range(0, len(items), width):
        table = [""]
        for item in items[start:start + width]:
            table += [t + sep + item for t in table]
        chunk = map(and_, map(rshift, masks, repeat(start)), repeat(len(table) - 1))
        columns.append(map(getitem, repeat(table), chunk))
    return map(itemgetter(slice(len(sep), None)), map("".join, zip(*columns)))


def omitted(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Complemented transpose: per c < width, the mask of the positions r
    at which ``rows[r]`` lacks bit c."""
    if not rows:
        return (0,) * width
    spec = f"0{width}b"
    low = (1 << width) - 1
    # rows are written last to first, each most significant bit first, so
    # the stride-width slice for bit c reads as a binary numeral in which
    # row r is bit r
    text = "".join([format(row & low, spec) for row in reversed(rows)])
    full = (1 << len(rows)) - 1
    return tuple(full ^ int(text[width - 1 - c::width], 2) for c in range(width))


def canonical_key(mask: int) -> tuple[int, str]:
    """Per-mask definition of the canonical order, which ``canonical_sorted`` reproduces:
    cardinality, then member sequence. Of two sets of one size, the one holding the lowest
    differing index comes first: there its complemented digit, read lowest first, reads 0."""
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_ABSENT_HIGH))


def canonical_sorted(masks: Iterable[int]) -> tuple[int, ...]:
    """The masks, repeats kept, in ``canonical_key`` order: by digits read lowest index first,
    descending, so that of two sets the one holding the lowest differing index comes first
    (distinct masks never share digits, so no masks are compared), then stably by size."""
    ms = tuple(masks)
    by_digits = sorted(zip(map(_LOW_FIRST, map(bin, ms)), ms), reverse=True)
    return tuple(sorted(map(itemgetter(1), by_digits), key=int.bit_count))
