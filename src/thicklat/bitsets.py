"""Subsets of range(n) stored as plain int bitmasks."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import compress

# binary digits as the bytes 0 and 1, which compress reads as selectors
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Indices present in the mask, ascending. Each step copies the int,
    so this is for narrow masks; ``pick`` walks masks of any width."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pick(items: Sequence[str], mask: int) -> list[str]:
    """The items at the set bits of ``mask`` in index order, from one pass
    over its binary digits; bits at or past ``len(items)`` are ignored."""
    return list(compress(items, bin(mask)[:1:-1].encode().translate(_DIGITS)))


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


def canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key fixing the canonical order: cardinality, then member sequence."""
    return (mask.bit_count(), tuple(bits(mask)))
