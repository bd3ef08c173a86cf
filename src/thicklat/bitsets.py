"""Subsets of range(n) stored as plain int bitmasks.

Build a mask with ``mask_of``, the one index-to-mask build: it writes the
digits into one buffer and reads it once with ``int(..., 2)``, linear in
the mask's width, where OR-ing in one ``1 << i`` at a time copies the
growing int on every step. Walk a mask with ``pick(items, mask)``: one
C-level pass over its digits, linear in its width, for names, indices
(``pick(range(n), mask)``) and per-point values. ``omitted`` transposes
many rows at once. Inline low-bit loops stay in ``closure.propagate`` and
``closure.iter_closed``, whose worklists change mid-walk (``pick`` took
product:15's ideals from 0.082 to 0.100 s; in-process medians of 7, 2-vCPU
Xeon VM, Python 3.11).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress
from typing import TypeVar

T = TypeVar("T")

# binary digits as the bytes 0 and 1, which compress reads as selectors,
# and complemented, so that a held index compares low
_DIGITS = bytes.maketrans(b"01", b"\0\1")
_ABSENT_HIGH = str.maketrans("01", "10")


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
    """Sort key fixing the canonical order: cardinality, then member sequence.
    Of two sets of one size, the one holding the lowest index where they
    differ comes first: there its complemented digit, read lowest index
    first, is the first to differ and reads 0."""
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_ABSENT_HIGH))
