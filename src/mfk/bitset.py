"""Subsets of a ground set 1..n as machine-word masks (element i = bit i-1)."""

from __future__ import annotations

from collections.abc import Iterable


def to_mask(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << (e - 1)
    return mask


def from_mask(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


def iter_bits(mask: int):
    """Yield 1-based elements of a mask in increasing order."""
    i = 1
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def popcount(mask: int) -> int:
    return mask.bit_count()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def blocks(ground: int, sets: Iterable[int]) -> list[int]:
    """The finest partition of ground with each given nonempty set inside
    ground in one block: masks, in the order of their least elements."""
    parts = [1 << (e - 1) for e in iter_bits(ground)]
    for s in sets:
        if s and s & ~ground == 0:
            merged = sum(p for p in parts if p & s)
            parts = [p for p in parts if not p & s] + [merged]
    return sorted(parts, key=lambda p: p & -p)
