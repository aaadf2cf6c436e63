"""The rank-oracle queries as ``Matroid`` computed them before their one-pass
forms: the differential oracle for ``closure_mask``, ``circuit_masks``,
``is_independent`` and ``loops``.

Every query here goes through ``Matroid.rank_mask``, the maximum of
``|B & X|`` over all bases, so each answer follows the rank function's
definition directly: the closure adds every element that keeps the rank,
and a set is dependent when its rank is below its size.  ``circuit_scan``
is the one exception: the subset scan ``Matroid.circuit_masks`` made before
it walked down from the bases, which tests dependence by basis containment.

``grid_agrees_pointwise`` is the Bergman grid check as the CLI made it
before it took one weight per weak order: both support rules at every point
of {-K..K}^n.
"""

from __future__ import annotations

from itertools import combinations, product

from mfk.bitset import from_mask, popcount


def closure_mask(matroid, mask: int) -> int:
    """X plus every element e with r(X + e) = r(X): n + 1 rank scans."""
    r = matroid.rank_mask(mask)
    closed = mask
    for e in range(matroid.n):
        bit = 1 << e
        if not mask & bit and matroid.rank_mask(mask | bit) == r:
            closed |= bit
    return closed


def _minimal_dependent(matroid, dependent) -> tuple[int, ...]:
    """Every subset of at most rank + 1 elements, smallest first, kept when
    it is dependent and contains no set kept before: quadratic in the
    number of circuits."""
    found: list[int] = []
    for size in range(1, matroid.rank_d + 2):
        for combo in combinations(range(matroid.n), size):
            mask = 0
            for c in combo:
                mask |= 1 << c
            if any(c & ~mask == 0 for c in found):
                continue
            if dependent(mask, size):
                found.append(mask)
    return tuple(sorted(found))


def circuit_masks(matroid) -> tuple[int, ...]:
    """Minimal subsets whose rank is below their size."""
    return _minimal_dependent(
        matroid, lambda mask, size: matroid.rank_mask(mask) < size)


def circuit_scan(matroid) -> tuple[int, ...]:
    """Minimal dependent subsets, with every (rank + 1)-subset dependent and
    a smaller one dependent when no basis contains it."""
    return _minimal_dependent(
        matroid, lambda mask, size: size > matroid.rank_d or not any(
            mask & ~b == 0 for b in matroid.base_masks))


def is_independent(matroid, mask: int) -> bool:
    return matroid.rank_mask(mask) == popcount(mask)


def loops(matroid) -> frozenset[int]:
    """Elements of rank zero."""
    return from_mask(sum(1 << (e - 1) for e in range(1, matroid.n + 1)
                         if matroid.rank_mask(1 << (e - 1)) == 0))


def grid_agrees_pointwise(fan, radius: int) -> bool:
    """Do ``contains`` and ``cones_containing`` agree on all of {-K..K}^n?"""
    return all(fan.contains(w) == bool(fan.cones_containing(w))
               for w in product(range(-radius, radius + 1), repeat=fan.n))
