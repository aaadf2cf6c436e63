"""The nested-layer decisions as ``mfk`` made them by search before the
structure theorems replaced them: the differential oracle for
``lattice.interval_product_check``, ``nested.maximal_nested_sets`` and
``nested.is_nested``.

The product check enumerates the whole product of the lower intervals and
compares every pair of tuples with their joins.  The nested sets are grown
one building member at a time, each kept when no antichain it forms with
the members already chosen joins to a building member; the maximal nested
sets are the nested sets that no other nested set strictly contains.
"""

from __future__ import annotations

from itertools import combinations, product

from mfk.bitset import from_mask, to_mask


def interval_product_check(lattice, flat, factors) -> bool:
    """Is the join map from the product of the intervals [0, G_i] onto
    [0, X] an order-isomorphism?  Checked over every pair of tuples."""
    x = to_mask(flat)
    factor_masks = [to_mask(f) for f in factors]
    if any(f & ~x for f in factor_masks):
        return False
    target = lattice.interval_masks(lattice.bottom, x)
    intervals = [lattice.interval_masks(lattice.bottom, f)
                 for f in factor_masks]
    size = 1
    for iv in intervals:
        size *= len(iv)
    if size != len(target):
        return False
    tuples = list(product(*intervals))
    joins = []
    for tup in tuples:
        j = lattice.bottom
        for f in tup:
            j = lattice.join_mask(j, f)
        joins.append(j)
    if set(joins) != set(target):
        return False
    for a, ja in zip(tuples, joins):
        for b, jb in zip(tuples, joins):
            le_tuple = all(x1 & ~x2 == 0 for x1, x2 in zip(a, b))
            le_join = ja & ~jb == 0
            if le_tuple != le_join:
                return False
    return True


def _incomparable(a: int, b: int) -> bool:
    return a & ~b != 0 and b & ~a != 0


def _extends(lattice, member_masks, chosen, new: int) -> bool:
    """Does ``new`` keep the nested set ``chosen`` nested?

    It does when no antichain made of ``new`` and members of ``chosen``
    joins to a building member.  A set is nested exactly when each of its
    elements extends the elements before it.
    """
    incomp = [m for m in chosen if _incomparable(m, new)]
    for size in range(1, len(incomp) + 1):
        for combo in combinations(incomp, size):
            if not all(_incomparable(a, b)
                       for a, b in combinations(combo, 2)):
                continue
            join = new
            for m in combo:
                join = lattice.join_mask(join, m)
            if join in member_masks:
                return False
    return True


def all_nested_sets(building) -> list[frozenset[frozenset[int]]]:
    """Every nested set, the empty one included, in deterministic order."""
    lattice = building.lattice
    member_masks = set(building.members)
    ordered = building.members
    out: list[frozenset[frozenset[int]]] = []

    def grow(chosen, start):
        out.append(frozenset(from_mask(m) for m in chosen))
        for k in range(start, len(ordered)):
            cand = ordered[k]
            if _extends(lattice, member_masks, chosen, cand):
                chosen.append(cand)
                grow(chosen, k + 1)
                chosen.pop()

    grow([], 0)
    return out


def maximal_nested_sets(building) -> list:
    """The nested sets inside no other nested set, in enumeration order."""
    everything = all_nested_sets(building)
    return [s for s in everything if not any(s < t for t in everything)]


def element_sets(building, nested_sets) -> list[frozenset[frozenset[int]]]:
    """Nested sets given by the positions of their members in
    ``building.members``, as sets of element sets."""
    members = building.sorted_members()
    return [frozenset(members[k] for k in s) for s in nested_sets]
