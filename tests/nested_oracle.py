"""The nested-layer decisions as ``mfk`` made them by search before the
structure theorems replaced them: the differential oracle for
``lattice.interval_product_check`` and ``nested.maximal_nested_sets``.

The product check enumerates the whole product of the lower intervals and
compares every pair of tuples with their joins; the maximal nested sets are
the nested sets that no other nested set strictly contains.
"""

from __future__ import annotations

from itertools import product

from mfk.bitset import to_mask
from mfk.nested import all_nested_sets


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


def maximal_nested_sets(building) -> list:
    """The nested sets inside no other nested set, in enumeration order."""
    everything = all_nested_sets(building)
    return [s for s in everything if not any(s < t for t in everything)]
