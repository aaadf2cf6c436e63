"""Minkowski sums by hulls of vertex sums: the differential oracle for
``nested.dcp_weight_polytope``.

``dcp_weight_polytope`` once chained one ``minkowski_sum`` per member of
the building set, each a brute-force ``convex_hull`` of all pairwise
vertex sums.  It now hulls the vertices Σ_G e_{min G} over the orders of
[n] once; the chain stays here only to check that.
"""

from __future__ import annotations

from fractions import Fraction

from mfk.errors import DimensionMismatch
from mfk.geometry import RationalPolytope, convex_hull


def minkowski_sum(p1: RationalPolytope, p2: RationalPolytope) -> RationalPolytope:
    """Hull of pairwise vertex sums."""
    if p1.ambient != p2.ambient:
        raise DimensionMismatch(
            f"ambient dimensions {p1.ambient} and {p2.ambient} differ")
    sums = [tuple(a + b for a, b in zip(v, w))
            for v in p1.vertices for w in p2.vertices]
    return convex_hull(sums)


def dcp_weight_polytope(building) -> RationalPolytope:
    """Minkowski sum of the coordinate simplices of the building set, one
    member at a time."""
    n = building.lattice.matroid.n
    total = None
    for flat in building.sorted_members():
        simplex = convex_hull(
            [tuple(Fraction(1 if j == i else 0) for j in range(1, n + 1))
             for i in sorted(flat)])
        total = simplex if total is None else minkowski_sum(total, simplex)
    return total
