"""Building sets, nested sets and their fans, and fan comparisons.

Flats are frozensets of 1-based elements; a nested set is a frozenset of
flats validated against its building set.  Every fan is a ``geometry.Fan``
that decides membership in its own maximal cones, and refinement questions
reduce to that membership for ray generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import permutations, product
from typing import NamedTuple

from .bitset import from_mask, full_mask, iter_bits, popcount, to_mask
from .errors import InvalidBuildingSet, ParameterOutOfRange
from .geometry import (Cone, Fan, RationalPolytope, _flat_vector, convex_hull,
                       quotient_ray)
from .lattice import FlatLattice, interval_product_check, irreducible_flats
from .linalg import frac
from .polytope import require_weight_length


# -- building sets ---------------------------------------------------------------


class BuildingSet:
    """A flat collection inducing product decompositions of lower intervals."""

    def __init__(self, lattice: FlatLattice,
                 members: frozenset[frozenset[int]]):
        self.lattice = lattice
        self.members = members

    def member_masks(self) -> list[int]:
        return sorted(to_mask(m) for m in self.members)

    def sorted_members(self) -> list[frozenset[int]]:
        lat = self.lattice
        return sorted(self.members,
                      key=lambda f: (lat.rank_in_lattice(to_mask(f)), sorted(f)))


def building_set_counterexample(lattice: FlatLattice, members):
    """A member outside the ground set or not a flat, or a flat where the
    interval product property fails, or None."""
    members = [frozenset(m) for m in members]
    ground = lattice.matroid.ground
    outside = next((m for m in members if not m <= ground), None)
    if outside is not None:
        return outside
    member_masks = {to_mask(m) for m in members}
    bottom = lattice.bottom
    if bottom in member_masks:
        return from_mask(bottom)
    bad = next((m for m in member_masks if not lattice.is_flat_mask(m)), None)
    if bad is not None:
        return from_mask(bad)
    for flat in lattice.flat_masks:
        if flat == bottom:
            continue
        maximal = _maximal_members_below(member_masks, flat)
        if not interval_product_check(lattice, from_mask(flat),
                                      [from_mask(g) for g in maximal]):
            return from_mask(flat)
    return None


def _maximal_members_below(member_masks, flat: int) -> list[int]:
    """Building members inside the flat that lie in no other such member."""
    inside = [g for g in member_masks if g & ~flat == 0]
    return [g for g in inside
            if not any(h != g and g & ~h == 0 for h in inside)]


def is_building_set(lattice: FlatLattice, members) -> bool:
    return building_set_counterexample(lattice, members) is None


def building_set(lattice: FlatLattice, members) -> BuildingSet:
    """The validated building set; an element outside [n] is out of range,
    and a member that is not a flat is named as such."""
    members = [frozenset(m) for m in members]
    witness = building_set_counterexample(lattice, members)
    if witness is None:
        return BuildingSet(lattice=lattice, members=frozenset(members))
    if not witness <= lattice.matroid.ground:
        raise ParameterOutOfRange(
            f"member {sorted(witness)} not inside [{lattice.matroid.n}]")
    if not lattice.is_flat_mask(to_mask(witness)):
        raise InvalidBuildingSet(f"member {sorted(witness)} is not a flat")
    raise InvalidBuildingSet(
        f"interval product fails at flat {sorted(witness)}")


def min_building(lattice: FlatLattice) -> BuildingSet:
    """The irreducible flats; the unique minimal building set."""
    return BuildingSet(lattice=lattice,
                       members=frozenset(irreducible_flats(lattice)))


def max_building(lattice: FlatLattice) -> BuildingSet:
    """All flats of positive rank; the unique maximal building set."""
    members = frozenset(from_mask(f)
                        for level in lattice.by_rank[1:] for f in level)
    return BuildingSet(lattice=lattice, members=members)


# -- nested sets -------------------------------------------------------------------


def is_nested(building: BuildingSet, subset) -> bool:
    """Is the subset inside a maximal nested set?  The nested set complex
    is closed under subsets and pure, so that is being nested."""
    chosen = frozenset(map(frozenset, subset))
    return any(chosen <= s for s in maximal_nested_sets(building))


def maximal_nested_sets(building: BuildingSet) -> list[frozenset[frozenset[int]]]:
    """The maximal nested sets, in the order of their members' positions
    in ``building.sorted_members()``.

    One below a flat X picks, for each maximal member G inside X, G and a
    maximal nested set below a flat that G covers; the choices for the G
    are independent (Feichtner-Kozlov 2004).  Below the bottom there is
    only the empty set.
    """
    lattice = building.lattice
    ordered = [to_mask(m) for m in building.sorted_members()]
    lower_covers: dict[int, list[int]] = {}
    for f, g in lattice.cover_pairs:
        lower_covers.setdefault(g, []).append(f)

    @cache
    def below(x: int) -> list[tuple[int, ...]]:
        if x == lattice.bottom:
            return [()]
        choices = [[(g, *s) for h in lower_covers[g] for s in below(h)]
                   for g in _maximal_members_below(ordered, x)]
        return [sum(parts, ()) for parts in product(*choices)]

    position = {g: k for k, g in enumerate(ordered)}
    found = sorted(sorted(map(position.__getitem__, s))
                   for s in below(lattice.top))
    return [frozenset(from_mask(ordered[k]) for k in s) for s in found]


# -- nested fans ------------------------------------------------------------------


class NestedFan(Fan):
    """One simplicial cone per maximal nested set, spanned by flat indicators."""

    def __init__(self, n: int, cones: tuple[Cone, ...], building: BuildingSet,
                 nested_sets: tuple[frozenset[frozenset[int]], ...]):
        super().__init__(n, cones)
        self.building = building
        self.nested_sets = nested_sets

    @cached_property
    def _forests(self) -> tuple[tuple[int, tuple], ...]:
        """Per cone, its nested set as a forest (incomparable members meet in
        the loops only, or their join would be a building member): the mask
        of the root part, the non-loops in no member but the full flat, and,
        parents first, each member's private part (its indices in none of its
        children) with its parent (None for a root)."""
        bottom, top = self.building.lattice.bottom, self.building.lattice.top
        forests = []
        for nested in self.nested_sets:
            members = sorted((to_mask(g) & ~bottom for g in nested
                              if to_mask(g) != top),
                             key=popcount, reverse=True)
            root = full_mask(self.n) & ~bottom
            private, parents = members[:], []
            for k, g in enumerate(members):
                parent = next((p for p in reversed(range(k))
                               if g & ~members[p] == 0), None)
                if parent is None:
                    root &= ~g
                else:
                    private[parent] &= ~g
                parents.append(parent)
            forests.append((root, tuple(zip(map(_indices, private), parents))))
        return tuple(forests)

    def contains(self, vec) -> bool:
        """Support membership; ``w`` is read once, and a cone whose root
        part misses its minimum is passed over without a call."""
        w, low, at_min = self._point(vec)
        return any(self._holds(forest, w, low, at_min)
                   for forest in self._forests if not forest[0] & ~at_min)

    def cone_contains(self, i: int, vec) -> bool:
        """Exact membership in the i-th cone, read off its forest."""
        return self._holds(self._forests[i], *self._point(vec))

    def _point(self, vec) -> tuple[list, object, int]:
        """The weight with exact entries, its minimum and the mask of the
        coordinates at the minimum; a weight of another length is refused."""
        require_weight_length(self.building.lattice.matroid, vec)
        w = [x if type(x) is int else frac(x) for x in vec]
        low = min(w, default=0)
        return w, low, sum(1 << j for j, x in enumerate(w) if x == low)

    def _holds(self, forest, w, low, at_min: int) -> bool:
        """Is ``w = λ·1 + Σ c_G 1_G`` with every ``c_G >= 0``?  Exactly when
        the root part takes the minimum λ of ``w``, ``w`` is constant on each
        private part, each ``c_G = w(P_G) - w(P_parent)`` is nonnegative (a
        root's parent value being λ), and each loop coordinate, lying in
        every member, is λ + Σ c_G.  With an empty root part the loops fix
        λ; with no loops either, the roots' coefficients are free."""
        root, members = forest
        if root & ~at_min:
            return False
        levels, total = [], 0
        for part, parent in members:
            level = w[part[0]]
            if any(w[j] != level for j in part):
                return False
            if parent is not None:
                if level < levels[parent]:
                    return False
                total -= levels[parent]
            levels.append(level)
            total += level
        loops = _indices(self.building.lattice.bottom)
        if not loops:
            return True
        # Σ c_G = total - r·λ over the r roots; with the root part empty,
        # r != 1, for a single root would be the full flat
        roots = [x for x, (_, p) in zip(levels, members) if p is None]
        top, r = w[loops[0]], len(roots)
        lam = low if root else Fraction(total - top, r - 1)
        return (all(w[j] == top for j in loops)
                and all(x >= lam for x in roots)
                and top == total - (r - 1) * lam)


def _indices(mask: int) -> tuple[int, ...]:
    """0-based positions of the set bits of a mask."""
    return tuple(e - 1 for e in iter_bits(mask))


def nested_fan(building: BuildingSet) -> NestedFan:
    """Cone over the nested-set complex, one cone per maximal nested set.

    Each member's ray is built once; the member whose indicator is
    constant (the ground set) is zero in the quotient and spans no ray.
    """
    n = building.lattice.matroid.n
    sets = maximal_nested_sets(building)
    key = lambda s: sorted((len(f), sorted(f)) for f in s)
    sets = sorted(sets, key=key)
    ray_of = {}
    for member in building.members:
        ray = quotient_ray(_flat_vector(n, member))
        if any(ray):
            ray_of[member] = ray
    cones = tuple(
        Cone(rays=tuple(sorted({ray_of[f] for f in s if f in ray_of})))
        for s in sets)
    return NestedFan(n=n, cones=cones, building=building,
                     nested_sets=tuple(sets))


# -- fan comparison ----------------------------------------------------------------


def _uncovered_cone(fan_a: Fan, fan_b: Fan) -> Cone | None:
    """First maximal cone of fan_a inside no single maximal cone of fan_b.

    A cone lies inside another exactly when all its rays do; fan_b decides
    each (cone, ray) membership once, by its own rule.
    """
    inside = cache(fan_b.cone_contains)
    for cone in fan_a.cones:
        if not any(all(inside(j, r) for r in cone.rays)
                   for j in range(len(fan_b.cones))):
            return cone
    return None


def refines(fan_a: Fan, fan_b: Fan) -> bool:
    """Is every maximal cone of fan_a inside some single cone of fan_b?"""
    return _uncovered_cone(fan_a, fan_b) is None


def supports_equal_on_generators(fan_a: Fan, fan_b: Fan) -> bool:
    """Symmetric containment of all ray generators in the opposite support."""
    return (all(fan_b.contains(r) for r in fan_a.rays())
            and all(fan_a.contains(r) for r in fan_b.rays()))


class FanComparison(NamedTuple):
    refines_ab: bool
    refines_ba: bool
    equal: bool
    witness: str | None


def compare_fans(fan_a: Fan, fan_b: Fan) -> FanComparison:
    """Refinement both ways; the witness is the first uncovered cone."""
    uncovered_ab = _uncovered_cone(fan_a, fan_b)
    uncovered_ba = _uncovered_cone(fan_b, fan_a)
    witness = None
    for cone, direction in ((uncovered_ab, "a into b"),
                            (uncovered_ba, "b into a")):
        if cone is not None:
            witness = (f"cone with rays {list(cone.rays)} "
                       f"not contained ({direction})")
            break
    return FanComparison(refines_ab=uncovered_ab is None,
                         refines_ba=uncovered_ba is None,
                         equal=uncovered_ab is None and uncovered_ba is None,
                         witness=witness)


class ConditionReport(NamedTuple):
    holds: bool
    witness: tuple[frozenset[int], frozenset[int]] | None


def fans_equal_condition(lattice: FlatLattice) -> ConditionReport:
    """Is every minor (M|Y)/X with Y irreducible and X < Y connected?

    Exactly when this holds, the minimal nested-set fan equals the coarse
    Bergman fan.
    """
    irr = sorted(irreducible_flats(lattice),
                 key=lambda f: (len(f), sorted(f)))
    for y in irr:
        ymask = to_mask(y)
        xs = sorted((f for f in lattice.flat_masks
                     if f & ~ymask == 0 and f != ymask),
                    key=lambda m: (popcount(m), sorted(from_mask(m))))
        for xmask in xs:
            if not lattice.is_connected_minor(xmask, ymask):
                return ConditionReport(holds=False,
                                       witness=(from_mask(xmask), y))
    return ConditionReport(holds=True, witness=None)


# -- weight polytopes -----------------------------------------------------------------


def dcp_weight_polytope(building: BuildingSet) -> RationalPolytope:
    """Minkowski sum of the coordinate simplices of the building set: the
    hull of its vertices, the sums over G of e_i, i the first element of G
    in an order of [n], one per order (Postnikov 2009, section 6)."""
    n = building.lattice.matroid.n
    vertices = set()
    for order in permutations(range(1, n + 1)):
        vertex = [0] * n
        for flat in building.members:
            vertex[next(i for i in order if i in flat) - 1] += 1
        vertices.add(tuple(vertex))
    return convex_hull(vertices)
