"""Building sets, nested sets and their fans, and fan comparisons.

A building set keeps its member flats as masks in one order, and a nested
set is the ascending positions of its members in that order.  Every fan is
a ``geometry.Fan`` that names the maximal cones holding a weight, and
refinement questions reduce to that one query, asked once per ray
generator.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import permutations, product
from typing import NamedTuple

from .bitset import from_mask, iter_bits, popcount, to_mask
from .errors import (DimensionMismatch, InvalidBuildingSet, MfkError,
                     ParameterOutOfRange)
from .geometry import Fan, RationalPolytope, _flat_vector, convex_hull
from .lattice import FlatLattice, interval_product_check, irreducible_flats
from .linalg import frac
from .polytope import require_weight_length


# -- building sets ---------------------------------------------------------------


class BuildingSet:
    """A flat collection inducing product decompositions of lower intervals.

    ``members`` holds the member masks by size and then by elements, and
    ``position`` maps each to its index there.  The constructor takes sets
    of elements and refuses, naming it as the refusal's ``witness``, the
    first member outside [n], then the bottom flat as a member, then a
    member that is not a flat, then a flat whose interval product fails.
    """

    def __init__(self, lattice: FlatLattice, members):
        self.lattice = lattice
        members = [frozenset(m) for m in members]
        outside = next((m for m in members
                        if not m <= lattice.matroid.ground), None)
        if outside is not None:
            raise _carrying(outside, ParameterOutOfRange(
                f"member {sorted(outside)} not inside [{lattice.matroid.n}]"))
        masks = {to_mask(m) for m in members}
        bad = next((m for m in masks if not lattice.is_flat_mask(m)), None)
        if bad is not None and lattice.bottom not in masks:
            raise _carrying(from_mask(bad), InvalidBuildingSet(
                f"member {sorted(from_mask(bad))} is not a flat"))
        self.members = tuple(sorted(masks, key=_size_then_elements))
        self.position = {g: k for k, g in enumerate(self.members)}
        self._factors: dict[int, tuple[int, ...]] = {}
        bottom = lattice.bottom
        for flat in lattice.flat_masks:  # F(bottom) = () passes, a member not
            parts, x = self.factors(flat), from_mask(flat)
            if (flat == bottom and parts) or not interval_product_check(
                    lattice, x, [from_mask(g) for g in parts]):
                raise _carrying(x, InvalidBuildingSet(
                    f"interval product fails at flat {sorted(x)}"))

    def sorted_members(self) -> list[frozenset[int]]:
        """The members as sets of elements, in the order of ``members``."""
        return [from_mask(g) for g in self.members]

    def factors(self, flat: int) -> tuple[int, ...]:
        """F(X) for the flat mask X: the members inside X that lie in no
        other such member, as ascending masks; ``(X,)`` for a member X.
        Each flat's answer is found by one scan and kept."""
        if flat in self.position:
            return (flat,)
        found = self._factors.get(flat)
        if found is None:
            inside = [g for g in self.members if g & ~flat == 0]
            found = self._factors[flat] = tuple(sorted(
                g for g in inside
                if not any(h != g and g & ~h == 0 for h in inside)))
        return found


def _size_then_elements(mask: int) -> tuple[int, tuple[int, ...]]:
    return popcount(mask), tuple(iter_bits(mask))


def _carrying(witness: frozenset[int], refusal: MfkError) -> MfkError:
    refusal.witness = witness
    return refusal


def building_set_counterexample(lattice: FlatLattice, members):
    """The member outside the ground set or not a flat, or the flat where
    the interval product property fails, for which ``BuildingSet`` refuses
    the members; None when it takes them."""
    try:
        BuildingSet(lattice, members)
    except (ParameterOutOfRange, InvalidBuildingSet) as refusal:
        return refusal.witness
    return None


def is_building_set(lattice: FlatLattice, members) -> bool:
    return building_set_counterexample(lattice, members) is None


def min_building(lattice: FlatLattice) -> BuildingSet:
    """The irreducible flats; the unique minimal building set."""
    return BuildingSet(lattice, irreducible_flats(lattice))


def max_building(lattice: FlatLattice) -> BuildingSet:
    """All flats of positive rank; the unique maximal building set."""
    return BuildingSet(lattice, (from_mask(f) for level in lattice.by_rank[1:]
                                 for f in level))


# -- nested sets -------------------------------------------------------------------


def is_nested(building: BuildingSet, subset) -> bool:
    """Is the subset a nested set of the building set?  Exactly when, below
    each chosen member and below the full flat, the maximal chosen members
    are F(X) for their union X, a flat (Feichtner-Kozlov 2004)."""
    lattice = building.lattice
    masks = {lattice.flat_mask(g) for g in subset}
    if not masks <= building.position.keys():
        return False
    for upper in {*masks, lattice.top}:
        inside = [g for g in masks if g != upper and g & ~upper == 0]
        maximal = [g for g in inside
                   if not any(h != g and g & ~h == 0 for h in inside)]
        union = lattice.bottom
        for g in maximal:
            union |= g
        if not (lattice.is_flat_mask(union)
                and tuple(sorted(maximal)) == building.factors(union)):
            return False
    return True


def maximal_nested_sets(building: BuildingSet) -> list[tuple[int, ...]]:
    """The maximal nested sets, each as the ascending positions of its
    members in ``building.members``, in lexicographic order.

    One below a flat X picks, for each G in F(X), G and a maximal nested
    set below a flat that G covers; the choices for the G are independent
    (Feichtner-Kozlov 2004).  Below the bottom there is only the empty set.
    """
    lattice, position = building.lattice, building.position

    @cache
    def below(x: int) -> list[tuple[int, ...]]:
        if x == lattice.bottom:
            return [()]
        choices = [[(position[g], *s) for h in lattice.lower_covers(g)
                    for s in below(h)]
                   for g in building.factors(x)]
        return [sum(parts, ()) for parts in product(*choices)]

    return sorted(tuple(sorted(s)) for s in below(lattice.top))


# -- nested fans ------------------------------------------------------------------


class NestedFan(Fan):
    """One simplicial cone per maximal nested set, spanned by flat indicators.

    ``nested_sets[i]`` is the nested set of ``cones[i]``, as the ascending
    positions of its members in ``building.members``.
    """

    def __init__(self, n: int, rays: tuple[tuple[int, ...], ...],
                 cones: tuple[tuple[int, ...], ...], building: BuildingSet,
                 nested_sets: tuple[tuple[int, ...], ...]):
        super().__init__(n, rays, cones)
        self.building = building
        self.nested_sets = nested_sets

    def contains(self, vec) -> bool:
        """Support membership: every superlevel set of ``w`` is a flat, and
        the loops take no surplus that the roots cannot absorb."""
        return self._flag_nested(vec) is not None

    def cones_containing(self, vec) -> frozenset[int]:
        """The cones holding ``w``: those whose nested set holds N(w)."""
        nested = self._flag_nested(vec)
        if nested is None:
            return frozenset()
        every, holders = self._cone_index
        return every.intersection(*map(holders.__getitem__, nested))

    @cached_property
    def _cone_index(self) -> tuple[frozenset[int], list[set[int]]]:
        """Every cone, and the cones whose nested set holds each member
        position; built on the first query."""
        holders = [set() for _ in self.building.members]
        for i, s in enumerate(self.nested_sets):
            for k in s:
                holders[k].add(i)
        return frozenset(range(len(self.nested_sets))), holders

    def _flag_nested(self, vec) -> set[int] | None:
        """N(w), the union of F(X_j) over the superlevel sets X_j of ``w``
        as member positions, or None when ``w`` lies outside the support;
        ``w`` lies in a cone exactly when N(w) lies in its nested set.

        With a_1 > ... > a_k the values of ``w``, every X_j must be a flat,
        and ``w = a_k·1 + Σ_G c_G 1_G - D·1_L`` with c_G >= 0, L the loops
        and D = Σ_{j<k} (a_j - a_{j+1})(|F(X_j)| - 1), since each
        ``1_X = Σ_{G in F(X)} 1_G - (|F(X)| - 1)·1_L``.  Only the relation
        ``Σ_R 1_r = 1 + (|R| - 1)·1_L`` over the roots R = F(E) absorbs
        D != 0: it takes D/(|R| - 1) from each root's coefficient
        c_r = min_r w - a_k, and the root holding the minimum of ``w`` has
        c_r = 0.  So D > 0 is outside, and D < 0 needs two roots.  A weight
        of another length is refused.
        """
        lattice, factors = self.building.lattice, self.building.factors
        require_weight_length(lattice.matroid, vec)
        w = [x if type(x) is int else frac(x) for x in vec]
        nested: set[int] = set()
        surplus, flat, previous = 0, 0, None
        for j in sorted(range(len(w)), key=w.__getitem__, reverse=True):
            if flat and w[j] != previous:
                # flat is the superlevel set of the value just passed
                if not lattice.is_flat_mask(flat):
                    return None
                parts = factors(flat)
                nested.update(parts)
                surplus += (previous - w[j]) * (len(parts) - 1)
            flat |= 1 << j
            previous = w[j]
        nested.update(factors(flat))
        if lattice.bottom and surplus and (
                surplus > 0 or len(factors(lattice.top)) < 2):
            return None
        return set(map(self.building.position.__getitem__, nested))


def nested_fan(building: BuildingSet) -> NestedFan:
    """Cone over the nested-set complex, one cone per maximal nested set,
    in the order of ``maximal_nested_sets``.

    Each member's ray, its indicator, is built once; the member whose
    indicator is constant (the ground set) is zero in the quotient and
    spans no ray.  Every other indicator has a 0 and a 1, so it is already
    primitive, and distinct members give distinct rays.
    """
    n = building.lattice.matroid.n
    sets = maximal_nested_sets(building)
    ground = building.position.get(building.lattice.top)
    ray = {k: _flat_vector(n, g) for k, g in enumerate(building.members)
           if k != ground}
    order = sorted(ray, key=ray.__getitem__)
    index = dict(zip(order, range(len(order))))
    cones = tuple(tuple(sorted([index[k] for k in s if k != ground]))
                  for s in sets)
    return NestedFan(n=n, rays=tuple(map(ray.__getitem__, order)),
                     cones=cones, building=building, nested_sets=tuple(sets))


# -- fan comparison ----------------------------------------------------------------


def _require_same_ground(fan_a: Fan, fan_b: Fan) -> None:
    if fan_a.n != fan_b.n:
        raise DimensionMismatch(
            f"fans on {fan_a.n} and {fan_b.n} elements cannot be compared")


def _uncovered_cone(fan_a: Fan, fan_b: Fan) -> list[tuple[int, ...]] | None:
    """The rays of the first maximal cone of fan_a inside no single
    maximal cone of fan_b.

    A cone lies inside another exactly when all its rays do: it is covered
    when the cones of fan_b holding its rays, each ray asked once, meet.
    """
    _require_same_ground(fan_a, fan_b)
    holders = [fan_b.cones_containing(r) for r in fan_a.rays]
    every = frozenset(range(len(fan_b.cones)))
    for cone in fan_a.cones:
        if not every.intersection(*map(holders.__getitem__, cone)):
            return [fan_a.rays[i] for i in cone]
    return None


def refines(fan_a: Fan, fan_b: Fan) -> bool:
    """Is every maximal cone of fan_a inside some single cone of fan_b?"""
    return _uncovered_cone(fan_a, fan_b) is None


def supports_equal_on_generators(fan_a: Fan, fan_b: Fan) -> bool:
    """Symmetric containment of all ray generators in the opposite support."""
    _require_same_ground(fan_a, fan_b)
    return (all(fan_b.contains(r) for r in fan_a.rays)
            and all(fan_a.contains(r) for r in fan_b.rays))


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
    for rays, direction in ((uncovered_ab, "a into b"),
                            (uncovered_ba, "b into a")):
        if rays is not None:
            witness = f"cone with rays {rays} not contained ({direction})"
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
    for ymask in min_building(lattice).members:
        xs = sorted((f for f in lattice.flat_masks
                     if f & ~ymask == 0 and f != ymask),
                    key=_size_then_elements)
        for xmask in xs:
            if not lattice.is_connected_minor(xmask, ymask):
                return ConditionReport(holds=False, witness=(
                    from_mask(xmask), from_mask(ymask)))
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
            vertex[next(i for i in order if flat >> i - 1 & 1) - 1] += 1
        vertices.add(tuple(vertex))
    return convex_hull(vertices)
