"""Building sets, nested-set complexes and fans, and fan comparisons.

Flats are frozensets of 1-based elements; a nested set is a frozenset of
flats validated against its building set.  Every fan is a ``geometry.Fan``
that decides membership in its own maximal cones, and refinement questions
reduce to that membership for ray generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, permutations

from .bitset import from_mask, popcount, to_mask
from .complexes import SimplicialComplex
from .errors import (InvalidBuildingSet, LoopsPresent, NoMinimalSupport,
                     NotAChain, NotFlats, NotLinearExtension, NotNested)
from .geometry import Cone, Fan, RationalPolytope, _flat_vector, convex_hull
from .lattice import FlatLattice, interval_product_check, irreducible_flats
from .linalg import frac, solve
from .matroid import Matroid


# -- building sets ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BuildingSet:
    """A flat collection inducing product decompositions of lower intervals."""

    lattice: FlatLattice
    members: frozenset[frozenset[int]]

    def member_masks(self) -> list[int]:
        return sorted(to_mask(m) for m in self.members)

    def sorted_members(self) -> list[frozenset[int]]:
        lat = self.lattice
        return sorted(self.members,
                      key=lambda f: (lat.rank_in_lattice(to_mask(f)), sorted(f)))


def building_set_counterexample(lattice: FlatLattice, members):
    """A flat where the interval product property fails, or None."""
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
    witness = building_set_counterexample(lattice, members)
    if witness is not None:
        raise InvalidBuildingSet(
            f"interval product fails at flat {sorted(witness)}")
    return BuildingSet(lattice=lattice,
                       members=frozenset(frozenset(m) for m in members))


def min_building(lattice: FlatLattice) -> BuildingSet:
    """The irreducible flats; the unique minimal building set."""
    return BuildingSet(lattice=lattice,
                       members=frozenset(irreducible_flats(lattice.matroid,
                                                           lattice)))


def max_building(lattice: FlatLattice) -> BuildingSet:
    """All flats of positive rank; the unique maximal building set."""
    members = frozenset(from_mask(f)
                        for level in lattice.by_rank[1:] for f in level)
    return BuildingSet(lattice=lattice, members=members)


# -- nested sets -------------------------------------------------------------------


def _incomparable(a: int, b: int) -> bool:
    return a & ~b != 0 and b & ~a != 0


def _extends(lattice: FlatLattice, member_masks, chosen, new: int) -> bool:
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


def is_nested(building: BuildingSet, subset) -> bool:
    """Antichains of size at least two must join outside the building set."""
    member_masks = set(building.member_masks())
    masks = [to_mask(s) for s in subset]
    return (all(m in member_masks for m in masks)
            and all(_extends(building.lattice, member_masks, masks[:k], m)
                    for k, m in enumerate(masks)))


def all_nested_sets(building: BuildingSet) -> list[frozenset[frozenset[int]]]:
    """Every nested set, the empty one included, in deterministic order."""
    lattice = building.lattice
    member_masks = set(building.member_masks())
    ordered = [to_mask(m) for m in building.sorted_members()]
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


def maximal_nested_sets(building: BuildingSet) -> list[frozenset[frozenset[int]]]:
    """The nested sets with rk L members: the nested set complex is pure
    (Feichtner-Kozlov 2004), so these are exactly the maximal ones."""
    rank = len(building.lattice.by_rank) - 1
    return [s for s in all_nested_sets(building) if len(s) == rank]


def nested_complex(building: BuildingSet) -> SimplicialComplex:
    """The simplicial complex of nested sets on the building set.

    A single loop is refused: its full flat is the bottom flat, so it is
    the one connected matroid whose full flat lies in no nested set.
    """
    matroid = building.lattice.matroid
    if matroid.n == 1 and matroid.rank_d == 0:
        raise LoopsPresent("the full flat of a single loop is its bottom "
                           "flat and lies in no nested set")
    facets = maximal_nested_sets(building)
    vertices = tuple(building.sorted_members())
    return SimplicialComplex.from_faces(vertices, facets)


def nested_complex_reduced(building: BuildingSet) -> SimplicialComplex:
    """Nested sets not containing the full flat."""
    top = building.lattice.matroid.ground
    facets = [s - {top} for s in maximal_nested_sets(building)]
    vertices = tuple(m for m in building.sorted_members() if m != top)
    return SimplicialComplex.from_faces(vertices, facets)


# -- nested fans ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NestedFan(Fan):
    """One simplicial cone per maximal nested set, spanned by flat indicators."""

    matroid: Matroid
    building: BuildingSet
    nested_sets: tuple[frozenset[frozenset[int]], ...]

    @cached_property
    def _free_rays(self) -> frozenset[tuple[int, ...]]:
        """Rays whose coefficients are free in every cone, if any.

        A building set without the full flat has its maximal members in
        every maximal nested set.  When their indicators sum to the
        all-ones vector (no loops), each cone modulo that vector is a
        simplicial cone plus the span of these indicators.
        """
        top = self.building.lattice.top
        masks = set(self.building.member_masks())
        vectors = [_flat_vector(self.n, from_mask(g))
                   for g in _maximal_members_below(masks, top)]
        if top in masks or [sum(c) for c in zip(*vectors)] != [1] * self.n:
            return frozenset()
        return frozenset(vectors)

    @cached_property
    def _ray_supports(self) -> tuple[int, ...]:
        """Per cone, the mask of the coordinates some ray is nonzero on."""
        return tuple(sum(1 << j for j in range(self.n)
                         if any(r[j] for r in cone.rays))
                     for cone in self.cones)

    def contains(self, vec) -> bool:
        """Support membership, asking only the cones whose rays cover every
        coordinate above the minimum of vec."""
        above = _above_minimum(vec)[1]
        return any(self.cone_contains(i, vec)
                   for i, support in enumerate(self._ray_supports)
                   if above & ~support == 0)

    def cone_contains(self, i: int, vec) -> bool:
        """Exact membership in the i-th cone, by one linear solve.

        The columns are the rays, then the all-ones vector (no pivot when
        ``_free_rays`` sum to it); the coefficients must be nonnegative on
        every ray that is not free.  Most cones are ruled out first: modulo
        the all-ones vector, a point of the cone takes its minimum at every
        coordinate its rays miss.
        """
        w, above = _above_minimum(vec)
        if above & ~self._ray_supports[i]:
            return False
        cone = self.cones[i]
        free = self._free_rays
        solution = solve(list(zip(*cone.rays, (1,) * len(w))), w)
        return (solution is not None
                and all(c >= 0 for c, r in zip(solution, cone.rays)
                        if r not in free))


def _above_minimum(vec) -> tuple[list, int]:
    """The weight with exact entries, and the mask of its coordinates
    above its minimum."""
    w = [x if isinstance(x, int) else frac(x) for x in vec]
    low = min(w, default=0)
    return w, sum(1 << j for j, x in enumerate(w) if x != low)


def nested_fan(matroid: Matroid, building: BuildingSet) -> NestedFan:
    """Cone over the nested-set complex, one cone per maximal nested set."""
    sets = maximal_nested_sets(building)
    key = lambda s: sorted((len(f), sorted(f)) for f in s)
    sets = sorted(sets, key=key)
    cones = tuple(Cone.over([_flat_vector(matroid.n, f) for f in s])
                  for s in sets)
    return NestedFan(n=matroid.n, cones=cones, matroid=matroid,
                     building=building, nested_sets=tuple(sets))


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


@dataclass(frozen=True)
class FanComparison:
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


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    witness: tuple[frozenset[int], frozenset[int]] | None


def fans_equal_condition(matroid: Matroid,
                         lattice: FlatLattice | None = None) -> ConditionReport:
    """Is every minor (M|Y)/X with Y irreducible and X < Y connected?

    Exactly when this holds, the minimal nested-set fan equals the coarse
    Bergman fan.
    """
    lattice = lattice or FlatLattice(matroid)
    irr = sorted(irreducible_flats(matroid, lattice),
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


# -- nested set structure ------------------------------------------------------------


def _validate_nested_input(building: BuildingSet, subset) -> None:
    if not is_nested(building, subset):
        raise NotNested(f"{sorted(map(sorted, subset))} is not a nested set "
                        "of the building set")


def blocks_partition(building: BuildingSet, nested_set,
                     extension=None) -> list[frozenset[int]]:
    """Difference blocks of successive joins along a linear extension.

    The blocks do not depend on the chosen extension as a set family.
    """
    lattice = building.lattice
    _validate_nested_input(building, nested_set)
    members = list(nested_set)
    if extension is None:
        extension = sorted(members,
                           key=lambda f: (lattice.rank_in_lattice(to_mask(f)),
                                          sorted(f)))
    ext = [frozenset(x) for x in extension]
    if sorted(map(sorted, ext)) != sorted(map(sorted, members)):
        raise NotLinearExtension("extension must list the nested set exactly")
    masks = [to_mask(x) for x in ext]
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if b != a and b & ~a == 0:
                raise NotLinearExtension(
                    f"{sorted(from_mask(b))} listed after a superset")
    blocks = []
    join = 0
    for m in masks:
        new_join = lattice.join_mask(join, m)
        blocks.append(from_mask(new_join & ~join))
        join = new_join
    return blocks


@dataclass(frozen=True)
class NestedChainData:
    """Per-element chains S_i with their minima, plus Lemma-style indices."""

    chains: dict
    minima: dict
    min_support_index: dict


def nested_chain_helpers(building: BuildingSet, nested_set) -> NestedChainData:
    """The sets S_i = {X in S : i in X} as chains, and minimal-support data.

    ``min_support_index`` maps each building member G to the least element
    i of G whose family S_i lies in every S_j, j in G.
    """
    lattice = building.lattice
    _validate_nested_input(building, nested_set)
    n = lattice.matroid.n
    support: dict[int, list[frozenset[int]]] = {}
    for i in range(1, n + 1):
        si = [x for x in nested_set if i in x]
        si.sort(key=len)
        for a, b in zip(si, si[1:]):
            if not a < b:
                raise NotAChain(f"S_{i} is not a chain: {sorted(a)} and "
                                f"{sorted(b)} both contain {i}")
        if si:
            support[i] = si
    minima = {i: si[0] for i, si in support.items()}
    # the minimal support family is unique inside every building member;
    # other flats may have several
    members = set(building.member_masks())
    min_index: dict[frozenset[int], int] = {}
    for fmask in lattice.flat_masks:
        if not fmask or fmask not in members:
            continue
        flat = from_mask(fmask)
        families = {i: frozenset(support.get(i, [])) for i in flat}
        i0 = min(flat, key=lambda i: (len(families[i]), i))
        if not all(families[i0] <= families[i] for i in flat):
            raise NoMinimalSupport(
                f"no unique minimal support family inside {sorted(flat)}")
        min_index[flat] = i0
    return NestedChainData(chains=support, minima=minima,
                           min_support_index=min_index)


def chain_to_nested(building: BuildingSet, chain):
    """Canonical nested set and extension whose prefix joins give the chain.

    Each chain element contributes all maximal building elements below it.
    """
    lattice = building.lattice
    masks = [to_mask(c) for c in chain]
    if not masks or masks[-1] != lattice.top:
        raise NotAChain("chain must end at the full ground set")
    for a, b in zip(masks, masks[1:]):
        if not (a != b and a & ~b == 0):
            raise NotAChain("chain must be strictly increasing")
    if not all(map(lattice.is_flat_mask, masks)):
        raise NotFlats("chain entries must be flats")
    member_masks = set(building.member_masks())
    extension: list[int] = []
    for fmask in masks:
        maximal = sorted(_maximal_members_below(member_masks, fmask),
                         key=lambda m: (popcount(m), sorted(from_mask(m))))
        for g in maximal:
            if g not in extension:
                extension.append(g)
    join = 0
    prefix_joins = set()
    for g in extension:
        join = lattice.join_mask(join, g)
        prefix_joins.add(join)
    if not prefix_joins.issuperset(masks):
        raise InvalidBuildingSet("the prefix joins of the building members "
                                 "below the chain miss one of its flats")
    return (frozenset(from_mask(g) for g in extension),
            tuple(from_mask(g) for g in extension))


# -- weight polytopes -----------------------------------------------------------------


def dcp_weight_polytope(matroid: Matroid,
                        building: BuildingSet) -> RationalPolytope:
    """Minkowski sum of the coordinate simplices of the building set: the
    hull of its vertices, the sums over G of e_i, i the first element of G
    in an order of [n], one per order (Postnikov 2009, section 6)."""
    n = matroid.n
    vertices = set()
    for order in permutations(range(1, n + 1)):
        vertex = [0] * n
        for flat in building.members:
            vertex[next(i for i in order if i in flat) - 1] += 1
        vertices.add(tuple(vertex))
    return convex_hull(vertices)


def dcp_normal_refinement_check(matroid: Matroid, building: BuildingSet,
                                fan: NestedFan | None = None) -> bool:
    """Each nested cone selects constant argmin sets on every member simplex.

    This is the executable form of the containment of the nested fan in the
    normal fan of the weight polytope.
    """
    fan = fan or nested_fan(matroid, building)
    n = matroid.n
    for nested in fan.nested_sets:
        support: dict[int, frozenset] = {}
        for i in range(1, n + 1):
            support[i] = frozenset(x for x in nested if i in x)
        coefficient_choices = [
            {x: 1 + k for k, x in enumerate(sorted(nested, key=sorted))},
            {x: 7 + 3 * k for k, x in enumerate(sorted(nested, key=sorted))},
        ]
        for flat in building.members:
            i0 = min(flat, key=lambda i: (len(support[i]), i))
            if not all(support[i0] <= support[i] for i in flat):
                return False
            predicted = {i for i in flat if support[i] == support[i0]}
            for coeffs in coefficient_choices:
                weights = [sum(c for x, c in coeffs.items() if i in x)
                           for i in range(1, n + 1)]
                low = min(weights[i - 1] for i in flat)
                argmin = {i for i in flat if weights[i - 1] == low}
                if argmin != predicted:
                    return False
    return True
