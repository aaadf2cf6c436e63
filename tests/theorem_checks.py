"""Executable forms of the notes' theorems and constructions, checked by
the tests.

Three take the structure a theorem speaks about and answer True when the
theorem's statement holds on it:

* ``dual_reflection_check``: the polytope of M* is the reflection 1 - x of
  the polytope of M, vertex by vertex;
* ``check_prop_grob``: the degeneration matroid of a weight is the matroid
  of the initial subspace of the realization;
* ``dcp_normal_refinement_check``: the nested fan refines the normal fan of
  De Concini–Procesi's weight polytope.

The rest restate the nested-set lemmas and build the nested set complex;
no subcommand needs them.  Their refusals are ``ValueError``s:

* ``blocks_partition``: the difference blocks of successive joins along a
  linear extension of a nested set;
* ``nested_chain_helpers``: the chains S_i of a nested set and the index of
  the minimal support family inside each building member;
* ``maximal_members_below``: the building members inside a flat that lie
  in no other, by a scan of their own (the oracle of
  ``BuildingSet.factors``);
* ``chain_to_nested``: the canonical nested set whose prefix joins give a
  chain of flats;
* ``nested_complex`` and ``nested_complex_reduced``: the simplicial complex
  of nested sets, with and without the full flat.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from mfk.bergman import initial_subspace
from mfk.bitset import from_mask, popcount, to_mask
from mfk.complexes import SimplicialComplex
from mfk.errors import InvalidBuildingSet, LoopsPresent, NotFlats
from mfk.linalg import frac
from mfk.matroid import LinearRealization, Matroid
from mfk.nested import BuildingSet, NestedFan, is_nested, maximal_nested_sets
from mfk.polytope import degeneration, indicator_vertex


def dual_reflection_check(matroid: Matroid) -> bool:
    """Vertexwise identity between the dual polytope and the reflected one."""
    dual_vertices = {indicator_vertex(matroid.n, b)
                     for b in matroid.dual().bases}
    reflected = {tuple(Fraction(1) - x for x in indicator_vertex(matroid.n, b))
                 for b in matroid.bases}
    return dual_vertices == reflected


def check_prop_grob(realization: LinearRealization, u) -> bool:
    """Degeneration matroid equals the matroid of the initial subspace."""
    limit = initial_subspace(realization, u)
    expected = degeneration(realization.matroid, [frac(x) for x in u]).matroid_u
    return limit.matroid == expected


def dcp_normal_refinement_check(fan: NestedFan) -> bool:
    """Each nested cone selects constant argmin sets on every member simplex.

    This is the executable form of the containment of the nested fan in the
    normal fan of the weight polytope.
    """
    n = fan.n
    members = fan.building.sorted_members()
    for positions in fan.nested_sets:
        nested = [members[k] for k in positions]
        support: dict[int, frozenset] = {}
        for i in range(1, n + 1):
            support[i] = frozenset(x for x in nested if i in x)
        coefficient_choices = [
            {x: 1 + k for k, x in enumerate(sorted(nested, key=sorted))},
            {x: 7 + 3 * k for k, x in enumerate(sorted(nested, key=sorted))},
        ]
        for flat in members:
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


# -- the nested set complex -----------------------------------------------------


def nested_complex(building: BuildingSet) -> SimplicialComplex:
    """The simplicial complex of nested sets on the building set.

    A single loop is refused: its full flat is the bottom flat, so it is
    the one connected matroid whose full flat lies in no nested set.
    """
    matroid = building.lattice.matroid
    if matroid.n == 1 and matroid.rank_d == 0:
        raise LoopsPresent("the full flat of a single loop is its bottom "
                           "flat and lies in no nested set")
    vertices = tuple(building.sorted_members())
    facets = [[vertices[k] for k in s] for s in maximal_nested_sets(building)]
    return SimplicialComplex.from_faces(vertices, facets)


def nested_complex_reduced(building: BuildingSet) -> SimplicialComplex:
    """Nested sets not containing the full flat."""
    top = building.lattice.matroid.ground
    members = building.sorted_members()
    facets = [{members[k] for k in s} - {top}
              for s in maximal_nested_sets(building)]
    vertices = tuple(m for m in members if m != top)
    return SimplicialComplex.from_faces(vertices, facets)


# -- nested set structure -------------------------------------------------------


class NotLinearExtension(ValueError):
    """Given order is not a linear extension of the nested set."""


class NotAChain(ValueError):
    """Input sets do not form a strictly increasing chain."""


class NoMinimalSupport(ValueError):
    """No element of a flat has a support family inside every other's."""


class NotNested(ValueError):
    """Given flat collection is not a nested set of the building set."""


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


class NestedChainData(NamedTuple):
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
    members = building.position
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


def maximal_members_below(member_masks, flat: int) -> list[int]:
    """Building members inside the flat that lie in no other such member:
    a scan of its own, the oracle of ``BuildingSet.factors``."""
    inside = [g for g in member_masks if g & ~flat == 0]
    return [g for g in inside
            if not any(h != g and g & ~h == 0 for h in inside)]


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
    extension: list[int] = []
    for fmask in masks:
        maximal = sorted(maximal_members_below(building.members, fmask),
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
