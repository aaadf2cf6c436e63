import os
import subprocess
import sys
from itertools import combinations, permutations, product

import pytest

import mfk
import minkowski_oracle
import nested_oracle

from mfk.bitset import from_mask, to_mask
from mfk.bergman import bergman_fan, bergman_membership
from mfk.errors import (InvalidBuildingSet, LoopsPresent, NotAChain,
                        NotFlats, NotLinearExtension)
from mfk.geometry import cone_unimodular, smith_normal_form, \
    quotient_coordinates
from mfk.lattice import FlatLattice, flats
from mfk.corpus import corpus
from mfk.matroid import direct_sum, from_matrix, uniform
from mfk.nested import (BuildingSet, all_nested_sets, blocks_partition,
                        building_set, building_set_counterexample,
                        chain_to_nested, compare_fans,
                        dcp_normal_refinement_check,
                        dcp_weight_polytope, fans_equal_condition,
                        is_building_set, is_nested, max_building,
                        maximal_nested_sets, min_building,
                        nested_chain_helpers, nested_complex,
                        nested_complex_reduced, nested_fan, refines,
                        supports_equal_on_generators)


def _f(*elements):
    return frozenset(elements)


def _pairs(complex_):
    return sorted(sorted(sorted(v) for v in f)
                  for f in complex_.faces() if len(f) == 2)


# -- building sets -------------------------------------------------------------


def test_dela3_min_building_is_building(dela3_lattice):
    gmin = min_building(dela3_lattice)
    assert sorted(map(sorted, gmin.members)) == [
        [1], [1, 2, 3, 4, 5], [1, 2, 4], [1, 3, 5], [2], [3], [4], [5]]
    assert is_building_set(dela3_lattice, gmin.members)


def test_all_flats_always_building(dela3_lattice, braid_k4_lattice):
    for lattice in (dela3_lattice, braid_k4_lattice):
        assert is_building_set(lattice, max_building(lattice).members)


def test_dropping_a_line_breaks_building(dela3_lattice):
    members = set(min_building(dela3_lattice).members) - {_f(1, 2, 4)}
    witness = building_set_counterexample(dela3_lattice, members)
    assert witness == _f(1, 2, 4)
    with pytest.raises(InvalidBuildingSet):
        building_set(dela3_lattice, members)


def test_boolean_min_max_building():
    lattice = flats(uniform(4, 4))
    gmin = min_building(lattice)
    assert sorted(map(sorted, gmin.members)) == [[1], [2], [3], [4]]
    gmax = max_building(lattice)
    assert len(gmax.members) == 15


def test_buildings_between_min_and_max(dela3_lattice, braid_k4_lattice):
    # brute-force filter of everything between the extremes
    for lattice in (dela3_lattice, braid_k4_lattice):
        gmin = min_building(lattice).members
        gmax = max_building(lattice).members
        extra = sorted(gmax - gmin, key=sorted)
        valid = []
        for size in range(len(extra) + 1):
            for combo in combinations(extra, size):
                members = gmin | set(combo)
                if is_building_set(lattice, members):
                    valid.append(members)
        assert gmin in valid and gmax in valid
        # monotone refinement along inclusions of building sets, with a
        # common support
        matroid = lattice.matroid
        fans = [nested_fan(matroid, building_set(lattice, v)) for v in valid]
        for a, fa in zip(valid, fans):
            for b, fb in zip(valid, fans):
                if a <= b:
                    assert refines(fb, fa)
                assert supports_equal_on_generators(fa, fb)


# -- nested sets -----------------------------------------------------------------


def test_chains_are_nested(dela3_lattice):
    gmin = min_building(dela3_lattice)
    assert is_nested(gmin, [_f(2), _f(1, 2, 4), _f(1, 2, 3, 4, 5)])


def test_antichain_with_building_join_not_nested(dela3_lattice):
    gmin = min_building(dela3_lattice)
    # join of {1},{2} is the line 124, which is irreducible
    assert not is_nested(gmin, [_f(1), _f(2)])
    # join of {2},{3} is the pair flat {2,3}, not irreducible
    assert is_nested(gmin, [_f(2), _f(3)])


def test_boolean_gmax_maximal_nested_count():
    for n in (3, 4):
        lattice = flats(uniform(n, n))
        gmax = max_building(lattice)
        assert len(maximal_nested_sets(gmax)) == \
            __import__("math").factorial(n)


def test_gmax_nested_sets_are_chains(dela3_lattice):
    gmax = max_building(dela3_lattice)
    for s in maximal_nested_sets(gmax):
        ordered = sorted(s, key=len)
        assert all(a < b for a, b in zip(ordered, ordered[1:]))


def test_dela3_reduced_nested_complex_is_figure_graph(dela3, dela3_lattice):
    gmin = min_building(dela3_lattice)
    ne0 = nested_complex_reduced(gmin)
    assert len(ne0.vertices) == 7
    expected_edges = sorted(sorted([a, b]) for a, b in [
        ([2], [3]), ([2], [5]), ([3], [4]), ([4], [5]),
        ([2], [1, 2, 4]), ([4], [1, 2, 4]),
        ([3], [1, 3, 5]), ([5], [1, 3, 5]),
        ([1], [1, 2, 4]), ([1], [1, 3, 5]),
    ])
    assert _pairs(ne0) == expected_edges


def test_nested_complex_cone_over_reduced(dela3, dela3_lattice,
                                          braid_k4_lattice):
    # the full flat of a connected matroid lies in every maximal nested set
    lattices = [dela3_lattice, braid_k4_lattice]
    lattices += [flats(uniform(d, n)) for d, n in [(1, 1), (2, 4), (3, 5)]]
    for lattice in lattices:
        top = lattice.matroid.ground
        for building in (min_building(lattice), max_building(lattice)):
            ne = nested_complex(building)
            assert all(top in facet for facet in ne.facets)


# -- nested fans -----------------------------------------------------------------


def test_uniform_nested_fan_coordinate_cones():
    for d, n in [(2, 4), (3, 5), (2, 5)]:
        lattice = flats(uniform(d, n))
        fan = nested_fan(uniform(d, n), min_building(lattice))
        assert len(fan.cones) == len(list(combinations(range(n), d - 1)))
        for cone in fan.cones:
            assert len(cone.rays) == d - 1
            assert all(sum(r) == 1 for r in cone.rays)


def test_u23_nested_fan_is_projective_plane_fan():
    lattice = flats(uniform(2, 3))
    fan = nested_fan(uniform(2, 3), min_building(lattice))
    assert sorted(fan.rays()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(fan.cones) == 3


def test_nested_fan_unimodular(dela3, braid_k4):
    for entry in (dela3, braid_k4):
        lattice = FlatLattice(entry.matroid)
        for building in (min_building(lattice), max_building(lattice)):
            fan = nested_fan(entry.matroid, building)
            for cone in fan.cones:
                assert cone_unimodular(cone, entry.matroid.n)
                factors = smith_normal_form(
                    [quotient_coordinates(r) for r in cone.rays])
                assert all(f == 1 for f in factors)


def test_dela3_nested_fan_has_extra_ray(dela3, dela3_lattice):
    fan = nested_fan(dela3.matroid, min_building(dela3_lattice))
    bfan = bergman_fan(dela3.matroid, dela3_lattice)
    extra = set(fan.rays()) - set(bfan.rays())
    assert extra == {(1, 0, 0, 0, 0)}
    assert len(fan.rays()) == len(bfan.rays()) + 1


# -- refinement and comparison ------------------------------------------------------


def test_gmax_refines_gmin(dela3, dela3_lattice):
    gmin = min_building(dela3_lattice)
    gmax = max_building(dela3_lattice)
    fan_min = nested_fan(dela3.matroid, gmin)
    fan_max = nested_fan(dela3.matroid, gmax)
    assert refines(fan_max, fan_min)
    assert not refines(fan_min, fan_max)


def test_gmin_refines_bergman(dela3, dela3_lattice):
    fan = nested_fan(dela3.matroid, min_building(dela3_lattice))
    bfan = bergman_fan(dela3.matroid, dela3_lattice)
    assert refines(fan, bfan)
    assert not refines(bfan, fan)
    assert supports_equal_on_generators(fan, bfan)


def test_u24_fans_equal(u24, u24_lattice):
    fan = nested_fan(u24.matroid, min_building(u24_lattice))
    bfan = bergman_fan(u24.matroid, u24_lattice)
    cmp = compare_fans(fan, bfan)
    assert cmp.equal and cmp.refines_ab and cmp.refines_ba
    assert cmp.witness is None


def test_condition_braid_k4(braid_k4, braid_k4_lattice):
    report = fans_equal_condition(braid_k4.matroid, braid_k4_lattice)
    assert report.holds
    fan = nested_fan(braid_k4.matroid, min_building(braid_k4_lattice))
    bfan = bergman_fan(braid_k4.matroid, braid_k4_lattice)
    cmp = compare_fans(fan, bfan)
    assert cmp.equal


def test_condition_dela3_witness(dela3, dela3_lattice):
    report = fans_equal_condition(dela3.matroid, dela3_lattice)
    assert not report.holds
    assert report.witness == (_f(1), _f(1, 2, 3, 4, 5))


def test_condition_uniform():
    for d, n in [(1, 3), (2, 4), (3, 5), (2, 5)]:
        assert fans_equal_condition(uniform(d, n)).holds


def test_supports_match_bergman_on_grid(u24, u24_lattice):
    fan = nested_fan(u24.matroid, min_building(u24_lattice))
    for w in product((-2, -1, 0, 1, 2), repeat=4):
        inside = bergman_membership(u24.matroid, w)
        assert fan.contains(w) == inside


# -- nested combinatorics -------------------------------------------------------------


def test_blocks_boolean_chain():
    lattice = flats(uniform(3, 3))
    gmax = max_building(lattice)
    blocks = blocks_partition(
        gmax, [_f(1), _f(1, 2), _f(1, 2, 3)],
        extension=[_f(1), _f(1, 2), _f(1, 2, 3)])
    assert blocks == [_f(1), _f(2), _f(3)]


def test_blocks_dela3(dela3_lattice):
    gmin = min_building(dela3_lattice)
    s = [_f(2), _f(1, 2, 4), _f(1, 2, 3, 4, 5)]
    blocks = blocks_partition(gmin, s, extension=s)
    assert blocks == [_f(2), _f(1, 4), _f(3, 5)]


def test_blocks_singleton_top(dela3_lattice):
    gmin = min_building(dela3_lattice)
    top = _f(1, 2, 3, 4, 5)
    assert blocks_partition(gmin, [top], extension=[top]) == [top]


def test_blocks_independent_of_extension(dela3_lattice):
    gmin = min_building(dela3_lattice)
    s = [_f(2), _f(3), _f(1, 2, 3, 4, 5)]
    a = blocks_partition(gmin, s, extension=[s[0], s[1], s[2]])
    b = blocks_partition(gmin, s, extension=[s[1], s[0], s[2]])
    assert sorted(map(sorted, a)) == sorted(map(sorted, b))


def test_blocks_rejects_bad_extension(dela3_lattice):
    gmin = min_building(dela3_lattice)
    s = [_f(2), _f(1, 2, 4), _f(1, 2, 3, 4, 5)]
    with pytest.raises(NotLinearExtension):
        blocks_partition(gmin, s, extension=[s[2], s[1], s[0]])
    with pytest.raises(NotLinearExtension):
        blocks_partition(gmin, s, extension=[s[0], s[1]])


_VALIDATION_PROBE = """
from mfk.corpus import corpus
from mfk.errors import MfkError
from mfk.lattice import FlatLattice
from mfk.nested import blocks_partition, min_building, nested_chain_helpers
from mfk.reciprocal import circuit_dependency
building = min_building(FlatLattice(corpus("delA3").matroid))
not_nested = [frozenset({1}), frozenset({2})]  # join {1,2,4} is a member
u24 = corpus("u24").realization
for call in (lambda: blocks_partition(building, not_nested),
             lambda: nested_chain_helpers(building, not_nested),
             lambda: circuit_dependency(u24, {1, 2}),
             lambda: circuit_dependency(u24, {1, 2, 3, 4})):
    try:
        call()
    except MfkError as err:
        print(type(err).__name__)
    else:
        print("accepted")
"""


def test_input_validation_holds_under_optimize():
    # python -O strips assert statements; validation must not rely on them
    src = os.path.dirname(os.path.dirname(os.path.abspath(mfk.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", _VALIDATION_PROBE],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["NotNested", "NotNested",
                                   "NotACircuit", "NotACircuit"]


def test_nested_chain_helpers(dela3_lattice):
    gmin = min_building(dela3_lattice)
    s = frozenset([_f(2), _f(1, 2, 4), _f(1, 2, 3, 4, 5)])
    data = nested_chain_helpers(gmin, s)
    assert data.chains[2] == [_f(2), _f(1, 2, 4), _f(1, 2, 3, 4, 5)]
    assert data.minima[2] == _f(2)
    assert data.minima[1] == _f(1, 2, 4)
    assert data.minima[3] == _f(1, 2, 3, 4, 5)
    # each member is minimal in some chain
    for member in s:
        assert any(minimum == member for minimum in data.minima.values())
    # Lemma-style minimal index for the line 135: elements 3 and 5 carry
    # only the top flat, element 1 also carries 124
    assert data.min_support_index[_f(1, 3, 5)] in (3, 5)


def test_chain_to_nested_dela3(dela3_lattice):
    gmin = min_building(dela3_lattice)
    nested, extension = chain_to_nested(
        gmin, [{2}, {1, 2, 4}, {1, 2, 3, 4, 5}])
    assert nested == frozenset([_f(2), _f(1, 2, 4), _f(1, 2, 3, 4, 5)])
    assert extension == (_f(2), _f(1, 2, 4), _f(1, 2, 3, 4, 5))
    blocks = blocks_partition(gmin, nested, extension=list(extension))
    assert blocks == [_f(2), _f(1, 4), _f(3, 5)]


def test_chain_to_nested_gmax_returns_chain(dela3_lattice):
    gmax = max_building(dela3_lattice)
    chain = [{3}, {2, 3}, {1, 2, 3, 4, 5}]
    nested, extension = chain_to_nested(gmax, chain)
    assert nested == frozenset(map(frozenset, chain))
    assert list(extension) == [frozenset(c) for c in chain]


def test_chain_to_nested_splits_twotwo_flat(braid_k4_lattice):
    # the 2+2 partition flat factors into its two irreducible edges
    gmin = min_building(braid_k4_lattice)
    matroid = braid_k4_lattice.matroid
    # edges of K4 in column order 12,13,14,23,24,34; {12}{34} is edges 1,6
    flat16 = matroid.closure({1, 6})
    assert flat16 == {1, 6}
    top = matroid.ground
    nested, extension = chain_to_nested(gmin, [{1}, {1, 6}, top])
    assert nested == frozenset([_f(1), _f(6), top])
    assert extension == (_f(1), _f(6), top)


def test_chain_to_nested_length_one(dela3_lattice):
    gmin = min_building(dela3_lattice)
    nested, extension = chain_to_nested(gmin, [{1, 2, 3, 4, 5}])
    assert nested == frozenset([_f(1, 2, 3, 4, 5)])


def test_chain_to_nested_errors(dela3_lattice):
    gmin = min_building(dela3_lattice)
    with pytest.raises(NotAChain):
        chain_to_nested(gmin, [{2}, {2}])
    with pytest.raises(NotAChain):
        chain_to_nested(gmin, [{2}, {1, 2, 4}])  # does not end at the top
    with pytest.raises(NotFlats):
        chain_to_nested(gmin, [{1, 2}, {1, 2, 3, 4, 5}])


def test_chains_to_nested_round_trip_all_maximal(dela3_lattice,
                                                braid_k4_lattice):
    # every maximal chain of flats, and each of its tails, comes from a
    # nested set whose prefix joins recover it
    from mfk.bitset import from_mask
    for lattice in (dela3_lattice, braid_k4_lattice):
        chains = []

        def grow(chain, level):
            if level == lattice.matroid.rank_d + 1:
                chains.append([from_mask(f) for f in chain[1:]])
                return
            for f in lattice.by_rank[level]:
                if chain[-1] & ~f == 0:
                    grow(chain + [f], level + 1)

        grow([lattice.bottom], 1)
        for building in (min_building(lattice), max_building(lattice)):
            for chain in chains:
                for start in range(len(chain)):
                    tail = chain[start:]
                    nested, extension = chain_to_nested(building, tail)
                    assert is_nested(building, nested)
                    assert set(extension) == nested
                    join = set()
                    joins = []
                    for x in extension:
                        join = lattice.matroid.closure(join | x)
                        joins.append(join)
                    for flat in tail:
                        assert set(flat) in joins


# -- weight polytopes ------------------------------------------------------------------


def test_dcp_polytope_boolean_c2():
    lattice = flats(uniform(2, 2))
    gmax = max_building(lattice)
    p = dcp_weight_polytope(uniform(2, 2), gmax)
    assert p.dim == 1
    assert len(p.vertices) == 2


def test_dcp_polytope_u23_translated_simplex():
    lattice = flats(uniform(2, 3))
    gmin = min_building(lattice)
    p = dcp_weight_polytope(uniform(2, 3), gmin)
    assert p.dim == 2
    assert len(p.vertices) == 3


def _all_building_sets(matroid):
    lattice = FlatLattice(matroid)
    flats_ = [from_mask(f) for level in lattice.by_rank[1:] for f in level]
    for size in range(1, len(flats_) + 1):
        for members in combinations(flats_, size):
            if is_building_set(lattice, members):
                yield BuildingSet(lattice=lattice, members=frozenset(members))


_SMALL_MATROIDS = {
    **{f"U_{d},{n}": uniform(d, n) for n in range(1, 4)
       for d in range(1, n + 1)},
    "U_1,2+U_1,1": direct_sum(uniform(1, 2), uniform(1, 1)),
    "U_2,2+loop": direct_sum(uniform(2, 2), from_matrix([[0]])[0]),
}


@pytest.mark.parametrize("name", list(_SMALL_MATROIDS))
def test_dcp_polytope_matches_the_minkowski_chain_on_every_building_set(
        name):
    matroid = _SMALL_MATROIDS[name]
    for building in _all_building_sets(matroid):
        assert dcp_weight_polytope(matroid, building) == \
            minkowski_oracle.dcp_weight_polytope(matroid, building), \
            sorted(map(sorted, building.members))


@pytest.mark.parametrize("which", [min_building, max_building])
def test_dcp_polytope_matches_the_minkowski_chain_on_u24(which, u24,
                                                          u24_lattice):
    building = which(u24_lattice)
    assert dcp_weight_polytope(u24.matroid, building) == \
        minkowski_oracle.dcp_weight_polytope(u24.matroid, building)


def test_dcp_refinement_dela3(dela3, dela3_lattice):
    gmin = min_building(dela3_lattice)
    p = dcp_weight_polytope(dela3.matroid, gmin)
    assert p.dim == 4
    assert dcp_normal_refinement_check(dela3.matroid, gmin)


def test_dcp_refinement_braid(braid_k4, braid_k4_lattice):
    gmin = min_building(braid_k4_lattice)
    assert dcp_normal_refinement_check(braid_k4.matroid, gmin)


# -- properties the helpers rely on -------------------------------------------------


def test_nested_complex_refuses_a_single_loop():
    loop, _ = from_matrix([[0]])
    with pytest.raises(LoopsPresent):
        nested_complex(max_building(flats(loop)))


def test_blocks_partition_every_nested_set(dela3_lattice, braid_k4_lattice):
    # the blocks of any linear extension are nonempty and partition the join
    for lattice in (dela3_lattice, braid_k4_lattice):
        for building in (min_building(lattice), max_building(lattice)):
            for nested in all_nested_sets(building):
                blocks = blocks_partition(building, nested)
                assert all(blocks)
                union = set()
                for block in blocks:
                    assert not union & block
                    union |= block
                join = lattice.matroid.closure(set().union(*nested))
                assert union == join


def test_nested_chain_helpers_on_every_maximal_nested_set(dela3_lattice,
                                                          braid_k4_lattice):
    for lattice in (dela3_lattice, braid_k4_lattice):
        n = lattice.matroid.n
        for building in (min_building(lattice), max_building(lattice)):
            for nested in maximal_nested_sets(building):
                chains = {i: sorted((x for x in nested if i in x), key=len)
                          for i in range(1, n + 1)}
                chains = {i: c for i, c in chains.items() if c}
                assert all(a < b for c in chains.values()
                           for a, b in zip(c, c[1:]))
                index = {}
                for flat in building.members:
                    families = {i: set(chains.get(i, [])) for i in flat}
                    lowest = [i for i in sorted(flat)
                              if all(families[i] <= families[j]
                                     for j in flat)]
                    # the minimal support of a building member is unique
                    assert lowest
                    index[flat] = lowest[0]
                data = nested_chain_helpers(building, nested)
                assert data.chains == chains
                assert data.minima == {i: c[0] for i, c in chains.items()}
                assert data.min_support_index == index


def _automorphisms(matroid):
    """Permutations of range(n) that map the bases onto the bases."""
    bases = set(matroid.base_masks)
    for perm in permutations(range(matroid.n)):
        if all(_permuted(b, perm) in bases for b in bases):
            yield perm


def _permuted(mask, perm):
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def _building_sets_up_to_symmetry(lattice):
    """One building set per orbit of the matroid's automorphisms.

    Every building set contains the irreducible flats, so the candidates
    are min_building plus any set of other flats of positive rank.
    """
    base = min_building(lattice).members
    others = [from_mask(f) for level in lattice.by_rank[1:] for f in level
              if from_mask(f) not in base]
    images = [{f: _permuted(f, p) for f in lattice.flat_masks}
              for p in _automorphisms(lattice.matroid)]
    seen = set()
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            members = base | set(extra)
            masks = [to_mask(f) for f in members]
            orbit_key = min(tuple(sorted(image[m] for m in masks))
                            for image in images)
            if orbit_key in seen or not is_building_set(lattice, members):
                continue
            seen.add(orbit_key)
            yield building_set(lattice, members)


_SUPPORT_INPUTS = {
    "U22": lambda: uniform(2, 2),
    "U33": lambda: uniform(3, 3),
    "U24": lambda: uniform(2, 4),
    "U35": lambda: uniform(3, 5),
    "delA3": lambda: corpus("delA3").matroid,
    "braidK4": lambda: corpus("braidK4").matroid,
    "U23+U11": lambda: direct_sum(uniform(2, 3), uniform(1, 1)),
    "U12+U12": lambda: direct_sum(uniform(1, 2), uniform(1, 2)),
}


@pytest.mark.parametrize("name", list(_SUPPORT_INPUTS))
def test_nested_chain_helpers_accepts_every_nested_set(name):
    # the minimal support family is unique on building members only; a
    # flat outside the building set (delA3's {4, 5} under {E, {4}, {5}})
    # may have several.  Relabelling commutes with nested_chain_helpers,
    # so one building set per automorphism orbit covers them all.
    lattice = FlatLattice(_SUPPORT_INPUTS[name]())
    for building in _building_sets_up_to_symmetry(lattice):
        for nested in all_nested_sets(building):
            data = nested_chain_helpers(building, nested)
            assert set(data.min_support_index) == building.members
            for flat, i0 in data.min_support_index.items():
                low = set(data.chains.get(i0, []))
                assert i0 in flat
                assert all(low <= set(data.chains.get(j, [])) for j in flat)


@pytest.mark.parametrize("name", list(_SUPPORT_INPUTS))
def test_maximal_nested_sets_match_the_oracle(name):
    # purity: the maximal nested sets are those with rk L members
    lattice = FlatLattice(_SUPPORT_INPUTS[name]())
    for building in _building_sets_up_to_symmetry(lattice):
        assert maximal_nested_sets(building) == \
            nested_oracle.maximal_nested_sets(building)


def test_nested_chain_helpers_refuses_crossing_supports():
    # with a loop, two incomparable nested flats share it, so S_3 branches
    m, _ = from_matrix([[1, 0, 0], [0, 1, 0]])
    lattice = flats(m)
    building = building_set(lattice, [_f(1, 3), _f(2, 3)])
    with pytest.raises(NotAChain):
        nested_chain_helpers(building, [_f(1, 3), _f(2, 3)])


def test_chain_to_nested_refuses_a_building_set_that_misses_the_chain():
    # an unvalidated member set that is empty generates no chain
    m, _ = from_matrix([[1, 0, 1, 0], [0, 1, 1, 0]])
    building = BuildingSet(lattice=flats(m), members=frozenset())
    with pytest.raises(InvalidBuildingSet):
        chain_to_nested(building, [_f(1, 4), _f(1, 2, 3, 4)])


_LOOP = from_matrix([[0]])[0]


@pytest.mark.parametrize("matroid", [
    direct_sum(uniform(2, 3), _LOOP),
    direct_sum(uniform(2, 4), direct_sum(_LOOP, _LOOP)),
    direct_sum(corpus("delA3").matroid, _LOOP),
], ids=["U23+loop", "U24+loop+loop", "delA3+loop"])
def test_min_building_with_loops_is_a_building_set(matroid):
    # irreducibility is judged without the loops, so the members are the
    # irreducible flats of the loop-free part, each with the loops added
    lattice = flats(matroid)
    building = min_building(lattice)
    assert is_building_set(lattice, building.members)
    loops = frozenset(matroid.loops())
    loop_free = matroid.restriction(matroid.ground - loops)
    relabel = dict(enumerate(sorted(matroid.ground - loops), start=1))
    assert building.members == {
        frozenset(relabel[e] for e in f) | loops
        for f in min_building(flats(loop_free)).members}
    top = from_mask(lattice.top)
    for chain in lattice.maximal_chains(lattice.bottom, lattice.top):
        nested, _ = chain_to_nested(
            building, [from_mask(f) for f in chain] + [top])
        assert is_nested(building, nested)


def test_is_nested_agrees_with_enumeration(dela3_lattice, braid_k4_lattice):
    # is_nested and all_nested_sets share one extension rule; every subset
    # of at most three members is nested exactly when it is enumerated
    for lattice in (dela3_lattice, braid_k4_lattice):
        building = min_building(lattice)
        enumerated = set(all_nested_sets(building))
        members = building.sorted_members()
        for size in range(4):
            for subset in combinations(members, size):
                assert is_nested(building, subset) == \
                    (frozenset(subset) in enumerated)


# acceptance criterion 05 makes the same check on every U_{d,n} with
# n <= 6, braidK4 and delA3
_CONDITION_INPUTS = {
    **{name: (lambda name=name: corpus(name).matroid)
       for name in ("u23", "u24", "braidK5", "boolean_3", "boolean_4")},
    "U23+U11": lambda: direct_sum(uniform(2, 3), uniform(1, 1)),
    "U23+U23": lambda: direct_sum(uniform(2, 3), uniform(2, 3)),
}


@pytest.mark.parametrize("name", list(_CONDITION_INPUTS))
def test_fans_equal_condition_matches_the_comparison(name):
    # Feichtner-Sturmfels: the condition holds exactly when the minimal
    # nested fan equals the coarse Bergman fan
    m = _CONDITION_INPUTS[name]()
    lattice = FlatLattice(m)
    report = fans_equal_condition(m, lattice)
    comparison = compare_fans(nested_fan(m, min_building(lattice)),
                              bergman_fan(m, lattice))
    assert report.holds == comparison.equal
    assert (report.witness is None) == report.holds
