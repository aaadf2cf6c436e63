import os
import random
import subprocess
import sys
from itertools import combinations, permutations, product
from math import comb, factorial, prod

import pytest

import mfk
import minkowski_oracle
import nested_oracle
from nested_oracle import all_nested_sets, element_sets
from theorem_checks import (NotAChain, NotLinearExtension, blocks_partition,
                            chain_to_nested, dcp_normal_refinement_check,
                            maximal_members_below, nested_chain_helpers,
                            nested_complex, nested_complex_reduced)

from mfk.bitset import from_mask, to_mask
from mfk.bergman import bergman_fan, bergman_membership
from mfk.errors import (EmptyInterval, InvalidBuildingSet, LoopsPresent,
                        NotFlats, ParameterOutOfRange)
from mfk.geometry import cone_unimodular, smith_normal_form, \
    quotient_coordinates
from mfk.jsonio import bergman_to_json, dumps, nested_fan_to_json
from mfk.lattice import FlatLattice, interval_product_check, order_complex
from mfk.corpus import corpus
from mfk.matroid import (Matroid, direct_sum, from_graph, from_matrix,
                         uniform)
from mfk.nested import (BuildingSet, building_set_counterexample,
                        compare_fans, dcp_weight_polytope,
                        fans_equal_condition, is_building_set, is_nested,
                        max_building, maximal_nested_sets, min_building,
                        nested_fan, refines, supports_equal_on_generators)


def _f(*elements):
    return frozenset(elements)


def _pairs(complex_):
    return sorted(sorted(sorted(v) for v in f)
                  for f in complex_.faces() if len(f) == 2)


# -- building sets -------------------------------------------------------------


def test_dela3_min_building_is_building(dela3_lattice):
    # the members are kept by size and then by elements
    gmin = min_building(dela3_lattice)
    assert list(map(sorted, gmin.sorted_members())) == [
        [1], [2], [3], [4], [5], [1, 2, 4], [1, 3, 5], [1, 2, 3, 4, 5]]
    assert gmin.members == tuple(map(to_mask, gmin.sorted_members()))
    assert all(gmin.position[g] == k for k, g in enumerate(gmin.members))
    assert is_building_set(dela3_lattice, gmin.sorted_members())


def test_all_flats_always_building(dela3_lattice, braid_k4_lattice):
    for lattice in (dela3_lattice, braid_k4_lattice):
        assert is_building_set(lattice,
                               max_building(lattice).sorted_members())


def test_dropping_a_line_breaks_building(dela3_lattice):
    members = set(min_building(dela3_lattice).sorted_members()) - {
        _f(1, 2, 4)}
    witness = building_set_counterexample(dela3_lattice, members)
    assert witness == _f(1, 2, 4)
    with pytest.raises(InvalidBuildingSet):
        BuildingSet(dela3_lattice, members)


def test_building_set_names_an_element_out_of_range(u24_lattice):
    # the bases reader's refusal and wording, checked before any flat
    assert not is_building_set(u24_lattice, [_f(7)])
    with pytest.raises(ParameterOutOfRange, match=r"member \[7\] not inside "
                       r"\[4\]"):
        BuildingSet(u24_lattice, [_f(1), _f(7)])
    with pytest.raises(ParameterOutOfRange, match=r"member \[0\]"):
        BuildingSet(u24_lattice, [_f(0)])


def test_building_set_names_a_member_that_is_not_a_flat(u24_lattice,
                                                        dela3_lattice):
    # {1, 2} spans the plane of U(2,4); {1, 2} of delA3 closes to {1, 2, 4}
    for lattice in (u24_lattice, dela3_lattice):
        assert not is_building_set(lattice, [_f(1, 2)])
        with pytest.raises(InvalidBuildingSet,
                           match=r"^member \[1, 2\] is not a flat$"):
            BuildingSet(lattice, [_f(1), _f(1, 2)])
    # the bottom flat is a flat, so it keeps the interval-product wording
    with pytest.raises(InvalidBuildingSet, match="fails at flat \\[\\]"):
        BuildingSet(u24_lattice, [_f()])


# (call on U(2,4) with one element, its refusal or None for a False answer)
_ONE_ELEMENT_CALLS = {
    "is_building_set": (lambda lat, e: is_building_set(lat, [[e]]), None),
    "is_nested": (lambda lat, e: is_nested(min_building(lat), [{e}]), None),
    "interval_product_check": (
        lambda lat, e: interval_product_check(lat, {e}, []), NotFlats),
    "order_complex": (
        lambda lat, e: order_complex(lat, {e}, {1, 2, 3, 4}), EmptyInterval),
}


@pytest.mark.parametrize("element", [0, -1, 7])
@pytest.mark.parametrize("routine", list(_ONE_ELEMENT_CALLS))
def test_an_element_outside_the_ground_set_gets_the_routine_s_answer(
        routine, element, u24_lattice):
    # an element below 1 has no bit in a mask; it is answered as 7 is
    call, refusal = _ONE_ELEMENT_CALLS[routine]
    if refusal is None:
        assert call(u24_lattice, element) is False
    else:
        with pytest.raises(refusal):
            call(u24_lattice, element)


def test_boolean_min_max_building():
    lattice = FlatLattice(uniform(4, 4))
    gmin = min_building(lattice)
    assert sorted(map(sorted, gmin.sorted_members())) == [[1], [2], [3], [4]]
    gmax = max_building(lattice)
    assert len(gmax.members) == 15


def test_buildings_between_min_and_max(dela3_lattice, braid_k4_lattice):
    # brute-force filter of everything between the extremes
    for lattice in (dela3_lattice, braid_k4_lattice):
        gmin = set(min_building(lattice).sorted_members())
        gmax = set(max_building(lattice).sorted_members())
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
        fans = [nested_fan(BuildingSet(lattice, v)) for v in valid]
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
    # the maximal nested sets of all flats are the maximal chains: n!
    for n in range(1, 7):
        lattice = FlatLattice(uniform(n, n))
        gmax = max_building(lattice)
        assert len(maximal_nested_sets(gmax)) == factorial(n)


def _complete_graph(n):
    return from_graph(n, list(combinations(range(1, n + 1), 2)))


@pytest.mark.parametrize("n, count", [(4, 15), (5, 105), (6, 945)])
def test_braid_gmin_maximal_nested_count(n, count):
    # the minimal building set of K_n: the maximal nested sets index the
    # 0-dimensional strata of the moduli space of n + 1 marked points,
    # (2n - 3)!! of them
    lattice = FlatLattice(_complete_graph(n))
    assert count == prod(range(1, 2 * n - 2, 2))
    assert len(maximal_nested_sets(min_building(lattice))) == count


@pytest.mark.parametrize("d, n, count", [(4, 10, 120), (6, 12, 792)])
def test_uniform_gmin_maximal_nested_count(d, n, count):
    # for n > d the irreducible flats of U(d, n) are the points and the full
    # flat, and a maximal nested set is the full flat and d - 1 points
    lattice = FlatLattice(uniform(d, n))
    assert count == comb(n, d - 1)
    assert len(maximal_nested_sets(min_building(lattice))) == count


def test_gmax_nested_sets_are_chains(dela3_lattice):
    gmax = max_building(dela3_lattice)
    for s in element_sets(gmax, maximal_nested_sets(gmax)):
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
    lattices += [FlatLattice(uniform(d, n))
                 for d, n in [(1, 1), (2, 4), (3, 5)]]
    for lattice in lattices:
        top = lattice.matroid.ground
        for building in (min_building(lattice), max_building(lattice)):
            ne = nested_complex(building)
            assert all(top in facet for facet in ne.facets)


# -- nested fans -----------------------------------------------------------------


def test_uniform_nested_fan_coordinate_cones():
    for d, n in [(2, 4), (3, 5), (2, 5)]:
        lattice = FlatLattice(uniform(d, n))
        fan = nested_fan(min_building(lattice))
        assert len(fan.cones) == len(list(combinations(range(n), d - 1)))
        for cone in fan.cones:
            assert len(cone) == d - 1
            assert all(sum(fan.rays[i]) == 1 for i in cone)


def test_u23_nested_fan_is_projective_plane_fan():
    lattice = FlatLattice(uniform(2, 3))
    fan = nested_fan(min_building(lattice))
    assert fan.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert len(fan.cones) == 3


def test_nested_fan_unimodular(dela3, braid_k4):
    for entry in (dela3, braid_k4):
        lattice = FlatLattice(entry.matroid)
        for building in (min_building(lattice), max_building(lattice)):
            fan = nested_fan(building)
            for cone in fan.cones:
                rays = [fan.rays[i] for i in cone]
                assert cone_unimodular(rays, entry.matroid.n)
                factors = smith_normal_form(
                    [quotient_coordinates(r) for r in rays])
                assert all(f == 1 for f in factors)


def test_dela3_nested_fan_has_extra_ray(dela3_lattice):
    fan = nested_fan(min_building(dela3_lattice))
    bfan = bergman_fan(dela3_lattice)
    extra = set(fan.rays) - set(bfan.rays)
    assert extra == {(1, 0, 0, 0, 0)}
    assert len(fan.rays) == len(bfan.rays) + 1


# -- refinement and comparison ------------------------------------------------------


def test_gmax_refines_gmin(dela3_lattice):
    gmin = min_building(dela3_lattice)
    gmax = max_building(dela3_lattice)
    fan_min = nested_fan(gmin)
    fan_max = nested_fan(gmax)
    assert refines(fan_max, fan_min)
    assert not refines(fan_min, fan_max)


def test_gmin_refines_bergman(dela3_lattice):
    fan = nested_fan(min_building(dela3_lattice))
    bfan = bergman_fan(dela3_lattice)
    assert refines(fan, bfan)
    assert not refines(bfan, fan)
    assert supports_equal_on_generators(fan, bfan)


def test_u24_fans_equal(u24_lattice):
    fan = nested_fan(min_building(u24_lattice))
    bfan = bergman_fan(u24_lattice)
    cmp = compare_fans(fan, bfan)
    assert cmp.equal and cmp.refines_ab and cmp.refines_ba
    assert cmp.witness is None


def test_condition_braid_k4(braid_k4_lattice):
    report = fans_equal_condition(braid_k4_lattice)
    assert report.holds
    fan = nested_fan(min_building(braid_k4_lattice))
    bfan = bergman_fan(braid_k4_lattice)
    cmp = compare_fans(fan, bfan)
    assert cmp.equal


def test_condition_dela3_witness(dela3_lattice):
    report = fans_equal_condition(dela3_lattice)
    assert not report.holds
    assert report.witness == (_f(1), _f(1, 2, 3, 4, 5))


def test_condition_uniform():
    for d, n in [(1, 3), (2, 4), (3, 5), (2, 5)]:
        assert fans_equal_condition(FlatLattice(uniform(d, n))).holds


def test_supports_match_bergman_on_grid(u24, u24_lattice):
    fan = nested_fan(min_building(u24_lattice))
    for w in product((-2, -1, 0, 1, 2), repeat=4):
        inside = bergman_membership(u24.matroid, w)
        assert fan.contains(w) == inside


# -- nested combinatorics -------------------------------------------------------------


def test_blocks_boolean_chain():
    lattice = FlatLattice(uniform(3, 3))
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
from mfk.nested import BuildingSet
from mfk.reciprocal import circuit_dependency
lattice = FlatLattice(corpus("delA3").matroid)
u24 = corpus("u24").realization
for call in (lambda: BuildingSet(lattice, [{1}, {7}]),  # 7 is outside [5]
             lambda: BuildingSet(lattice, [{1}, {1, 2}]),  # {1, 2} no flat
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
    assert done.stdout.split() == ["ParameterOutOfRange", "InvalidBuildingSet",
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
    lattice = FlatLattice(uniform(2, 2))
    gmax = max_building(lattice)
    p = dcp_weight_polytope(gmax)
    assert p.dim == 1
    assert len(p.vertices) == 2


def test_dcp_polytope_u23_translated_simplex():
    lattice = FlatLattice(uniform(2, 3))
    gmin = min_building(lattice)
    p = dcp_weight_polytope(gmin)
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
        assert dcp_weight_polytope(building) == \
            minkowski_oracle.dcp_weight_polytope(building), \
            sorted(map(sorted, building.sorted_members()))


@pytest.mark.parametrize("which", [min_building, max_building])
def test_dcp_polytope_matches_the_minkowski_chain_on_u24(which, u24_lattice):
    building = which(u24_lattice)
    assert dcp_weight_polytope(building) == \
        minkowski_oracle.dcp_weight_polytope(building)


def test_dcp_refinement_dela3(dela3_lattice):
    gmin = min_building(dela3_lattice)
    p = dcp_weight_polytope(gmin)
    assert p.dim == 4
    assert dcp_normal_refinement_check(nested_fan(gmin))


def test_dcp_refinement_braid(braid_k4_lattice):
    gmin = min_building(braid_k4_lattice)
    assert dcp_normal_refinement_check(nested_fan(gmin))


# -- properties the helpers rely on -------------------------------------------------


def test_nested_complex_refuses_a_single_loop():
    loop, _ = from_matrix([[0]])
    with pytest.raises(LoopsPresent):
        nested_complex(max_building(FlatLattice(loop)))


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
            for nested in element_sets(building,
                                       maximal_nested_sets(building)):
                chains = {i: sorted((x for x in nested if i in x), key=len)
                          for i in range(1, n + 1)}
                chains = {i: c for i, c in chains.items() if c}
                assert all(a < b for c in chains.values()
                           for a, b in zip(c, c[1:]))
                index = {}
                for flat in building.sorted_members():
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
    base = set(min_building(lattice).sorted_members())
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
            yield BuildingSet(lattice, members)


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
            assert set(data.min_support_index) == set(
                building.sorted_members())
            for flat, i0 in data.min_support_index.items():
                low = set(data.chains.get(i0, []))
                assert i0 in flat
                assert all(low <= set(data.chains.get(j, [])) for j in flat)


_LOOP = from_matrix([[0]])[0]

_LOOPED_INPUTS = {
    "U23+loop": lambda: direct_sum(uniform(2, 3), _LOOP),
    "U24+loop+loop": lambda: direct_sum(uniform(2, 4),
                                        direct_sum(_LOOP, _LOOP)),
    "delA3+loop": lambda: direct_sum(corpus("delA3").matroid, _LOOP),
    "U12+U11+loop": lambda: direct_sum(
        direct_sum(uniform(1, 2), uniform(1, 1)), _LOOP),
    "U11+U11+loop": lambda: direct_sum(
        direct_sum(uniform(1, 1), uniform(1, 1)), _LOOP),
    "loop": lambda: _LOOP,
}


@pytest.mark.parametrize("name", [*_SUPPORT_INPUTS, *_LOOPED_INPUTS])
def test_maximal_nested_sets_match_the_oracle(name):
    # the recursion on maximal members against the antichain-join search,
    # list and order; every member of a looped input holds the loops
    lattice = FlatLattice({**_SUPPORT_INPUTS, **_LOOPED_INPUTS}[name]())
    for building in _building_sets_up_to_symmetry(lattice):
        found = maximal_nested_sets(building)
        assert all(list(s) == sorted(set(s)) for s in found)
        assert element_sets(building, found) == \
            nested_oracle.maximal_nested_sets(building)


def test_nested_chain_helpers_refuses_crossing_supports():
    # with a loop, two incomparable nested flats share it, so S_3 branches
    m, _ = from_matrix([[1, 0, 0], [0, 1, 0]])
    lattice = FlatLattice(m)
    building = BuildingSet(lattice, [_f(1, 3), _f(2, 3)])
    with pytest.raises(NotAChain):
        nested_chain_helpers(building, [_f(1, 3), _f(2, 3)])


def test_an_empty_member_set_is_refused_at_construction():
    # an empty member set generates no chain, so it cannot be built
    m, _ = from_matrix([[1, 0, 1, 0], [0, 1, 1, 0]])
    with pytest.raises(InvalidBuildingSet,
                       match=r"interval product fails at flat \[1, 4\]"):
        BuildingSet(lattice=FlatLattice(m), members=frozenset())


@pytest.mark.parametrize("members, flat", [
    ([_f(1), _f(1, 2, 3)], [2]),
    ([], [1]),
])
def test_building_set_refuses_members_that_miss_a_flat(members, flat):
    # unvalidated, {1} and {1, 2, 3} listed two equal maximal nested sets
    # of U(2,3) among three, and no members listed the empty set
    lattice = FlatLattice(uniform(2, 3))
    message = rf"interval product fails at flat \[{flat[0]}\]"
    with pytest.raises(InvalidBuildingSet, match=message):
        BuildingSet(lattice, members)
    assert building_set_counterexample(lattice, members) == frozenset(flat)
    assert not is_building_set(lattice, members)


@pytest.mark.parametrize("matroid", [
    direct_sum(uniform(2, 3), _LOOP),
    direct_sum(uniform(2, 4), direct_sum(_LOOP, _LOOP)),
    direct_sum(corpus("delA3").matroid, _LOOP),
], ids=["U23+loop", "U24+loop+loop", "delA3+loop"])
def test_min_building_with_loops_is_a_building_set(matroid):
    # irreducibility is judged without the loops, so the members are the
    # irreducible flats of the loop-free part, each with the loops added
    lattice = FlatLattice(matroid)
    building = min_building(lattice)
    assert is_building_set(lattice, building.sorted_members())
    loops = frozenset(matroid.loops())
    loop_free = matroid.restriction(matroid.ground - loops)
    relabel = dict(enumerate(sorted(matroid.ground - loops), start=1))
    assert set(building.sorted_members()) == {
        frozenset(relabel[e] for e in f) | loops
        for f in min_building(FlatLattice(loop_free)).sorted_members()}
    top = from_mask(lattice.top)
    for chain in lattice.maximal_chains(lattice.bottom, lattice.top):
        nested, _ = chain_to_nested(
            building, [from_mask(f) for f in chain] + [top])
        assert is_nested(building, nested)


_CORPUS_BUILDINGS = ("u23", "u24", "delA3", "braidK4", "braidK5", "boolean_4",
                     "uniform_3_6")


def _buildings(name):
    """Min and max of a corpus entry; every building set of a small or
    looped matroid."""
    if name in _CORPUS_BUILDINGS:
        lattice = FlatLattice(corpus(name).matroid)
        return [min_building(lattice), max_building(lattice)]
    if name in _LOOPED_INPUTS:
        return list(_all_building_sets(_LOOPED_INPUTS[name]()))
    return list(_all_building_sets(_SMALL_MATROIDS[name]))


def test_is_nested_agrees_with_enumeration(dela3_lattice, braid_k4_lattice):
    # is_nested checks F(X) below each chosen member and the full flat, and
    # the oracle grows nested sets by the antichain-join rule; every subset
    # of at most three members, with a flat outside the building set among
    # the candidates, is nested exactly when the oracle lists it
    looped = FlatLattice(_LOOPED_INPUTS["delA3+loop"]())
    buildings = [which(lattice)
                 for lattice in (dela3_lattice, braid_k4_lattice, looped)
                 for which in (min_building, max_building)]
    for name in (*_SMALL_MATROIDS, *_LOOPED_INPUTS):
        buildings += _buildings(name)
    for building in buildings:
        enumerated = set(all_nested_sets(building))
        outsider = next((from_mask(f) for f in building.lattice.flat_masks
                         if f not in building.position), None)
        candidates = building.sorted_members()
        if outsider is not None:
            candidates.append(outsider)
        for size in range(4):
            for subset in combinations(candidates, size):
                assert is_nested(building, subset) == \
                    (frozenset(subset) in enumerated), subset


@pytest.mark.parametrize("name", [*_SMALL_MATROIDS, *_LOOPED_INPUTS,
                                  *_CORPUS_BUILDINGS])
def test_factors_match_the_member_scan(name):
    for building in _buildings(name):
        masks = building.members
        for flat in building.lattice.flat_masks[1:]:
            assert building.factors(flat) == \
                tuple(sorted(maximal_members_below(masks, flat)))


@pytest.mark.parametrize("name", ["delA3", "braidK4", "boolean_4", "U23+loop"])
def test_nested_answers_list_no_nested_sets(name, monkeypatch):
    # is_nested and the cone rules read F(X); only nested_fan lists
    matroid = (_LOOPED_INPUTS[name]() if name in _LOOPED_INPUTS
               else corpus(name).matroid)
    lattice = FlatLattice(matroid)
    buildings = (min_building(lattice), max_building(lattice))
    fans = [nested_fan(building) for building in buildings]

    def no_listing(*args, **kwargs):
        raise AssertionError("a nested answer listed the maximal nested sets")

    monkeypatch.setattr(mfk.nested, "maximal_nested_sets", no_listing)
    weights = list(product(range(-1, 2), repeat=matroid.n))
    for building, fan in zip(buildings, fans):
        assert all(is_nested(building, s)
                   for s in element_sets(building, fan.nested_sets))
        for w in weights:
            assert fan.contains(w) == bool(fan.cones_containing(w))


def test_cones_containing_is_the_subset_rule_on_braid_k5():
    # the member-position index against N(w) <= nested set, cone by cone
    lattice = FlatLattice(corpus("braidK5").matroid)
    rng = random.Random(5)
    weights = list(bergman_fan(lattice).rays)
    weights += [[rng.randrange(-2, 3) for _ in range(10)] for _ in range(200)]
    for building in (min_building(lattice), max_building(lattice)):
        fan = nested_fan(building)
        inside = 0
        for w in weights:
            nested = fan._flag_nested(w)
            expected = (set() if nested is None else
                        {i for i, s in enumerate(fan.nested_sets)
                         if nested.issubset(s)})
            assert fan.cones_containing(w) == expected, w
            inside += bool(expected)
        assert inside >= 25  # every Bergman ray lies in the support


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
    report = fans_equal_condition(lattice)
    comparison = compare_fans(nested_fan(min_building(lattice)),
                              bergman_fan(lattice))
    assert report.holds == comparison.equal
    assert (report.witness is None) == report.holds


@pytest.mark.parametrize("name", ["delA3", "braidK4", "braidK5", "boolean_4",
                                  "uniform_3_6"])
def test_nested_paths_close_no_set_once_the_lattice_is_built(name,
                                                             monkeypatch):
    # the maximal nested sets are read off the cover pairs and the building
    # members; no join is closed after the lattice pass
    lattice = FlatLattice(corpus(name).matroid)

    def no_closure(*args, **kwargs):
        raise AssertionError("a nested path closed a set")

    monkeypatch.setattr(Matroid, "closure_mask", no_closure)
    monkeypatch.setattr(FlatLattice, "join_mask", no_closure)
    for building in (min_building(lattice), max_building(lattice)):
        fan = nested_fan(building)
        assert all(is_nested(building, s)
                   for s in element_sets(building, fan.nested_sets[:3]))
    assert compare_fans(nested_fan(min_building(lattice)),
                        bergman_fan(lattice)).refines_ab


def test_fan_paths_make_no_element_set_once_the_building_sets_are_built(
        monkeypatch):
    # the fans keep flats, flags and bases as masks and nested sets as
    # member positions; only the emitter lists elements, and by bit scans
    lattice = FlatLattice(corpus("braidK5").matroid)
    buildings = (min_building(lattice), max_building(lattice))

    def no_element_set(*args, **kwargs):
        raise AssertionError("a fan path made a set of elements")

    for module in (mfk.bitset, mfk.nested, mfk.bergman):
        monkeypatch.setattr(module, "from_mask", no_element_set,
                            raising=False)
    bfan = bergman_fan(lattice)
    assert len(dumps(bergman_to_json(bfan))) > 0
    for building in buildings:
        nfan = nested_fan(building)
        assert compare_fans(nfan, bfan).refines_ab
        assert len(dumps(nested_fan_to_json(nfan))) > 0
