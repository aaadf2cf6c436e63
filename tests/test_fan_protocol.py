"""The fan protocol against the generic LP membership oracle.

Each kind of fan decides membership in its own maximal cones
(``cone_contains``): the Bergman fan by maximal bases, the nested fan by
one linear solve; a bare ``geometry.Fan`` has no membership rule.
``refines``, ``compare_fans`` and ``supports_equal_on_generators`` go through
that rule only; here they are checked against references that test each ray
with ``geometry.cone_contains``, the exact LP, which stays only as this
oracle and for the rays of a disconnected Bergman fan.
"""

from functools import cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nested_oracle
from mfk import geometry
from mfk.bergman import bergman_fan
from mfk.bitset import from_mask
from mfk.corpus import corpus
from mfk.geometry import cone_contains
from mfk.lattice import FlatLattice
from mfk.matroid import direct_sum, from_bases, uniform
from mfk.nested import (BuildingSet, compare_fans, is_building_set,
                        max_building, maximal_nested_sets, min_building,
                        nested_fan, refines, supports_equal_on_generators)

# U_{n,n}, boolean_3/4 and the direct sums are disconnected: the cones of
# their minimal nested fans contain the span of the component indicators;
# in the sums such a cone holds a line but is not the whole space.
MATROIDS = {
    **{f"U_{d},{n}": (lambda d=d, n=n: uniform(d, n))
       for n in range(1, 7) for d in range(1, n + 1)},
    **{name: (lambda name=name: corpus(name).matroid)
       for name in ("u24", "delA3", "braidK4", "boolean_3", "boolean_4")},
    "U_2,3+U_1,1": lambda: direct_sum(uniform(2, 3), uniform(1, 1)),
    "U_2,3+U_2,3": lambda: direct_sum(uniform(2, 3), uniform(2, 3)),
}


def _fans(matroid):
    lattice = FlatLattice(matroid)
    return {"min": nested_fan(matroid, min_building(lattice)),
            "max": nested_fan(matroid, max_building(lattice)),
            "bergman": bergman_fan(matroid, lattice)}


def _lp_oracle(fan):
    """(i, w) -> is w in the i-th cone of fan, by LP; each pair asked once."""
    return cache(lambda i, w: cone_contains(fan.cones[i], w))


def _lp_uncovered(fan_a, fan_b, inside_b):
    """First cone of fan_a in no single cone of fan_b."""
    for cone in fan_a.cones:
        if not any(all(inside_b(j, r) for r in cone.rays)
                   for j in range(len(fan_b.cones))):
            return cone
    return None


def _lp_covers_rays(fan_a, fan_b, inside_b):
    """Does the support of fan_b contain every ray of fan_a?"""
    return all(any(inside_b(j, r) for j in range(len(fan_b.cones)))
               for r in fan_a.rays())


@pytest.mark.parametrize("name", list(MATROIDS))
def test_protocol_matches_lp_oracle(name):
    fans = _fans(MATROIDS[name]())
    oracle = {key: _lp_oracle(fan) for key, fan in fans.items()}
    for key_a, key_b in permutations(fans, 2):
        fan_a, fan_b = fans[key_a], fans[key_b]
        bad_ab = _lp_uncovered(fan_a, fan_b, oracle[key_b])
        bad_ba = _lp_uncovered(fan_b, fan_a, oracle[key_a])
        assert refines(fan_a, fan_b) == (bad_ab is None), (key_a, key_b)
        cmp = compare_fans(fan_a, fan_b)
        assert (cmp.refines_ab, cmp.refines_ba, cmp.equal) == (
            bad_ab is None, bad_ba is None, bad_ab is None and bad_ba is None)
        if bad_ab is not None:
            expected = (f"cone with rays {list(bad_ab.rays)} "
                        "not contained (a into b)")
        elif bad_ba is not None:
            expected = (f"cone with rays {list(bad_ba.rays)} "
                        "not contained (b into a)")
        else:
            expected = None
        assert cmp.witness == expected, (key_a, key_b)
        assert supports_equal_on_generators(fan_a, fan_b) == (
            _lp_covers_rays(fan_a, fan_b, oracle[key_b])
            and _lp_covers_rays(fan_b, fan_a, oracle[key_a]))


@pytest.mark.parametrize("name", ["u24", "delA3", "braidK4", "U_3,6",
                                  "boolean_4", "U_2,3+U_1,1"])
def test_connected_comparison_solves_no_lp(name, monkeypatch):
    # built before the patch: bergman_fan of a disconnected matroid uses the LP
    fans = _fans(MATROIDS[name]())

    def no_lp(*args, **kwargs):
        raise AssertionError("fan comparison called the LP")

    monkeypatch.setattr(geometry, "lp_feasible", no_lp)
    for fan_a, fan_b in permutations(fans.values(), 2):
        compare_fans(fan_a, fan_b)
        supports_equal_on_generators(fan_a, fan_b)


@cache
def _cached_fans(name):
    return tuple(_fans(MATROIDS[name]()).values())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["U_2,3", "U_2,5", "U_3,5", "u24", "delA3", "braidK4",
                        "boolean_3", "U_2,3+U_1,1", "U_2,3+U_2,3"]),
       st.data())
def test_cone_rules_match_lp_on_random_weights(name, data):
    fans = _cached_fans(name)
    n = fans[0].n
    w = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    for fan in fans:
        for i, cone in enumerate(fan.cones):
            assert fan.cone_contains(i, w) == cone_contains(cone, w), (i, w)


_LOOP = from_bases(1, [[]])


@pytest.mark.parametrize("matroid", [
    direct_sum(direct_sum(uniform(1, 1), uniform(1, 1)), _LOOP),
    direct_sum(direct_sum(uniform(1, 2), uniform(1, 1)), _LOOP),
    direct_sum(direct_sum(uniform(2, 2), _LOOP), _LOOP),
], ids=["U11+U11+loop", "U12+U11+loop", "U22+loop+loop"])
def test_every_building_set_cone_rule_matches_lp(matroid):
    # with a loop the maximal members of a building set without the full
    # flat share the loop, so their indicators do not sum to the all-ones
    # vector and the cone keeps the all-ones column
    lattice = FlatLattice(matroid)
    flats = [from_mask(f) for level in lattice.by_rank[1:] for f in level]
    grid = list(product(range(-1, 3), repeat=matroid.n))
    for size in range(1, len(flats) + 1):
        for members in combinations(flats, size):
            if not is_building_set(lattice, members):
                continue
            building = BuildingSet(lattice=lattice,
                                   members=frozenset(members))
            assert maximal_nested_sets(building) == \
                nested_oracle.maximal_nested_sets(building)
            fan = nested_fan(matroid, building)
            for i, cone in enumerate(fan.cones):
                for w in grid:
                    assert fan.cone_contains(i, w) == \
                        cone_contains(cone, w), (members, i, w)
