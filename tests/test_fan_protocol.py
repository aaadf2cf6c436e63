"""The fan protocol against the generic LP membership oracle.

Each kind of fan names the maximal cones that hold a weight
(``cones_containing``): the Bergman fan by maximal bases, the nested fan by
the flag of the weight (every superlevel set a flat, the union N(w) of
their building-set factors inside the cone's nested set, and the surplus
on the loops absorbed by the roots), with no elimination and no LP; a bare
``geometry.Fan`` has no membership rule.
``refines``, ``compare_fans`` and ``supports_equal_on_generators`` go through
that query only, once per ray; here they are checked against references
that test each (cone, ray) pair with ``geometry.cone_contains``, the exact
LP, which stays only as this oracle.  Each fan is built from the one
structure it reads: ``bergman_fan`` from a lattice of flats, ``nested_fan``
from a building set in it.
"""

import sys
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nested_oracle
import mfk.bergman
from mfk import geometry, linalg
from mfk.bergman import bergman_fan
from mfk.bitset import from_mask
from mfk.corpus import corpus, vandermonde
from mfk.errors import DimensionMismatch
from mfk.geometry import cone_contains
from mfk.lattice import FlatLattice
from mfk.matroid import direct_sum, from_bases, uniform
from mfk.nested import (BuildingSet, NestedFan, compare_fans, is_building_set,
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

_LOOP = from_bases(1, [[]])

# a loop lies in every flat, the full flat included; these matroids have
# nested fans only
LOOPED = {
    "U_2,3+loop": lambda: direct_sum(uniform(2, 3), _LOOP),
    "U_2,4+loop": lambda: direct_sum(uniform(2, 4), _LOOP),
    # two components with loops: the surplus D on the loops decides
    "U12+U12+loop": lambda: direct_sum(
        direct_sum(uniform(1, 2), uniform(1, 2)), _LOOP),
    "U23+U11+loop+loop": lambda: direct_sum(
        direct_sum(uniform(2, 3), uniform(1, 1)), direct_sum(_LOOP, _LOOP)),
}


def _fans(matroid):
    lattice = FlatLattice(matroid)
    fans = {"min": nested_fan(min_building(lattice)),
            "max": nested_fan(max_building(lattice))}
    if not matroid.loops():
        fans["bergman"] = bergman_fan(lattice)
    return fans


def _lp_oracle(fan):
    """(i, w) -> is w in the i-th cone of fan, by LP; each pair asked once."""
    return cache(lambda i, w: cone_contains(fan.cones[i], w))


def _lp_holders(fan, w):
    """The indices of the cones of fan holding w, by LP."""
    return {i for i, cone in enumerate(fan.cones) if cone_contains(cone, w)}


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
    matroid = MATROIDS[name]()

    def no_lp(*args, **kwargs):
        raise AssertionError("fan construction or comparison called the LP")

    monkeypatch.setattr(geometry, "lp_feasible", no_lp)
    fans = _fans(matroid)
    for fan_a, fan_b in permutations(fans.values(), 2):
        compare_fans(fan_a, fan_b)
        supports_equal_on_generators(fan_a, fan_b)


@pytest.mark.parametrize("name", ["u24", "delA3", "braidK4", "U_3,6",
                                  "boolean_4", "U_2,3+U_1,1", "U_2,3+loop"])
def test_nested_rule_runs_without_elimination(name, monkeypatch):
    # built before the patch: from_matrix eliminates
    matroid = {**MATROIDS, **LOOPED}[name]()
    lattice = FlatLattice(matroid)

    def refuse(*args, **kwargs):
        raise AssertionError("elimination on a nested fan path")

    # every binding of the elimination entry points, aliases included
    originals = [getattr(linalg, entry)
                 for entry in ("rref", "rank", "nullspace", "lp_feasible")]
    for key, module in list(sys.modules.items()):
        if key == "mfk" or key.startswith("mfk."):
            for attr, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, attr, refuse)
    bergman = [] if matroid.loops() else [bergman_fan(lattice)]
    nested = [nested_fan(min_building(lattice)),
              nested_fan(max_building(lattice))]
    weights = list(product(range(-1, 2), repeat=matroid.n))
    weights.append(tuple(Fraction(j, 3) for j in range(matroid.n)))
    for fan in nested:
        for w in weights:
            fan.contains(w)
            fan.cones_containing(w)
    for fan_a, fan_b in permutations(nested + bergman, 2):
        compare_fans(fan_a, fan_b)


@pytest.mark.parametrize("name", ["braidK5", "delA3", "U(4,12)"])
def test_comparison_asks_each_fan_once_per_ray(name, monkeypatch):
    # each fan answers a ray of the other with one scan of the bases (the
    # Bergman fan) or one read of the flag (the nested fan), not one per
    # (cone, ray) pair
    matroid = (vandermonde(4, 12).matroid if name == "U(4,12)"
               else corpus(name).matroid)
    lattice = FlatLattice(matroid)
    nfan, bfan = nested_fan(min_building(lattice)), bergman_fan(lattice)
    calls = {"heaviest": 0, "flag": 0}

    def counted(key, kernel):
        def wrapper(*args):
            calls[key] += 1
            return kernel(*args)
        return wrapper

    monkeypatch.setattr(mfk.bergman, "heaviest_bases",
                        counted("heaviest", mfk.bergman.heaviest_bases))
    monkeypatch.setattr(NestedFan, "_flag_nested",
                        counted("flag", NestedFan._flag_nested))
    compare_fans(nfan, bfan)
    assert 0 < calls["heaviest"] <= len(nfan.rays())
    assert 0 < calls["flag"] <= len(bfan.rays())


@pytest.mark.parametrize("pair", ["U11-U24", "U23-U24"])
def test_fans_on_different_ground_sets_are_refused(pair):
    # the U(1,1) fan's only cone has no rays, so only the sizes can tell
    small = (nested_fan(min_building(FlatLattice(uniform(1, 1))))
             if pair == "U11-U24" else bergman_fan(FlatLattice(uniform(2, 3))))
    large = bergman_fan(FlatLattice(uniform(2, 4)))
    for fan_a, fan_b in ((small, large), (large, small)):
        for compare in (refines, compare_fans, supports_equal_on_generators):
            with pytest.raises(DimensionMismatch,
                               match=f"{fan_a.n} and {fan_b.n} elements"):
                compare(fan_a, fan_b)


@pytest.mark.parametrize("offset", [-2, 1, 3])
def test_weights_of_the_wrong_length_are_refused(offset):
    matroid = corpus("u24").matroid
    lattice = FlatLattice(matroid)
    w = (0,) * (matroid.n + offset)
    for fan in (nested_fan(min_building(lattice)), bergman_fan(lattice)):
        with pytest.raises(DimensionMismatch):
            fan.contains(w)
        with pytest.raises(DimensionMismatch):
            fan.cones_containing(w)


@cache
def _cached_fans(name):
    return tuple(_fans({**MATROIDS, **LOOPED}[name]()).values())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["U_2,3", "U_2,5", "U_3,5", "u24", "delA3", "braidK4",
                        "boolean_3", "U_2,3+U_1,1", "U_2,3+U_2,3",
                        *LOOPED]),
       st.data())
def test_cone_rules_match_lp_on_random_weights(name, data):
    fans = _cached_fans(name)
    n = fans[0].n
    entries = st.one_of(st.integers(-4, 4),
                        st.fractions(-4, 4, max_denominator=3))
    w = data.draw(st.lists(entries, min_size=n, max_size=n))
    for fan in fans:
        assert fan.cones_containing(w) == _lp_holders(fan, w), w


@pytest.mark.parametrize("name", ["U12+U12+loop", "U23+U11+loop+loop"])
def test_loop_surplus_matches_lp_on_flag_weights(name):
    # w = a·1_X + b·1_Y over pairs of flats X <= Y, with the loops moved by
    # t: each 1_X costs (|F(X)| - 1) on the loops, which only the roots
    # can absorb, so t decides membership around the boundary
    matroid = LOOPED[name]()
    lattice = FlatLattice(matroid)
    loops = lattice.bottom
    flats = lattice.flat_masks
    weights = set()
    for x, y in product(flats, repeat=2):
        if x & ~y:
            continue
        for a, b, t in product((1, 2), (1, 3), (-2, -1, 0, 1, 2)):
            weights.add(tuple(a * (x >> j & 1) + b * (y >> j & 1)
                              + t * (loops >> j & 1)
                              for j in range(matroid.n)))
    for fan in _cached_fans(name):
        inside = 0
        for w in sorted(weights):
            expected = _lp_holders(fan, w)
            assert fan.cones_containing(w) == expected, w
            inside += len(expected)
        assert inside


@pytest.mark.parametrize("matroid", [
    direct_sum(direct_sum(uniform(1, 1), uniform(1, 1)), _LOOP),
    direct_sum(direct_sum(uniform(1, 2), uniform(1, 1)), _LOOP),
    direct_sum(direct_sum(uniform(2, 2), _LOOP), _LOOP),
    LOOPED["U_2,3+loop"](),
    LOOPED["U_2,4+loop"](),
], ids=["U11+U11+loop", "U12+U11+loop", "U22+loop+loop", "U23+loop",
        "U24+loop"])
def test_every_building_set_cone_rule_matches_lp(matroid):
    # a loop lies in every member, so its coordinate is the sum of all the
    # coefficients; when the maximal members cover every other element it
    # fixes the multiple of the all-ones vector (U23+loop and U24+loop
    # have the full flat in their only building set)
    lattice = FlatLattice(matroid)
    flats = [from_mask(f) for level in lattice.by_rank[1:] for f in level]
    grid = list(product(range(-1, 3), repeat=matroid.n))
    grid += product((Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2)),
                    repeat=matroid.n)
    for size in range(1, len(flats) + 1):
        for members in combinations(flats, size):
            if not is_building_set(lattice, members):
                continue
            building = BuildingSet(lattice=lattice,
                                   members=frozenset(members))
            assert nested_oracle.element_sets(
                building, maximal_nested_sets(building)) == \
                nested_oracle.maximal_nested_sets(building)
            fan = nested_fan(building)
            for w in grid:
                assert fan.cones_containing(w) == _lp_holders(fan, w), \
                    (members, w)
