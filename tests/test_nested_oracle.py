"""The direct-sum rule for interval products against the exhaustive check.

``nested_oracle`` keeps the product check that enumerates the product of the
lower intervals; here ``lattice.interval_product_check`` must agree with it
on every flat with every list of up to three flats below it, and building-set
validation must find the same witness with either rule.
"""

import random
from itertools import combinations, combinations_with_replacement

import pytest

import nested_oracle
from mfk import nested
from mfk.bitset import from_mask
from mfk.corpus import corpus
from mfk.errors import NotFlats
from mfk.lattice import FlatLattice, interval_product_check
from mfk.matroid import Matroid, direct_sum, uniform
from mfk.nested import building_set_counterexample

_LOOP = Matroid(1, [0])

_MATROIDS = {
    **{f"U{d},{n}": (lambda d=d, n=n: uniform(d, n))
       for n in range(1, 6) for d in range(1, n + 1)},
    **{name: (lambda name=name: corpus(name).matroid)
       for name in ("u24", "delA3", "braidK4", "boolean_3")},
    "loop": lambda: _LOOP,
    "U23+loop": lambda: direct_sum(uniform(2, 3), _LOOP),
    "U12+U11+loop": lambda: direct_sum(direct_sum(uniform(1, 2),
                                                  uniform(1, 1)), _LOOP),
    "U23+U11": lambda: direct_sum(uniform(2, 3), uniform(1, 1)),
    "U12+U12": lambda: direct_sum(uniform(1, 2), uniform(1, 2)),
}


@pytest.mark.parametrize("name", list(_MATROIDS))
def test_interval_product_matches_the_oracle(name):
    lattice = FlatLattice(_MATROIDS[name]())
    for x in lattice.flat_masks:
        below = [from_mask(g) for g in lattice.flat_masks if g & ~x == 0]
        for size in range(4):
            for factors in combinations_with_replacement(below, size):
                assert (interval_product_check(lattice, from_mask(x), factors)
                        == nested_oracle.interval_product_check(
                            lattice, from_mask(x), factors)), (x, factors)


def test_interval_product_refuses_non_flats(dela3_lattice):
    # {1, 2} spans the flat {1, 2, 4}; the rule holds for flats only
    with pytest.raises(NotFlats):
        interval_product_check(dela3_lattice, {1, 2}, [{1}, {2}])
    with pytest.raises(NotFlats):
        interval_product_check(dela3_lattice, {1, 2, 4}, [{1, 2}, {4}])


def _member_sets(lattice, count, rng):
    """Every set of positive-rank flats, or ``count`` random ones."""
    flats = [from_mask(f) for level in lattice.by_rank[1:] for f in level]
    if 2 ** len(flats) <= count:
        return [members for size in range(len(flats) + 1)
                for members in combinations(flats, size)]
    return [[f for f in flats if rng.random() < 0.5] for _ in range(count)]


@pytest.mark.parametrize("name", ["U2,4", "U3,4", "boolean_3", "U23+loop",
                                  "U12+U11+loop", "delA3", "braidK4"])
def test_building_set_witness_matches_the_oracle(name, monkeypatch):
    lattice = FlatLattice(_MATROIDS[name]())
    candidates = _member_sets(lattice, 150, random.Random(name))
    found = [building_set_counterexample(lattice, m) for m in candidates]
    monkeypatch.setattr(nested, "interval_product_check",
                        nested_oracle.interval_product_check)
    assert found == [building_set_counterexample(lattice, m)
                     for m in candidates]
