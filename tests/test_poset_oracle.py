"""Each graded poset ranked by its own covers, against ``poset_oracle``.

``FlatLattice.maximal_chains`` must list the same chains in the same order
as the level-scanning flag search (the Bergman fan's ``fine_chains``) and as
the cubic-cover walk (``order_complex`` on the intervals [bottom, F] and
[F, top] of every flat F).  ``FlatLattice.moebius_mask``, found by
Weisner's rule as the covers are, must match the all-pairs recursion on
every flat, loops included.  ``face_lattice`` must grade every face as the
rank of its vertex differences does, and it must make no ``rank`` call.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poset_oracle
from minkowski_oracle import minkowski_sum
from mfk import geometry, linalg
from mfk.bergman import bergman_fan
from mfk.bitset import from_mask
from mfk.corpus import corpus
from mfk.errors import EmptyInterval
from mfk.geometry import convex_hull, face_lattice
from mfk.lattice import FlatLattice, order_complex
from mfk.matroid import (Matroid, direct_sum, from_graph, from_matrix,
                         uniform)
from mfk.polytope import polytope

_LOOP = Matroid(1, [0])
_COLOOP = uniform(1, 1)

_MATROIDS = {
    **{f"U{d},{n}": (lambda d=d, n=n: uniform(d, n))
       for n in range(1, 7) for d in range(1, n + 1)},
    **{name: (lambda name=name: corpus(name).matroid)
       for name in ("u23", "u24", "delA3", "braidK4", "braidK5",
                    "boolean_3", "boolean_4")},
    "loop": lambda: _LOOP,
    "U23+loop": lambda: direct_sum(uniform(2, 3), _LOOP),
    "loop+U24+coloop": lambda: direct_sum(direct_sum(_LOOP, uniform(2, 4)),
                                          _COLOOP),
    "U12+loop+loop": lambda: direct_sum(uniform(1, 2),
                                        direct_sum(_LOOP, _LOOP)),
    "delA3+coloop": lambda: direct_sum(corpus("delA3").matroid, _COLOOP),
    "U23+U24": lambda: direct_sum(uniform(2, 3), uniform(2, 4)),
}


def _chains_agree_with_oracle(m):
    lattice = FlatLattice(m)
    bottom, top = lattice.bottom, lattice.top
    flags = lattice.maximal_chains(bottom, top)
    assert flags == poset_oracle.proper_flags(lattice)
    _moebius_agrees_with_oracle(lattice)
    if not m.loops():
        assert bergman_fan(m, lattice).fine_chains == tuple(
            tuple(from_mask(f) for f in flag) for flag in flags)
    for flat in lattice.flat_masks:
        for lo, hi in ((bottom, flat), (flat, top)):
            try:
                expected = poset_oracle.order_complex(lattice, lo, hi)
            except EmptyInterval:
                with pytest.raises(EmptyInterval):
                    order_complex(lattice, from_mask(lo), from_mask(hi))
                continue
            assert (lattice.maximal_chains(lo, hi)
                    == poset_oracle.interval_chains(lattice, lo, hi))
            assert order_complex(lattice, from_mask(lo),
                                 from_mask(hi)) == expected


def _moebius_agrees_with_oracle(lattice):
    oracle = poset_oracle.moebius(lattice)
    assert {f: lattice.moebius_mask(f) for f in lattice.flat_masks} == oracle


_LARGE = {
    **{f"boolean_{k}": (lambda k=k: corpus(f"boolean_{k}").matroid)
       for k in range(5, 8)},
    "U5,10": lambda: uniform(5, 10),
    "U6,12": lambda: uniform(6, 12),
    "K6": lambda: from_graph(6, list(combinations(range(1, 7), 2))),
}


@pytest.mark.parametrize("name", list(_LARGE))
def test_moebius_matches_the_oracle_on_larger_lattices(name):
    _moebius_agrees_with_oracle(FlatLattice(_LARGE[name]()))


@pytest.mark.parametrize("name", list(_MATROIDS))
def test_chains_match_the_oracle(name):
    _chains_agree_with_oracle(_MATROIDS[name]())


@st.composite
def _integer_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=1, max_value=6))
    return draw(st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                                  min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=40, deadline=None)
@given(_integer_matrices())
def test_chains_match_the_oracle_on_matrices(rows):
    _chains_agree_with_oracle(from_matrix(rows)[0])


def test_maximal_chains_of_a_cover_and_of_a_point():
    lattice = FlatLattice(uniform(2, 3))
    atom = lattice.by_rank[1][0]
    assert lattice.maximal_chains(lattice.bottom, atom) == [()]
    assert lattice.maximal_chains(atom, atom) == [()]
    assert lattice.maximal_chains(atom, lattice.by_rank[1][1]) == []


_SIMPLEX = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
_HULLS = {
    "octahedron": lambda: convex_hull([
        (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
        (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)]),
    "point": lambda: convex_hull([(1, 2, 3)]),
    "segment": lambda: convex_hull([(0, 0, 0), (2, 4, 6)]),
    "triangle": lambda: convex_hull([(0, 0), (1, 0), (0, 1)]),
    "simplex": lambda: convex_hull(_SIMPLEX),
    "tetrahedron": lambda: convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                        (0, 0, 1)]),
    "square": lambda: convex_hull([(0, 0), (0, 2), (2, 0), (2, 2), (1, 1)]),
    "hexagon": lambda: minkowski_sum(
        convex_hull(_SIMPLEX),
        convex_hull([tuple(-x for x in v) for v in _SIMPLEX])),
}


@pytest.mark.parametrize("name", list(_HULLS))
def test_face_lattice_of_hulls_matches_the_oracle(name):
    p = _HULLS[name]()
    assert face_lattice(p) == poset_oracle.face_lattice(p)


@pytest.mark.parametrize("name", list(_MATROIDS))
def test_face_lattice_of_matroid_polytopes_matches_the_oracle(name):
    p = polytope(_MATROIDS[name]())
    assert face_lattice(p) == poset_oracle.face_lattice(p)


@settings(max_examples=30, deadline=None)
@given(_integer_matrices())
def test_face_lattice_matches_the_oracle_on_matrices(rows):
    p = polytope(from_matrix(rows)[0])
    assert face_lattice(p) == poset_oracle.face_lattice(p)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(*[st.integers(min_value=-2, max_value=2)] * 3),
                min_size=1, max_size=7))
def test_face_lattice_matches_the_oracle_on_random_hulls(points):
    p = convex_hull(points)
    assert face_lattice(p) == poset_oracle.face_lattice(p)


def test_face_lattice_makes_no_rank_call(monkeypatch):
    hull = _HULLS["octahedron"]()
    braid = polytope(corpus("braidK4").matroid)

    def refuse(*args, **kwargs):
        raise AssertionError("face_lattice called rank")

    monkeypatch.setattr(linalg, "rank", refuse)
    assert not hasattr(geometry, "rank")
    assert face_lattice(hull).f_vector == (6, 12, 8, 1)
    assert sum(face_lattice(braid).f_vector) > 1
