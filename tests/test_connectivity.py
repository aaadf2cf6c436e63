"""Connectivity of minors read off the lattice of flats.

``FlatLattice.is_connected_minor(X, Y)`` judges (M|Y)/X by the cocircuits
Y - H of M|Y, H a flat covered by Y; here it must agree with the minor built
by ``restriction`` and ``contraction`` on every pair of flats X < Y, and
``Matroid.components`` with the circuit relation closed transitively.  The
guard tests show that the four connectivity sites build no minor.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rank_oracle
from mfk.bitset import blocks, from_mask
from mfk.corpus import corpus
from mfk.lattice import FlatLattice, irreducible_flats
from mfk.matroid import Matroid, direct_sum, from_graph, from_matrix, uniform
from mfk.nested import fans_equal_condition
from mfk.polytope import facets, flacets

_LOOP = Matroid(1, [0])


def _sum(*parts):
    total = parts[0]
    for part in parts[1:]:
        total = direct_sum(total, part)
    return total


_MATROIDS = {
    **{f"U{d},{n}": (lambda d=d, n=n: uniform(d, n))
       for n in range(1, 8) for d in range(1, n + 1)},
    **{name: (lambda name=name: corpus(name).matroid)
       for name in ("u23", "u24", "delA3", "braidK4", "braidK5",
                    *(f"boolean_{k}" for k in range(1, 6)))},
    "K5": lambda: from_graph(5, list(combinations(range(1, 6), 2))),
    "U11+U12": lambda: _sum(uniform(1, 1), uniform(1, 2)),
    "U22+U23": lambda: _sum(uniform(2, 2), uniform(2, 3)),
    "U23+U24": lambda: _sum(uniform(2, 3), uniform(2, 4)),
    "U12+U24+loop": lambda: _sum(uniform(1, 2), uniform(2, 4), _LOOP),
    "loop+U23+U11": lambda: _sum(_LOOP, uniform(2, 3), uniform(1, 1)),
    "U13+U12+loop+loop": lambda: _sum(uniform(1, 3), uniform(1, 2),
                                      _LOOP, _LOOP),
    "U24+U11+U22": lambda: _sum(uniform(2, 4), uniform(1, 1), uniform(2, 2)),
    # 1 and 2 parallel, 3 a loop, 4 and 5 in general position
    "parallel+loop": lambda: Matroid(5, [0b01001, 0b01010, 0b10001, 0b10010,
                                         0b11000]),
}


def _minor_rule_agrees(m):
    lattice = FlatLattice(m)
    for y in lattice.flat_masks:
        restricted = m.restriction(from_mask(y))
        relabel = {e: i + 1 for i, e in enumerate(sorted(from_mask(y)))}
        for x in lattice.interval_masks(lattice.bottom, y):
            if x == y:
                continue
            minor = restricted.contraction({relabel[e] for e in from_mask(x)})
            assert lattice.is_connected_minor(x, y) == minor.is_connected(), (
                sorted(from_mask(x)), sorted(from_mask(y)))


def _circuit_components(m):
    """e ~ f when some circuit holds both, closed transitively."""
    related = {(e, e) for e in range(1, m.n + 1)}
    for c in rank_oracle.circuit_masks(m):
        related |= {(e, f) for e in from_mask(c) for f in from_mask(c)}
    while True:
        closed = related | {(e, g) for e, f in related for f2, g in related
                            if f == f2}
        if closed == related:
            break
        related = closed
    classes = {frozenset(f for e2, f in related if e2 == e)
               for e in range(1, m.n + 1)}
    return tuple(sorted(classes, key=min))


@pytest.mark.parametrize("name", list(_MATROIDS))
def test_connected_minor_matches_the_built_minor(name):
    _minor_rule_agrees(_MATROIDS[name]())


@pytest.mark.parametrize("name", list(_MATROIDS))
def test_components_match_the_circuit_relation(name):
    m = _MATROIDS[name]()
    assert m.components().blocks == _circuit_components(m)


@st.composite
def _rational_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=7))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=60, deadline=None)
@given(_rational_matrices())
def test_connected_minor_matches_the_built_minor_on_matrices(rows):
    m = from_matrix(rows)[0]
    _minor_rule_agrees(m)
    assert m.components().blocks == _circuit_components(m)


def test_blocks_ignore_sets_outside_the_ground():
    assert blocks(0b1111, [0b0011, 0b10100, 0b1100]) == [0b0011, 0b1100]
    assert blocks(0b1110, [0b0110, 0b1000]) == [0b0110, 0b1000]
    assert blocks(0, [0b1]) == []


@pytest.mark.parametrize("name", ["u24", "delA3", "braidK4", "braidK5",
                                  "U24+U11+U22", "parallel+loop"])
def test_connectivity_sites_build_no_minor(name, monkeypatch):
    def no_minor(*args, **kwargs):
        raise AssertionError("a connectivity site built a minor")

    m = _MATROIDS[name]()
    monkeypatch.setattr(Matroid, "restriction", no_minor)
    monkeypatch.setattr(Matroid, "contraction", no_minor)
    lattice = FlatLattice(m)
    irreducible_flats(lattice)
    fans_equal_condition(lattice)
    if m.is_connected():
        assert flacets(lattice)
        facets(m)
