import sys
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mfk.polytope
from mfk.corpus import corpus
from mfk.errors import (DimensionMismatch, Disconnected, LoopsPresent,
                        NotAFace)
from mfk.geometry import convex_hull, face_lattice
from mfk.jsonio import polytope_to_json
from mfk.matroid import direct_sum, from_bases, from_matrix, uniform
from mfk.polytope import (degeneration, face_matroid, facets,
                          indicator_vertex, polytope, sublevel_masks)
from theorem_checks import dual_reflection_check


def test_polytope_u24_octahedron(u24):
    p = polytope(u24.matroid)
    assert p.dim == 3
    assert len(p.vertices) == 6
    assert face_lattice(p).f_vector == (6, 12, 8, 1)


def test_polytope_dela3(dela3):
    p = polytope(dela3.matroid)
    assert p.dim == 4
    assert len(p.vertices) == 8


def test_polytope_boolean_point():
    p = polytope(uniform(4, 4))
    assert p.dim == 0
    assert p.vertices == ((1, 1, 1, 1),)


def test_polytope_dimension_formula(dela3, braid_k4):
    from mfk.matroid import direct_sum
    with_loop, _ = from_matrix([[1, 0, 1, 1], [0, 0, 1, -1]])
    for m in (dela3.matroid, braid_k4.matroid, uniform(2, 5), uniform(3, 3),
              direct_sum(uniform(2, 3), uniform(1, 2)), with_loop):
        p = polytope(m)
        assert p.dim == m.n - m.components().kappa
        assert sorted(p.vertices) == sorted(indicator_vertex(m.n, b)
                                            for b in m.bases)


def test_polytope_dim_additive_over_sums():
    from mfk.matroid import direct_sum
    m1, m2 = uniform(2, 4), uniform(1, 2)
    p1, p2 = polytope(m1), polytope(m2)
    p = polytope(direct_sum(m1, m2))
    assert p.dim == p1.dim + p2.dim


def test_constancy_chain_examples():
    # the constancy chain of a weight is its ascending sublevel masks, bit
    # i - 1 for element i
    assert sublevel_masks([0, 0, 0, 0]) == [0b1111]
    assert sublevel_masks([1, 0, 0, 0]) == [0b1110, 0b1111]
    assert sublevel_masks([3, 1, 2, 1]) == [0b1010, 0b1110, 0b1111]
    assert degeneration(uniform(2, 4), [3, 1, 2, 1]).chain == (
        0b1010, 0b1110, 0b1111)


def test_constancy_chain_rational_ties():
    chain = sublevel_masks([Fraction(1, 2), Fraction(2, 4), Fraction(0)])
    assert chain == [0b100, 0b111]


def test_degeneration_u24_loop(u24):
    deg = degeneration(u24.matroid, [1, 0, 0, 0])
    assert deg.matroid_u.loops() == {1}
    assert sorted(map(sorted, deg.matroid_u.bases)) == [[2, 3], [2, 4], [3, 4]]
    assert not deg.loop_free


def test_degeneration_dela3_two_components(dela3):
    deg = degeneration(dela3.matroid, [-1, -1, 0, -1, 0])
    assert deg.loop_free
    assert deg.matroid_u.components().kappa == 2


def test_degeneration_zero_weight_identity(dela3):
    deg = degeneration(dela3.matroid, [0] * 5)
    assert deg.matroid_u == dela3.matroid
    assert deg.loop_free


def test_degeneration_minimizing_face_property(dela3):
    m = dela3.matroid
    for w in [(1, 0, 0, 0, 0), (-1, 2, 0, 1, 1), (0, 0, -1, -1, 2)]:
        deg = degeneration(m, w)
        values = {b: sum(wi for wi, i in zip(w, range(1, 6)) if i in b)
                  for b in m.bases}
        best = min(values.values())
        chosen = {b for b, v in values.items() if v == best}
        assert set(deg.matroid_u.bases) == chosen


def test_degeneration_loop_free_iff_chain_of_flats(u24, dela3):
    # the three-way equivalence, swept over small weight grids
    for m in (u24.matroid, dela3.matroid):
        boundary_mask = 0
        for w in product((-1, 0, 1), repeat=m.n):
            deg = degeneration(m, w)
            chain_flats = all(m.closure_mask(s) == s for s in deg.chain)
            assert deg.loop_free == (not deg.matroid_u.loops())
            assert chain_flats == deg.loop_free
            # face lies off the simplex boundary iff every element is used
            used = set()
            for b in deg.matroid_u.bases:
                used |= b
            off_boundary = used == m.ground
            assert off_boundary == deg.loop_free
            boundary_mask += 1


def test_degeneration_component_count_bound(dela3):
    m = dela3.matroid
    for w in [(1, 0, 0, 0, 0), (2, 1, 0, 1, 0), (3, 2, 1, 0, 0)]:
        deg = degeneration(m, w)
        k = len(deg.chain)
        kappa = deg.matroid_u.components().kappa
        assert kappa >= k


def test_degeneration_codimension_when_tight(dela3):
    # weights whose chain blocks all stay connected give codim k-1 faces
    m = dela3.matroid
    hull = polytope(m)
    faces = face_lattice(hull)
    vertex_index = {v: i for i, v in enumerate(hull.vertices)}
    for w in product((-1, 0, 1), repeat=5):
        deg = degeneration(m, w)
        k = len(deg.chain)
        kappa = deg.matroid_u.components().kappa
        if kappa != k:
            continue
        indices = frozenset(vertex_index[indicator_vertex(5, b)]
                            for b in deg.matroid_u.bases)
        dim_face = next(d for d, level in enumerate(faces.faces_by_dim)
                        if indices in level)
        assert hull.dim - dim_face == k - 1


def test_facets_dela3_classification(dela3):
    got = facets(dela3.matroid)
    interior = sorted(sorted(f.flat) for f in got if f.kind == "interior")
    assert interior == [[1, 2, 4], [1, 3, 5], [2], [3], [4], [5]]
    boundary = [f for f in got if f.kind == "boundary"]
    assert len(boundary) == 1
    assert boundary[0].element == 1
    assert sorted(map(sorted, boundary[0].vertex_bases)) == [
        [2, 3, 4], [2, 3, 5], [2, 4, 5], [3, 4, 5]]


def test_facets_u24(u24):
    got = facets(u24.matroid)
    interior = sorted(sorted(f.flat) for f in got if f.kind == "interior")
    assert interior == [[1], [2], [3], [4]]
    assert sum(1 for f in got if f.kind == "boundary") == 4


def test_facets_free_matroid_trivial():
    assert facets(uniform(1, 1)) == []


def test_facets_requires_connected():
    with pytest.raises(Disconnected):
        facets(uniform(2, 2))


def test_facets_requires_loop_free():
    m, _ = from_matrix([[1, 0, 0], [0, 0, 1]])
    with pytest.raises(LoopsPresent):
        facets(m)


def test_facets_agree_with_hull(dela3, u24, braid_k4):
    for m in (dela3.matroid, u24.matroid, braid_k4.matroid, uniform(2, 5)):
        described = facets(m)
        hull = _hull(m)
        assert len(described) == len(hull.facets)
        vertex_index = {v: i for i, v in enumerate(hull.vertices)}
        hull_facet_sets = set()
        for normal, offset in hull.facets:
            on = frozenset(i for i, v in enumerate(hull.vertices)
                           if sum(a * x for a, x in zip(normal, v)) == offset)
            hull_facet_sets.add(on)
        for d in described:
            indices = frozenset(vertex_index[indicator_vertex(m.n, b)]
                                for b in d.vertex_bases)
            assert indices in hull_facet_sets


@cache
def _hull(matroid):
    """The test oracle: the brute-force hull of the basis indicators."""
    return convex_hull(indicator_vertex(matroid.n, b) for b in matroid.bases)


def _artifact(p):
    return polytope_to_json(p, face_lattice(p))


_LOOP = from_bases(1, [[]])
_SUMS = {
    "U23+loop": direct_sum(uniform(2, 3), _LOOP),
    "U23+U11": direct_sum(uniform(2, 3), uniform(1, 1)),
    "U23+U23": direct_sum(uniform(2, 3), uniform(2, 3)),
    "U12+U12": direct_sum(uniform(1, 2), uniform(1, 2)),
    "U12+U11+loop": direct_sum(direct_sum(uniform(1, 2), uniform(1, 1)),
                               _LOOP),
}
_ORACLE_INPUTS = {
    **{f"U{d},{n}": (lambda d=d, n=n: uniform(d, n))
       for n in range(1, 7) for d in range(1, n + 1)},
    **{name: (lambda name=name: corpus(name).matroid)
       for name in ("u23", "u24", "delA3", "braidK4", "boolean_4")},
    **{name: (lambda m=m: m) for name, m in _SUMS.items()},
}


@pytest.mark.parametrize("name", list(_ORACLE_INPUTS))
def test_polytope_matches_hull_oracle(name):
    m = _ORACLE_INPUTS[name]()
    assert _artifact(polytope(m)) == _artifact(_hull(m))


_small_matrices = st.integers(1, 3).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-1, 1), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


@settings(max_examples=100, deadline=None)
@given(_small_matrices)
def test_polytope_matches_hull_on_integer_matrices(rows):
    m, _ = from_matrix(rows)
    # the hull oracle costs C(#vertices, dim) nullspaces; the uniform
    # matroids above cover the larger polytopes
    assume(len(m.base_masks) <= 12)
    assert _artifact(polytope(m)) == _artifact(_hull(m))


def test_polytope_and_face_matroid_use_no_generic_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generic solver was called")

    modules = [m for key, m in sys.modules.items()
               if key == "mfk" or key.startswith("mfk.")]
    for name in ("convex_hull", "face_lattice", "lp_feasible"):
        assert not hasattr(mfk.polytope, name)
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    matroids = [corpus(name).matroid
                for name in ("u23", "u24", "delA3", "braidK4", "braidK5",
                             "boolean_3")]
    for m in matroids + list(_SUMS.values()):
        p = polytope(m)
        assert p.dim == m.n - m.components().kappa
        assert face_matroid(m, m.bases) == m
        assert face_matroid(m, m.bases[:1]).bases == m.bases[:1]
        if m.is_connected():
            described = facets(m)
            for d in (described[0], described[-1]):
                assert set(face_matroid(m, d.vertex_bases).bases) == \
                    set(d.vertex_bases)


@pytest.mark.parametrize("name", ["u24", "delA3", "braidK4"])
def test_face_matroid_accepts_exactly_the_faces(name):
    m = corpus(name).matroid
    hull = _hull(m)
    base_of = {v: frozenset(i + 1 for i, x in enumerate(v) if x == 1)
               for v in hull.vertices}
    faces = {frozenset(base_of[hull.vertices[i]] for i in face)
             for level in face_lattice(hull).faces_by_dim for face in level}
    for face in faces:
        assert set(face_matroid(m, face).bases) == face
    for pair in combinations(m.bases, 2):
        if frozenset(pair) not in faces:
            with pytest.raises(NotAFace, match="is not a face"):
                face_matroid(m, pair)
    with pytest.raises(NotAFace):
        face_matroid(m, [])


def test_face_matroid_octahedron_facet(u24):
    fm = face_matroid(u24.matroid, [{2, 3}, {2, 4}, {3, 4}])
    assert fm.loops() == {1}
    assert fm.restriction({2, 3, 4}) == uniform(2, 3)


def test_face_matroid_full_vertex_set(u24):
    assert face_matroid(u24.matroid, u24.matroid.bases) == u24.matroid


def test_face_matroid_single_vertex(u24):
    fm = face_matroid(u24.matroid, [{1, 2}])
    assert fm.bases == (frozenset({1, 2}),)
    assert fm.loops() == {3, 4}


def test_face_matroid_rejects_non_face(u24):
    with pytest.raises(NotAFace):
        face_matroid(u24.matroid, [{1, 2}, {3, 4}])


def test_dual_reflection_corpus(dela3, u24, braid_k4):
    for m in (dela3.matroid, u24.matroid, braid_k4.matroid,
              uniform(3, 3), uniform(2, 5)):
        assert dual_reflection_check(m)


def _interval_minor_sum(m, chain):
    """Bases of the direct sum of the interval minors of a chain of sets.

    Block k is (M|S_k)/S_{k-1}; a basis of the sum extends a basis of M|S_k
    that already meets S_{k-1} in the chosen basis of M|S_{k-1}.
    """
    def restriction_bases(mask):
        r = m.rank_mask(mask)
        return sorted({b & mask for b in m.base_masks
                       if bin(b & mask).count("1") == r})

    block_bases = []
    prev_mask = anchor = 0
    for mask in chain:
        level = [b for b in restriction_bases(mask) if b & prev_mask == anchor]
        block_bases.append(sorted({b & ~prev_mask for b in level}))
        anchor = level[0]
        prev_mask = mask
    unions = {0}
    for blocks in block_bases:
        unions = {u | b for u in unions for b in blocks}
    return sorted(unions)


_FRACTION_WEIGHTS = [
    [Fraction(1, 2), Fraction(-3, 4), Fraction(0), Fraction(5, 3),
     Fraction(2, 7), Fraction(-1, 3)],
    [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(-1, 2),
     Fraction(1, 3), Fraction(0)],
    [Fraction(-7, 5), Fraction(7, 10), Fraction(7, 10), Fraction(0),
     Fraction(-7, 5), Fraction(7, 10)],
]


@pytest.mark.parametrize("name", ["u24", "delA3", "braidK4"])
def test_degeneration_is_direct_sum_of_interval_minors(name):
    # the degeneration is the face of minimal u-weight; Feichtner-Sturmfels
    # describe the same matroid as the sum of the minors along the chain
    m = corpus(name).matroid
    weights = list(product((-1, 0, 1), repeat=m.n))
    weights += [w[:m.n] for w in _FRACTION_WEIGHTS]
    for w in weights:
        deg = degeneration(m, w)
        assert list(deg.matroid_u.base_masks) == \
            _interval_minor_sum(m, deg.chain), w
        chain_flats = all(m.closure_mask(s) == s for s in deg.chain)
        assert deg.loop_free == chain_flats == (not deg.matroid_u.loops())


def test_degeneration_refuses_a_weight_of_the_wrong_length(u24):
    for w in ([1, 0], [1, 0, 0, 0, 0], []):
        with pytest.raises(DimensionMismatch):
            degeneration(u24.matroid, w)


def test_degeneration_of_scaled_weight_is_unchanged(dela3):
    m = dela3.matroid
    for w in _FRACTION_WEIGHTS:
        w = w[:m.n]
        scaled = [3 * x / 7 for x in w]
        assert (degeneration(m, scaled).matroid_u
                == degeneration(m, w).matroid_u)
