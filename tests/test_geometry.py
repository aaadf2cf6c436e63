from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkowski_oracle import minkowski_sum
from mfk.errors import DimensionMismatch
from mfk.geometry import (Fan, cone_contains, cone_unimodular, convex_hull,
                          face_lattice, irredundant_rays,
                          quotient_coordinates, quotient_ray, quotient_rep,
                          smith_normal_form)
from mfk.linalg import lp_feasible


U24_VERTICES = [
    (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
    (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)]


def test_hull_octahedron():
    p = convex_hull(U24_VERTICES)
    assert p.dim == 3
    assert len(p.vertices) == 6
    assert len(p.facets) == 8


def test_hull_single_point():
    p = convex_hull([(1, 2, 3)])
    assert p.dim == 0
    assert p.facets == ()


def test_hull_standard_simplex():
    p = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert p.dim == 2
    assert len(p.facets) == 3


def test_hull_drops_interior_points():
    square = [(0, 0), (0, 2), (2, 0), (2, 2), (1, 1)]
    p = convex_hull(square)
    assert len(p.vertices) == 4
    assert all(tuple(map(int, v)) != (1, 1) for v in p.vertices)


def test_hull_vertices_satisfy_facets():
    p = convex_hull(U24_VERTICES)
    for normal, offset in p.facets:
        assert all(sum(a * x for a, x in zip(normal, v)) <= offset
                   for v in p.vertices)
        on = [v for v in p.vertices
              if sum(a * x for a, x in zip(normal, v)) == offset]
        assert len(on) >= p.dim


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(len(U24_VERTICES)))),
       st.integers(min_value=0, max_value=5))
def test_hull_order_and_duplicate_insensitive(perm, dup):
    pts = [U24_VERTICES[i] for i in perm] + [U24_VERTICES[dup]]
    p = convex_hull(pts)
    q = convex_hull(U24_VERTICES)
    assert p == q


def test_face_lattice_octahedron_f_vector():
    p = convex_hull(U24_VERTICES)
    assert face_lattice(p).f_vector == (6, 12, 8, 1)


def test_face_lattice_segment():
    p = convex_hull([(0, 0, 0), (2, 4, 6)])
    assert face_lattice(p).f_vector == (2, 1)


def test_face_lattice_euler_relation():
    for pts in (U24_VERTICES,
                [(0, 0), (1, 0), (0, 1)],
                [(0, 0, 0), (2, 4, 6)],
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        fl = face_lattice(convex_hull(pts))
        assert sum((-1) ** i * c for i, c in enumerate(fl.f_vector)) == 1


def test_minkowski_hexagon():
    simplex = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    reflected = convex_hull([(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    hexagon = minkowski_sum(simplex, reflected)
    assert len(hexagon.vertices) == 6
    assert hexagon.dim == 2


def test_minkowski_point_translates():
    p = convex_hull(U24_VERTICES)
    q = minkowski_sum(p, convex_hull([(1, 1, 1, 1)]))
    shifted = {tuple(x + 1 for x in v) for v in p.vertices}
    assert set(q.vertices) == shifted


def test_minkowski_edge_translate():
    e = convex_hull([(1, 0, 0), (0, 1, 0)])
    pt = convex_hull([(0, 0, 1)])
    s = minkowski_sum(e, pt)
    assert s.dim == 1
    assert len(s.vertices) == 2


def test_minkowski_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        minkowski_sum(convex_hull([(0, 0)]), convex_hull([(0, 0, 0)]))


def test_minkowski_normal_fan_refinement_count():
    # hexagon has 6 maximal normal cones; factors have 3 each
    simplex = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    reflected = convex_hull([(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    hexagon = minkowski_sum(simplex, reflected)
    assert len(hexagon.facets) == 6
    assert len(simplex.facets) == len(reflected.facets) == 3


def test_smith_normal_form_examples():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
    assert smith_normal_form([[2, 0], [0, 4]]) == (2, 4)
    assert smith_normal_form([[1, 0], [1, 1]]) == (1, 1)
    assert smith_normal_form([[Fraction(4, 2), 0], [0, Fraction(6)]]) == (2, 6)


@pytest.mark.parametrize("matrix,factors", [
    ([], ()),
    ([[]], ()),
    ([[0, 0], [0, 0]], ()),
    ([[0, 0, 0]], ()),
    ([[6, 4]], (2,)),
    ([[6], [4], [9]], (1,)),
    ([[2, 4, 4], [-6, 6, 12]], (2, 6)),
    ([[4, 6], [6, 9], [2, 3]], (1,)),
    ([[2, 3], [3, 5]], (1, 1)),
    ([[1, 2, 3], [0, 1, 4], [0, 0, -1]], (1, 1, 1)),
    ([[-2, 0], [0, -3]], (1, 6)),
])
def test_smith_normal_form_zero_nonsquare_unimodular(matrix, factors):
    assert smith_normal_form(matrix) == factors
    if matrix and matrix[0]:
        assert factors == _determinantal_factors(matrix)


@pytest.mark.parametrize("matrix", [
    [[Fraction(3, 2), 0], [0, Fraction(1, 3)]],
    [[2.7]],
    [[1, 0], [0, Fraction(1, 2)]],
])
def test_smith_normal_form_refuses_non_integers(matrix):
    with pytest.raises(ValueError, match="is not an integer"):
        smith_normal_form(matrix)



def _det(m) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _determinantal_factors(m) -> tuple[int, ...]:
    """Invariant factors d_k / d_(k-1), d_k the gcd of the k x k minors."""
    factors, previous = [], 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        d = 0
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(len(m[0])), k):
                d = gcd(d, _det([[m[i][j] for j in cols] for i in rows]))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return tuple(factors)


@settings(max_examples=250, deadline=None)
@given(st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-8, 8) | st.just(0), min_size=cols, max_size=cols),
    min_size=1, max_size=4)))
def test_smith_normal_form_matches_determinantal_divisors(matrix):
    assert smith_normal_form(matrix) == _determinantal_factors(matrix)


def test_quotient_rep_canonical():
    assert quotient_rep((3, 1, 2, 1)) == (2, 0, 1, 0)
    assert quotient_rep(quotient_rep((3, 1, 2, 1))) == (2, 0, 1, 0)
    assert quotient_ray((2, 0, 2, 0)) == (1, 0, 1, 0)


def test_cone_contains_sum_of_generators():
    c = [(1, 0, 0, 0), (1, 1, 0, 1)]
    assert cone_contains(c, (2, 1, 0, 1))


def test_cone_contains_zero_class():
    c = [(1, 0, 0)]
    assert cone_contains(c, (0, 0, 0))
    assert cone_contains(c, (7, 7, 7))


def test_cone_contains_respects_quotient():
    # (0,1,1,1) is the class of -e_1 and is not in the ray of e_1
    c = [(1, 0, 0, 0)]
    assert cone_contains(c, (3, 0, 0, 0))
    assert not cone_contains(c, (0, 1, 1, 1))


def test_antipodal_ray_not_contained():
    # in Z^2/Z(1,1), e_1 and e_2 are opposite rays
    c = [(0, 1)]
    assert not cone_contains(c, (1, 0))
    assert cone_contains(c, (0, 5))


@pytest.mark.parametrize("w", [(1, 0), (1, 0, 0, 0, 0, 0)])
def test_cone_contains_refuses_a_vector_of_another_length(w):
    c = [(1, 0, 0, 0), (1, 1, 0, 1)]
    with pytest.raises(DimensionMismatch):
        cone_contains(c, w)


def test_cone_subset():
    # a cone lies inside another exactly when all its generators do
    big = irredundant_rays([(1, 0, 0, 0), (1, 1, 0, 1), (0, 0, 1, 0)])
    small = irredundant_rays([(1, 0, 0, 0), (2, 1, 1, 1)])
    assert all(cone_contains(big, r) for r in small)
    assert not all(cone_contains(small, r) for r in big)


def test_irredundant_rays_drops_interior():
    rays = irredundant_rays([(1, 0, 0, 0, 0), (1, 1, 0, 1, 0),
                             (1, 0, 1, 0, 1)])
    # e_1 = e_124 + e_135 modulo the all-ones vector
    assert rays == ((1, 0, 1, 0, 1), (1, 1, 0, 1, 0))


def test_irredundant_rays_normalises_its_vectors():
    # each vector becomes its primitive ray, min coordinate 0; the zero
    # class spans nothing and repeats collapse
    assert irredundant_rays([(1, 1, 0), (2, 2, 0), (0, 0, 0), (3, 3, 3),
                             (5, 3, 3)]) == ((1, 0, 0), (1, 1, 0))
    assert irredundant_rays([(4, 4)]) == ()


def test_cone_unimodular():
    assert cone_unimodular([(1, 0, 0), (1, 1, 0)], 3)
    assert not cone_unimodular([(0, 1, 1, 0), (1, 0, 0, 1)], 4)


def test_cone_unimodular_refuses_a_fractional_ray():
    # int() would truncate 3/2 to the lattice vector e_1
    with pytest.raises(ValueError):
        cone_unimodular([(Fraction(3, 2), 0, 0)], 3)


def test_fan_rays_and_contains():
    # a bare Fan has no membership rule; the LP decides its cones
    fan = Fan(n=4, rays=((0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 0)),
              cones=((2,), (0, 1)))
    assert len(fan.rays) == 3
    assert not hasattr(fan, "contains")
    cones = [[fan.rays[i] for i in c] for c in fan.cones]
    assert any(cone_contains(c, (0, 2, 1, 0)) for c in cones)
    assert not any(cone_contains(c, (0, 0, 0, 1)) for c in cones)


def test_lp_feasible_basic():
    # x + y = 2, x,y >= 0 is feasible; x + y = -1 is not
    assert lp_feasible([[1, 1]], [2], num_nonneg=2) is not None
    assert lp_feasible([[1, 1]], [-1], num_nonneg=2) is None
    # free variable makes it feasible again
    solution = lp_feasible([[1, 1]], [-1], num_nonneg=1)
    assert solution is not None
    x, t = solution
    assert x >= 0 and x + t == -1


def test_lp_feasible_exact_fractions():
    a = [[Fraction(1, 3), Fraction(1, 7)]]
    b = [Fraction(10, 21)]
    sol = lp_feasible(a, b, num_nonneg=2)
    assert sol is not None
    assert a[0][0] * sol[0] + a[0][1] * sol[1] == b[0]


def test_zero_cone_holds_exactly_the_constant_vectors():
    zero = ()
    assert not cone_contains(zero, (Fraction(1, 2), 0, 0))
    assert not cone_contains(zero, (1, 0, 0))
    assert cone_contains(zero, (Fraction(1, 2),) * 3)
    assert cone_contains(zero, (-2, -2, -2))
    assert cone_contains(zero, (Fraction(3, 2), 0, 0)) is False


def test_quotient_rep_refuses_fractional_coordinates():
    for vec in [(Fraction(1, 2), 0, 0), (Fraction(3, 2), 0, 0), ("1/3", 1)]:
        with pytest.raises(ValueError):
            quotient_rep(vec)
        with pytest.raises(ValueError):
            quotient_ray(vec)
    assert quotient_rep((Fraction(4, 2), 1, 3)) == (1, 0, 2)
    assert quotient_ray((Fraction(6, 1), 2, Fraction(4))) == (2, 0, 1)


_BOOLEAN_CALLS = {
    "quotient_rep": lambda: quotient_rep((True, 0, 2)),
    "quotient_ray": lambda: quotient_ray((True, False)),
    "quotient_coordinates": lambda: quotient_coordinates((1, False, 0)),
    "smith_normal_form": lambda: smith_normal_form([[True, 0], [0, 2]]),
}


@pytest.mark.parametrize("routine", list(_BOOLEAN_CALLS))
def test_integer_helpers_refuse_booleans(routine):
    # a bool is an int subclass; as a coordinate it is a mistake, not 1 or 0
    with pytest.raises(ValueError, match="is not an integer"):
        _BOOLEAN_CALLS[routine]()


def test_integer_helpers_answer_the_same_ints():
    assert quotient_rep((1, 0, 2)) == (1, 0, 2)
    assert quotient_ray((1, 0)) == (1, 0)
    assert quotient_coordinates((1, 0, 0)) == (1, 0)
    assert smith_normal_form([[1, 0], [0, 2]]) == (1, 2)
