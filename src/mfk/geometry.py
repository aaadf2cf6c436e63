"""Exact rational polytopes, cones in Z^n modulo the all-ones vector, fans.

The convex hull is brute force over supporting hyperplanes, one LP per
point, and serves the DCP weight polytope.  It, ``cone_contains`` (LP
membership) and ``irredundant_rays`` (LP greedy) are the test oracles of
the matroid polytope, of each fan's own cone rule and of the Bergman rays.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import NamedTuple

from .errors import DimensionMismatch
from .linalg import (_integer, content, frac, lp_feasible, nullspace,
                     primitive_integer, rref, smith_normal_form)


# -- quotient lattice Z^n / Z·(1,...,1) ---------------------------------------


def quotient_rep(vec) -> tuple[int, ...]:
    """Canonical class representative: minimum coordinate zero.

    Coordinates must be integers (ints or integral rationals); any other
    entry, a bool included, raises ValueError.
    """
    ints = [x if type(x) is int else _integer(x) for x in vec]
    m = min(ints)
    return tuple(x - m for x in ints)


def quotient_ray(vec) -> tuple[int, ...]:
    """Canonical primitive ray generator: min coordinate 0, coordinate gcd 1."""
    rep = quotient_rep(vec)
    g = content(rep)
    return rep if g in (0, 1) else tuple(x // g for x in rep)


def quotient_coordinates(vec) -> tuple[int, ...]:
    """Coordinates of a class in the basis e_1,...,e_{n-1} of Z^n/Z·e."""
    ints = [_integer(x) for x in vec]
    return tuple(x - ints[-1] for x in ints[:-1])


def _flat_vector(n: int, flat: int) -> tuple[int, ...]:
    """Indicator vector in Z^n of a mask."""
    return tuple(flat >> i & 1 for i in range(n))


# -- cones and fans ------------------------------------------------------------


def cone_contains(rays, vec) -> bool:
    """Test oracle: is vec a nonnegative combination of the rays modulo e?"""
    target = [frac(x) for x in vec]
    n = len(target)
    if not rays:
        return len(set(target)) <= 1
    if n != len(rays[0]):
        raise DimensionMismatch(
            f"vector has {n} entries, the cone's rays {len(rays[0])}")
    a_eq = [[frac(r[i]) for r in rays] + [Fraction(1)] for i in range(n)]
    return lp_feasible(a_eq, target, num_nonneg=len(rays)) is not None


def irredundant_rays(vectors) -> tuple[tuple[int, ...], ...]:
    """Test oracle (LP greedy): the distinct primitive rays of the vectors
    nonzero modulo e, ascending, less those in the cone of the others.

    One pass suffices: once a ray survives against the current generator
    set, later removals only shrink that set.
    """
    rays = sorted({quotient_ray(v) for v in vectors if any(quotient_rep(v))})
    keep = list(rays)
    for r in rays:
        rest = [s for s in keep if s != r]
        if rest and cone_contains(rest, r):
            keep.remove(r)
    return tuple(keep)


class Fan:
    """A fan given by its maximal cones; face closure is left implicit.

    ``rays`` holds the distinct primitive ray generators in ascending
    order, and ``cones[i]`` the ascending indices into ``rays`` of the
    i-th maximal cone.  Each kind of fan answers ``contains(w)`` for its
    support and ``cones_containing(w)``, the maximal cones holding w, for
    comparisons.
    """

    def __init__(self, n: int, rays: tuple[tuple[int, ...], ...],
                 cones: tuple[tuple[int, ...], ...]):
        self.n = n
        self.rays = rays
        self.cones = cones


def cone_unimodular(rays, n: int) -> bool:
    """Simplicial with ray classes extendable to a lattice basis of Z^n/Z·e."""
    if not rays:
        return True
    coords = [quotient_coordinates(r) for r in rays]
    factors = smith_normal_form(coords)
    return len(factors) == len(rays) and all(f == 1 for f in factors)


# -- rational polytopes ---------------------------------------------------------


class RationalPolytope(NamedTuple):
    """V- and H-description of a polytope over exact rationals.

    Facet inequalities are (normal, offset) pairs with integer primitive
    normals, oriented so that normal · x <= offset on the polytope.
    """

    vertices: tuple[tuple[Fraction, ...], ...]
    facets: tuple[tuple[tuple[int, ...], Fraction], ...]
    dim: int

    @property
    def ambient(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0


def _extreme_points(points):
    """Irredundant subset via exact LP: drop convex combinations of others."""
    keep = []
    for i, p in enumerate(points):
        others = [q for j, q in enumerate(points) if j != i]
        if not others:
            keep.append(p)
            continue
        a_eq = [[q[c] for q in others] for c in range(len(p))]
        a_eq.append([Fraction(1)] * len(others))
        b_eq = list(p) + [Fraction(1)]
        if lp_feasible(a_eq, b_eq, num_nonneg=len(others)) is None:
            keep.append(p)
    return keep


def _primitive_inequality(normal, offset):
    """Scale (normal, offset) by a positive rational to a primitive integer normal."""
    ints = primitive_integer(normal, sign_first_positive=False)
    j = next(i for i, x in enumerate(ints) if x)
    return tuple(ints), frac(offset) * ints[j] / frac(normal[j])


def convex_hull(points) -> RationalPolytope:
    """Exact convex hull: irredundant vertices plus the full facet list."""
    pts = sorted({tuple(frac(x) for x in p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    verts = sorted(_extreme_points(pts))
    origin = verts[0]
    dirs = [[v[i] - origin[i] for i in range(len(origin))] for v in verts[1:]]
    red, pivots = rref(dirs) if dirs else ([], [])
    basis = [red[i] for i in range(len(pivots))]
    m = len(basis)
    if m == 0:
        return RationalPolytope(vertices=tuple(verts), facets=(), dim=0)

    facets = {}
    for combo in combinations(range(len(verts)), m):
        base = verts[combo[0]]
        rows = []
        for idx in combo[1:]:
            d = [verts[idx][i] - base[i] for i in range(len(base))]
            rows.append([sum(d[i] * w[i] for i in range(len(d))) for w in basis])
        if not rows:
            kernel = [[Fraction(1)]]
        else:
            kernel = nullspace(rows)
        if len(kernel) != 1:
            continue
        alpha = kernel[0]
        normal = [sum(alpha[i] * basis[i][c] for i in range(m))
                  for c in range(len(base))]
        offset = sum(normal[i] * base[i] for i in range(len(base)))
        sides = [sum(normal[i] * v[i] for i in range(len(v))) - offset
                 for v in verts]
        if all(s <= 0 for s in sides):
            pass
        elif all(s >= 0 for s in sides):
            normal = [-x for x in normal]
            offset = -offset
        else:
            continue
        facets[_primitive_inequality(normal, offset)] = True
    return RationalPolytope(vertices=tuple(verts),
                            facets=tuple(sorted(facets)),
                            dim=m)


class FaceLattice(NamedTuple):
    """Nonempty faces as vertex-index sets, graded by dimension.

    The polytope itself is included, so the alternating sum of the f-vector
    is 1 for every polytope.
    """

    faces_by_dim: tuple[tuple[frozenset[int], ...], ...]
    f_vector: tuple[int, ...]


def face_lattice(polytope: RationalPolytope) -> FaceLattice:
    """All faces as maximal vertex sets on common facet intersections,
    graded by the facets of each face: a vertex has dimension 0."""
    verts = polytope.vertices
    full = frozenset(range(len(verts)))
    if polytope.dim == 0:
        return FaceLattice(faces_by_dim=((full,),), f_vector=(1,))
    # each vertex as integer numerators over one denominator: v lies on
    # normal . x = p/q exactly when (normal . nums) * q == p * den
    scaled = []
    for v in verts:
        den = lcm(*(x.denominator for x in v))
        scaled.append(([x.numerator * (den // x.denominator) for x in v], den))
    facet_sets = [frozenset(i for i, (nums, den) in enumerate(scaled)
                            if sum(map(mul, normal, nums)) * offset.denominator
                            == offset.numerator * den)
                  for normal, offset in polytope.facets]
    faces = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = set()
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h and h not in faces:
                    new.add(h)
        faces |= new
        frontier = new
    faces.add(full)

    # every facet of a face F is F & H for a facet H of the polytope, so
    # dim F = 1 + the largest dim(F & H) over the proper nonempty F & H
    dim: dict[frozenset[int], int] = {}
    by_dim: dict[int, list[frozenset[int]]] = {}
    for f in sorted(faces, key=len):
        below = [dim[h] for h in (f & g for g in facet_sets) if h and h != f]
        dim[f] = 1 + max(below, default=-1)
        by_dim.setdefault(dim[f], []).append(f)
    levels = tuple(tuple(sorted(by_dim.get(d, []), key=sorted))
                   for d in range(polytope.dim + 1))
    return FaceLattice(faces_by_dim=levels,
                       f_vector=tuple(len(level) for level in levels))

