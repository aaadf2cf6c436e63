"""Exact rational polytopes, cones in Z^n modulo the all-ones vector, fans.

The convex hull is brute force over candidate supporting hyperplanes, with
one LP per point; ``cone_contains`` is exact LP membership.  They serve the
DCP weight polytope and disconnected Bergman rays, and are the test oracles
of the matroid polytope and of every fan's own cone rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .linalg import (content, frac, lp_feasible, nullspace, primitive_integer,
                     rref, smith_normal_form)


# -- quotient lattice Z^n / Z·(1,...,1) ---------------------------------------


def quotient_rep(vec) -> tuple[int, ...]:
    """Canonical class representative: minimum coordinate zero.

    Coordinates must be integers (ints or integral rationals); any other
    entry raises ValueError.
    """
    ints = [x if isinstance(x, int) else _integer(x) for x in vec]
    m = min(ints)
    return tuple(x - m for x in ints)


def quotient_ray(vec) -> tuple[int, ...]:
    """Canonical primitive ray generator: min coordinate 0, coordinate gcd 1."""
    rep = quotient_rep(vec)
    g = content(rep)
    return rep if g in (0, 1) else tuple(x // g for x in rep)


def _integer(x) -> int:
    value = Fraction(x)
    if value.denominator != 1:
        raise ValueError(f"coordinate {x!r} is not an integer")
    return value.numerator


def quotient_coordinates(vec) -> tuple[int, ...]:
    """Coordinates of a class in the basis e_1,...,e_{n-1} of Z^n/Z·e."""
    ints = [_integer(x) for x in vec]
    return tuple(x - ints[-1] for x in ints[:-1])


def _flat_vector(n: int, flat) -> tuple[int, ...]:
    """Indicator vector in Z^n of a set of 1-based elements."""
    return tuple(1 if i in flat else 0 for i in range(1, n + 1))


# -- cones and fans ------------------------------------------------------------


@dataclass(frozen=True)
class Cone:
    """Rational cone in the quotient, given by primitive ray generators."""

    rays: tuple[tuple[int, ...], ...]

    @staticmethod
    def over(vectors) -> "Cone":
        rays = sorted({quotient_ray(v) for v in vectors
                       if any(quotient_rep(v))})
        return Cone(rays=tuple(rays))


def cone_contains(cone: Cone, vec) -> bool:
    """Exact membership: is vec a nonnegative combination of rays modulo e?"""
    target = [frac(x) for x in vec]
    n = len(target)
    if not cone.rays:
        return len(set(target)) <= 1
    a_eq = [[frac(r[i]) for r in cone.rays] + [Fraction(1)]
            for i in range(n)]
    return lp_feasible(a_eq, target, num_nonneg=len(cone.rays)) is not None


def irredundant_rays(vectors) -> tuple[tuple[int, ...], ...]:
    """Drop generators lying in the cone of the remaining ones.

    One pass suffices: once a ray survives against the current generator
    set, later removals only shrink that set.
    """
    rays = Cone.over(vectors).rays
    keep = list(rays)
    for r in rays:
        rest = [s for s in keep if s != r]
        if rest and cone_contains(Cone(rays=tuple(rest)), r):
            keep.remove(r)
    return tuple(keep)


@dataclass(frozen=True)
class Fan:
    """A fan given by its maximal cones; face closure is left implicit.

    Each kind of fan decides membership in its own cones, by
    ``cone_contains(i, w)`` and ``contains(w)``; every fan comparison asks it.
    """

    n: int
    cones: tuple[Cone, ...]

    def rays(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted({r for c in self.cones for r in c.rays}))


def cone_unimodular(cone: Cone, n: int) -> bool:
    """Simplicial with ray classes extendable to a lattice basis of Z^n/Z·e."""
    if not cone.rays:
        return True
    coords = [quotient_coordinates(r) for r in cone.rays]
    factors = smith_normal_form(coords)
    return len(factors) == len(cone.rays) and all(f == 1 for f in factors)


# -- rational polytopes ---------------------------------------------------------


@dataclass(frozen=True)
class RationalPolytope:
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


@dataclass(frozen=True)
class FaceLattice:
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
    facet_sets = []
    for normal, offset in polytope.facets:
        on = frozenset(i for i, v in enumerate(verts)
                       if sum(normal[c] * v[c] for c in range(len(v))) == offset)
        facet_sets.append(on)
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

