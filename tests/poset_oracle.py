"""The graded structure of the lattice of flats and of face lattices as mfk
computed it before each poset was ranked by its own covers: the differential
oracle for ``FlatLattice.maximal_chains`` (through ``bergman_fan`` and
``order_complex``), for ``FlatLattice.moebius_mask`` and for the face
dimensions of ``face_lattice``.

Nothing here reads the covers a lattice already knows: the flags grow by
scanning whole rank levels, the interval chains rebuild the covering
relation by a cubic comparison, the Moebius values sum over every pair of
flats, and the dimension of a face is the rank of its vertex differences.
"""

from __future__ import annotations

from mfk.bitset import from_mask
from mfk.complexes import SimplicialComplex
from mfk.errors import EmptyInterval
from mfk.geometry import FaceLattice
from mfk.linalg import rank


def proper_flags(lattice) -> list[tuple[int, ...]]:
    """Maximal chains of flats strictly between bottom and top, grown one
    rank level at a time."""
    d = lattice.matroid.rank_d
    if d <= 1:
        return [()]
    by_rank = lattice.by_rank
    flags: list[tuple[int, ...]] = []

    def grow(chain, level):
        if level == d:
            flags.append(tuple(chain))
            return
        for f in by_rank[level]:
            if chain[-1] & ~f == 0:
                grow(chain + [f], level + 1)

    for f in by_rank[1]:
        grow([f], 2)
    return flags


def interval_chains(lattice, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Maximal chains of the flats strictly between lo and hi, walked over
    covers found by comparing every triple of those flats."""
    between = [f for f in lattice.interval_masks(lo, hi) if f not in (lo, hi)]

    def less(a, b):
        return a != b and a & ~b == 0

    cover = {f: [g for g in between if less(f, g)
                 and not any(less(f, h) and less(h, g) for h in between)]
             for f in between}
    minimal = [f for f in between if not any(less(g, f) for g in between)]
    chains: list[tuple[int, ...]] = []

    def descend(chain):
        if not cover[chain[-1]]:
            chains.append(tuple(chain))
            return
        for g in cover[chain[-1]]:
            descend(chain + [g])

    for f in minimal:
        descend([f])
    return chains


def order_complex(lattice, lo: int, hi: int) -> SimplicialComplex:
    """The order complex of the open interval (lo, hi) from
    ``interval_chains``; both ends must be flats with lo < hi."""
    if not (lattice.is_flat_mask(lo) and lattice.is_flat_mask(hi)):
        raise EmptyInterval("interval ends must be flats")
    if lo == hi or lo & ~hi:
        raise EmptyInterval("lower must be strictly below upper")
    between = [f for f in lattice.interval_masks(lo, hi) if f not in (lo, hi)]
    if not between:
        raise EmptyInterval("no flats strictly between the given ends")
    return SimplicialComplex.from_faces(
        tuple(from_mask(f) for f in between),
        [frozenset(from_mask(f) for f in chain)
         for chain in interval_chains(lattice, lo, hi)])


def moebius(lattice) -> dict[int, int]:
    """mu(0, F) for every flat F by the defining recursion: 1 at the bottom,
    else minus the sum over every flat strictly below F."""
    mu: dict[int, int] = {}
    for flat in lattice.flat_masks:
        below = [g for g in lattice.flat_masks if g & ~flat == 0 and g != flat]
        mu[flat] = 1 if not below else -sum(mu[g] for g in below)
    return mu


def affine_dim(vertices, index_set) -> int:
    """Rank of the differences of the indexed vertices from the first."""
    idx = sorted(index_set)
    base = vertices[idx[0]]
    rows = [[vertices[i][c] - base[c] for c in range(len(base))]
            for i in idx[1:]]
    return rank(rows) if rows else 0


def face_lattice(polytope) -> FaceLattice:
    """Faces as common facet intersections, each graded by ``affine_dim``."""
    verts = polytope.vertices
    full = frozenset(range(len(verts)))
    if polytope.dim == 0:
        return FaceLattice(faces_by_dim=((full,),), f_vector=(1,))
    facet_sets = [frozenset(i for i, v in enumerate(verts)
                            if sum(a * x for a, x in zip(normal, v)) == offset)
                  for normal, offset in polytope.facets]
    faces = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = {f & g for f in frontier for g in facet_sets} - faces - {
            frozenset()}
        faces |= new
        frontier = new
    faces.add(full)
    by_dim: dict[int, list[frozenset[int]]] = {}
    for f in faces:
        by_dim.setdefault(affine_dim(verts, f), []).append(f)
    levels = tuple(tuple(sorted(by_dim.get(d, []), key=sorted))
                   for d in range(polytope.dim + 1))
    return FaceLattice(faces_by_dim=levels,
                       f_vector=tuple(len(level) for level in levels))
