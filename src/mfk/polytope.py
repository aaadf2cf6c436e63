"""Matroid polytopes, weight-vector degenerations, and facet classification.

A weight vector's chain lists its sublevel sets in ascending order, and its
degeneration is the matroid of the face on which it is minimized.
``heaviest_bases`` maximizes, as the coarse Bergman cones read it, so a sign
is flipped where the two meet: in ``degeneration``, and in the Bergman
module's ``bergman_membership`` and ``support_deviations``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bitset import blocks, from_mask, full_mask, popcount, to_mask
from .errors import Disconnected, DimensionMismatch, LoopsPresent, NotAFace
from .geometry import RationalPolytope, _primitive_inequality
from .lattice import FlatLattice
from .linalg import frac, primitive_integer
from .matroid import Matroid, from_bases


def indicator_vertex(n: int, base: frozenset[int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if i in base else 0) for i in range(1, n + 1))


def polytope(matroid: Matroid) -> RationalPolytope:
    """The matroid polytope: the bases as vertices, the facets by ``facets``.

    P_M is the product of the polytopes of the connected components (a loop
    or a coloop is a one-point factor), so its dimension is n minus the
    number of components and each facet is a facet of one factor.  A
    factor's outer normal is projected onto the direction space, where the
    coordinates of every component sum to zero, and made primitive; the
    offset is its maximum over the vertices.
    """
    n, bases = matroid.n, matroid.bases
    vertices = tuple(sorted(indicator_vertex(n, b) for b in bases))
    components = matroid.components().blocks
    inequalities = []
    for block in components:
        if len(block) < 2:
            continue
        elems = sorted(block)
        for facet in facets(matroid.restriction(block)):
            # the outer normal minus its block mean, times the block size
            total = sum(facet.inner_normal)
            normal = [0] * n
            for e, x in zip(elems, facet.inner_normal):
                normal[e - 1] = total - len(elems) * x
            offset = max(sum(normal[i - 1] for i in b) for b in bases)
            inequalities.append(_primitive_inequality(normal, offset))
    return RationalPolytope(vertices=vertices,
                            facets=tuple(sorted(inequalities)),
                            dim=n - len(components))


class ConstancyChain(NamedTuple):
    """Ascending sublevel sets of a weight vector, ending at the full set."""

    sets: tuple[frozenset[int], ...]

    def masks(self) -> tuple[int, ...]:
        return tuple(to_mask(s) for s in self.sets)


def sublevel_masks(u) -> list[int]:
    """Masks of the sublevel sets of a weight, ascending.

    One pass groups the indices by value; integer entries stay ``int``.
    """
    by_value: dict = {}
    for i, x in enumerate(u):
        if type(x) is not int:
            x = frac(x)
        by_value[x] = by_value.get(x, 0) | 1 << i
    masks, cumulative = [], 0
    for value in sorted(by_value):
        cumulative |= by_value[value]
        masks.append(cumulative)
    return masks


def constancy_chain(u) -> ConstancyChain:
    """The unique chain on which the weight is constant per difference block."""
    return ConstancyChain(sets=tuple(from_mask(m) for m in sublevel_masks(u)))


class Degeneration(NamedTuple):
    """The matroid of the face minimizing a weight vector."""

    matroid_u: Matroid
    chain: ConstancyChain
    loop_free: bool


def require_weight_length(matroid: Matroid, w) -> None:
    """Refuse a weight that does not have one entry per element."""
    if len(w) != matroid.n:
        raise DimensionMismatch(
            f"weight has {len(w)} entries, the matroid {matroid.n} elements")


def heaviest_bases(matroid: Matroid, w) -> set[int]:
    """Masks of the bases of largest total weight under w.

    w is first scaled to a primitive integer vector; a positive scaling
    leaves the set of w-maximal bases unchanged.  The greedy algorithm finds
    them from the weak order of w alone.
    """
    require_weight_length(matroid, w)
    ints = primitive_integer(w, sign_first_positive=False)
    best, heaviest = None, set()
    for b in matroid.base_masks:
        total = 0
        for i in range(matroid.n):
            if b >> i & 1:
                total += ints[i]
        if best is None or total > best:
            best, heaviest = total, {b}
        elif total == best:
            heaviest.add(b)
    return heaviest


def degeneration(matroid: Matroid, u) -> Degeneration:
    """The bases of minimal ``u``-weight, with the constancy chain of ``u``."""
    u = list(u)
    require_weight_length(matroid, u)
    if matroid.n == 0:
        return Degeneration(matroid_u=matroid,
                            chain=ConstancyChain(sets=(frozenset(),)),
                            loop_free=True)
    matroid_u = Matroid(matroid.n, heaviest_bases(matroid,
                                                  [-frac(x) for x in u]))
    return Degeneration(matroid_u=matroid_u, chain=constancy_chain(u),
                        loop_free=not matroid_u.loops())


class FacetDescription(NamedTuple):
    """One facet of the matroid polytope with its inner normal."""

    kind: str  # "interior" or "boundary"
    flat: frozenset[int] | None
    element: int | None
    inner_normal: tuple[int, ...]
    vertex_bases: tuple[frozenset[int], ...]


def flacets(lattice: FlatLattice) -> list[int]:
    """The flacets of each component C (with the loops) in lattice order:
    the flats F of positive rank short of C with (M|F)/loops and (M|C)/F
    connected.  On a connected matroid C is the ground set."""
    bottom = lattice.bottom
    parts = [to_mask(c) | bottom for c in lattice.matroid.components().blocks]
    return [f for level in lattice.by_rank[1:] for f in level
            if lattice.is_connected_minor(bottom, f) for c in parts
            if f & ~c == 0 and f != c and lattice.is_connected_minor(f, c)]


def facets(matroid: Matroid) -> list[FacetDescription]:
    """Classified facet list of the matroid polytope.

    Interior facets (not on the boundary of the dilated simplex) correspond
    to the flacets; boundary facets to elements whose deletion leaves a
    connected matroid.
    """
    if matroid.loops():
        raise LoopsPresent("facet classification needs a loop-free matroid")
    if not matroid.is_connected():
        raise Disconnected("facet classification needs a connected matroid")
    lattice = FlatLattice(matroid)
    out: list[FacetDescription] = []
    top = full_mask(matroid.n)
    for f in flacets(lattice):
        flat = from_mask(f)
        r = lattice.rank_in_lattice(f)
        verts = tuple(from_mask(b) for b in matroid.base_masks
                      if popcount(b & f) == r)
        normal = tuple(-1 if i in flat else 0
                       for i in range(1, matroid.n + 1))
        out.append(FacetDescription(kind="interior", flat=flat,
                                    element=None, inner_normal=normal,
                                    vertex_bases=verts))
    for e in range(1, matroid.n + 1):
        bit = 1 << (e - 1)
        avoiding = [b for b in matroid.base_masks if not b & bit]
        if not avoiding:
            continue
        # the circuits of M - e are the circuits of M that avoid e
        if len(blocks(top & ~bit, matroid.circuit_masks)) != 1:
            continue
        normal = tuple(1 if i == e else 0 for i in range(1, matroid.n + 1))
        out.append(FacetDescription(
            kind="boundary", flat=None, element=e, inner_normal=normal,
            vertex_bases=tuple(from_mask(b) for b in avoiding)))
    return out


def face_matroid(matroid: Matroid, vertex_bases) -> Matroid:
    """Matroid whose bases are the vertices of a face of the polytope.

    A nonempty vertex set is a face exactly when it is the set of vertices
    on every facet that contains it (all vertices when no facet does).
    """
    wanted = {frozenset(b) for b in vertex_bases}
    closure = set(matroid.bases)
    for normal, offset in polytope(matroid).facets:
        on = {b for b in closure if sum(normal[i - 1] for i in b) == offset}
        if wanted <= on:
            closure = on
    if not wanted or wanted != closure:
        raise NotAFace(f"{sorted(map(sorted, wanted))} is not a face")
    return from_bases(matroid.n, wanted)
