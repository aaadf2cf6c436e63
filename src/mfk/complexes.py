"""Finite simplicial complexes and their rational reduced homology: library
API and the test oracle of the lattice Betti numbers.  In the package only
``lattice.order_complex`` builds one; the tests also build the nested set
complex (``tests/theorem_checks.py``)."""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .linalg import rank as matrix_rank


class SimplicialComplex(NamedTuple):
    """Vertices plus maximal faces; faces are closed under subsets."""

    vertices: tuple
    facets: tuple[frozenset, ...]

    @staticmethod
    def from_faces(vertices, faces) -> "SimplicialComplex":
        """Build from an arbitrary face collection, keeping maximal ones.

        No face strictly contains one of the largest size, so only the
        smaller faces are compared with the others (none in a pure complex).
        Faces are ordered by size, then by the positions of their vertices.
        """
        vertices = tuple(vertices)
        faces = [frozenset(f) for f in faces]
        top = max(map(len, faces), default=0)
        maximal = [f for f in faces
                   if len(f) == top or not any(f < g for g in faces)]
        key = _position_key(vertices)
        unique = sorted(set(maximal), key=lambda f: (len(f), key(f)))
        return SimplicialComplex(vertices=vertices, facets=tuple(unique))

    def faces(self) -> set[frozenset]:
        """Every nonempty face."""
        out: set[frozenset] = set()
        for facet in self.facets:
            for size in range(1, len(facet) + 1):
                out.update(map(frozenset, combinations(facet, size)))
        return out

    def faces_by_dim(self) -> list[list[frozenset]]:
        """The nonempty faces by dimension, each level ordered by the
        positions of the face's vertices."""
        table: dict[int, list[frozenset]] = {}
        for f in self.faces():
            table.setdefault(len(f) - 1, []).append(f)
        key = _position_key(self.vertices)
        return [sorted(table.get(k, []), key=key)
                for k in range(max(table, default=-1) + 1)]

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces_by_dim())

    def dim(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=-1)

    def reduced_euler_characteristic(self) -> int:
        chi = -1  # empty face
        for k, count in enumerate(self.f_vector()):
            chi += count if k % 2 == 0 else -count
        return chi


def _position_key(vertices):
    """Sort key of a face: the sorted positions of its vertices."""
    position = {v: i for i, v in enumerate(vertices)}
    return lambda face: sorted(map(position.__getitem__, face))


def boundary_matrix(lower: list[frozenset], upper: list[frozenset],
                    vertex_order: dict) -> list[dict[int, int]]:
    """Matrix of the simplicial boundary map from ``upper`` to ``lower``.

    Sparse: row ``i`` maps the index of each face of ``upper`` that has
    ``lower[i]`` as a facet to its sign, ±1.
    """
    index = {f: i for i, f in enumerate(lower)}
    rows: list[dict[int, int]] = [{} for _ in lower]
    for j, face in enumerate(upper):
        elems = sorted(face, key=lambda v: vertex_order[v])
        for i in range(len(elems)):
            sub = frozenset(elems[:i] + elems[i + 1:])
            rows[index[sub]][j] = -1 if i % 2 else 1
    return rows


def reduced_homology_ranks(complex_: SimplicialComplex) -> tuple[list[int], int]:
    """Reduced rational Betti numbers and the reduced Euler characteristic.

    Ranks come from exact integer elimination on the sparse boundary
    matrices.  Their rows and columns list the faces in descending order:
    the elimination then fills in less than in ascending order (measured on
    the order complexes of U(5,10), U(5,11) and boolean_6).
    """
    levels = [level[::-1] for level in complex_.faces_by_dim()]
    if not levels:
        return [], -1
    vertex_order = {v: i for i, v in enumerate(complex_.vertices)}
    dims = [len(level) for level in levels]
    # rank of each boundary map; level -1 is the empty face (augmentation)
    ranks = [1 if dims[0] else 0]  # d_0: vertices -> empty face, rank 1
    for k in range(1, len(levels)):
        mat = boundary_matrix(levels[k - 1], levels[k], vertex_order)
        ranks.append(matrix_rank(mat))
    ranks.append(0)
    betti = [dims[k] - ranks[k] - ranks[k + 1] for k in range(len(levels))]
    return betti, sum((-1) ** k * dims[k] for k in range(len(dims))) - 1
