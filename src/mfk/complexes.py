"""Finite simplicial complexes and their rational reduced homology."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import rank as matrix_rank


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertices plus maximal faces; faces are closed under subsets."""

    vertices: tuple
    facets: tuple[frozenset, ...]

    @staticmethod
    def from_faces(vertices, faces) -> "SimplicialComplex":
        """Build from an arbitrary face collection, keeping maximal ones.

        No face strictly contains one of the largest size, so only the
        smaller faces are compared with the others (none in a pure complex).
        """
        faces = [frozenset(f) for f in faces]
        top = max(map(len, faces), default=0)
        maximal = [f for f in faces
                   if len(f) == top or not any(f < g for g in faces)]
        unique = sorted(set(maximal), key=lambda f: (len(f), sorted(map(str, f))))
        return SimplicialComplex(vertices=tuple(vertices),
                                 facets=tuple(unique))

    def faces(self) -> set[frozenset]:
        """Every nonempty face."""
        out: set[frozenset] = set()
        for facet in self.facets:
            elems = sorted(facet, key=str)
            for size in range(1, len(elems) + 1):
                for combo in combinations(elems, size):
                    out.add(frozenset(combo))
        return out

    def faces_by_dim(self) -> list[list[frozenset]]:
        table: dict[int, list[frozenset]] = {}
        for f in self.faces():
            table.setdefault(len(f) - 1, []).append(f)
        if not table:
            return []
        out = []
        for k in range(max(table) + 1):
            out.append(sorted(table.get(k, []),
                              key=lambda f: sorted(map(str, f))))
        return out

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces_by_dim())

    def dim(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=-1)

    def reduced_euler_characteristic(self) -> int:
        chi = -1  # empty face
        for k, count in enumerate(self.f_vector()):
            chi += count if k % 2 == 0 else -count
        return chi


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
    matrices.
    """
    levels = complex_.faces_by_dim()
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
