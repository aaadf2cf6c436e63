"""Seeded inputs for the benchmark jobs.

Every generated input is a pure function of the variant ``seed % VARIANTS``,
so one seed always yields the same files, and the digests of all variants
can be recorded once (see ``golden.py``).  Each instance is a random
realization of one fixed combinatorial type, so the work of a job barely
depends on the seed and stays on the order of the fixed corpus jobs beside
it.  The types are fixed for run length only; the known cliffs (see
README.md) are left out of the workloads on purpose and are not hidden by
them.

The exact rank helper here is written independently of ``mfk`` so that the
harness can check mfk's answers against it.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations

VARIANTS = 64

# name -> (rows, cols, entry bound, number of bases).  The basis count pins
# the combinatorial type: one dependent 4-subset among otherwise generic
# columns (14 of C(6,4)), or uniform (10 of C(5,2)).  Every variant is then
# a relabelled realization of one matroid, so the work of each job does not
# depend on the seed.
MATRIX_SPECS = {
    "m46": (4, 6, 2, 14),
    "m25": (2, 5, 3, 10),
}
# Rank 2 on 6 columns: three points, each doubled by a parallel column
# (12 bases; its matroid polytope has dimension 5).
PAIRS_NAME, PAIRS_BOUND = "m26", 3


def variant_of(seed: int) -> int:
    return seed % VARIANTS


# -- exact linear algebra, independent of mfk ---------------------------------


def exact_rank(rows) -> int:
    """Rank of a rational matrix by fraction-exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def columns(rows, subset):
    """Submatrix of the given column indices (0-based)."""
    return [[row[j] for j in subset] for row in rows]


def bases(rows) -> list[tuple[int, ...]]:
    """All bases of the column matroid, as sorted 1-based tuples."""
    d = exact_rank(rows)
    ncols = len(rows[0])
    return [tuple(j + 1 for j in combo)
            for combo in combinations(range(ncols), d)
            if exact_rank(columns(rows, combo)) == d]


# -- generators ------------------------------------------------------------------


def random_matrix(rng: random.Random, nrows: int, ncols: int, bound: int,
                  base_count: int) -> list[list[int]]:
    """Full-rank integer matrix, entries in [-bound, bound], whose column
    matroid has exactly ``base_count`` bases."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(ncols)]
                for _ in range(nrows)]
        if exact_rank(rows) == nrows and len(bases(rows)) == base_count:
            return rows


def random_parallel_pairs(rng: random.Random, bound: int) -> list[list[int]]:
    """2 x 6 integer matrix: three pairwise independent columns, each
    repeated once with a nonzero scale, in random column order."""
    while True:
        points = [[rng.randint(-bound, bound) for _ in range(2)]
                  for _ in range(3)]
        if all(exact_rank([p, q]) == 2 for p, q in combinations(points, 2)):
            break
    cols = []
    for p in points:
        for _ in range(2):
            scale = rng.choice((-2, -1, 1, 2))
            cols.append([c * scale for c in p])
    rng.shuffle(cols)
    return [[col[i] for col in cols] for i in range(2)]


def generate(seed: int) -> dict:
    """All generated inputs of one variant, as plain data."""
    rng = random.Random(variant_of(seed))
    out: dict = {"variant": variant_of(seed)}
    for name, spec in MATRIX_SPECS.items():
        out[name] = random_matrix(rng, *spec)
    out[PAIRS_NAME] = random_parallel_pairs(rng, PAIRS_BOUND)
    return out


def write_inputs(data: dict, directory: str) -> dict[str, str]:
    """Write the generated inputs as mfk input files; returns name -> path.

    ``b25`` holds the bases of ``m25`` without its realization.
    """
    paths = {}

    def dump(name, payload):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        paths[name] = path

    for name in (*MATRIX_SPECS, PAIRS_NAME):
        rows = data[name]
        dump(name, {"rows": len(rows), "cols": len(rows[0]),
                    "entries": [[str(x) for x in row] for row in rows]})
    dump("b25", {"n": 5, "bases": [list(b) for b in bases(data["m25"])]})
    return paths
