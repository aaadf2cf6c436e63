"""Bases and circuit relations of a realization as mfk computed them before
the maximal minors: the differential oracle for ``from_matrix`` and
``reciprocal_generators``.

``from_matrix`` ran one rank elimination per d-subset of columns, and each
circuit's relation was a kernel vector of the columns on the circuit.  Both
run here on the dense Fraction elimination of ``fraction_oracle``, so
neither shares code with the Bareiss walk over column subsets
(``maximal_minors``) that they check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import fraction_oracle
from mfk.linalg import primitive_integer


def from_matrix(rows):
    """(base masks, realization rows): the d-subsets of columns of rank d,
    and the matrix itself, or the nonzero rows of its RREF when its rank d
    is below its number of rows."""
    red, pivots = fraction_oracle.rref(rows)
    d = len(pivots)
    ncols = len(rows[0]) if rows else 0
    bases = []
    for combo in combinations(range(ncols), d):
        sub = [[row[j] for j in combo] for row in rows]
        if fraction_oracle.rank(sub) == d:
            bases.append(sum(1 << j for j in combo))
    realization = rows if len(rows) == d else red[:d]
    return (tuple(sorted(bases)),
            tuple(tuple(Fraction(x) for x in row) for row in realization))


def circuit_dependency(realization, circuit) -> dict[int, int] | None:
    """The primitive kernel vector of the columns on the set, or None when
    the kernel is not one-dimensional."""
    elems = sorted(circuit)
    # a zero row leaves the kernel alone and keeps the shape of a
    # realization with no rows
    matrix = [[row[e - 1] for e in elems] for row in realization.matrix] \
        or [[0] * len(elems)]
    kernel = fraction_oracle.nullspace(matrix)
    if len(kernel) != 1:
        return None
    return dict(zip(elems, primitive_integer(kernel[0])))


def reciprocal_coefficients(realization) -> list[tuple[frozenset[int],
                                                       dict[int, int]]]:
    """(circuit, coefficients) for every circuit, in circuit order."""
    return [(c, circuit_dependency(realization, c))
            for c in realization.matroid.circuits()]
