"""Circuit generators of the reciprocal-plane ideal of a realization."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import LoopsPresent, NotACircuit
from .linalg import nullspace, primitive_integer, rank as matrix_rank
from .matroid import LinearRealization


@dataclass(frozen=True)
class CircuitPolynomial:
    """The relation sum_i c_i * prod_{j in C - i} x_j attached to a circuit C.

    The coefficient vector is the (unique up to scale) linear dependency of
    the coordinate forms supported on the circuit, normalized to integers
    with content 1 and positive leading entry.
    """

    circuit: frozenset[int]
    coefficients: dict[int, int]

    def degree(self) -> int:
        return len(self.circuit) - 1

    def monomials(self) -> list[tuple[int, frozenset[int]]]:
        """(coefficient, squarefree support) pairs of the polynomial."""
        return [(self.coefficients[i], self.circuit - {i})
                for i in sorted(self.circuit)]


def circuit_dependency(realization: LinearRealization,
                       circuit) -> dict[int, int]:
    """Integer dependency among the coordinate forms supported on a circuit."""
    elems = sorted(circuit)
    matrix = [[realization.matrix[r][e - 1] for e in elems]
              for r in range(realization.nrows)]
    kernel = nullspace(matrix)
    if len(kernel) != 1:
        raise NotACircuit(f"{elems} is not a circuit of the realization")
    ints = primitive_integer(kernel[0])
    return {e: c for e, c in zip(elems, ints)}


def reciprocal_generators(realization: LinearRealization) -> list[CircuitPolynomial]:
    """One circuit polynomial per circuit of the realization's matroid."""
    if realization.matroid.loops():
        raise LoopsPresent("reciprocal generators need a loop-free realization")
    out = []
    for circuit in realization.matroid.circuits():
        out.append(CircuitPolynomial(
            circuit=circuit,
            coefficients=circuit_dependency(realization, circuit)))
    return out


def minimal_generator_count(generators, degree: int) -> int:
    """Rank of the coefficient matrix of the degree-d generators.

    Columns are indexed by the squarefree monomials of that degree.
    """
    selected = [g for g in generators if g.degree() == degree]
    if not selected:
        return 0
    ground: set[int] = set()
    for g in selected:
        ground |= g.circuit
    n = max(ground)
    columns = {frozenset(c): i for i, c in
               enumerate(combinations(range(1, n + 1), degree))}
    rows = []
    for g in selected:
        row = [Fraction(0)] * len(columns)
        for coeff, support in g.monomials():
            row[columns[frozenset(support)]] = Fraction(coeff)
        rows.append(row)
    return matrix_rank(rows)
