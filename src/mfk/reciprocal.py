"""Circuit generators of the reciprocal-plane ideal of a realization.

The linear relation of a circuit is Cramer's rule on the realization's
Plücker coordinates (``LinearRealization.plucker``), so no system is
solved; the generators are those of Proudfoot-Speyer (2006).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .bitset import iter_bits, to_mask
from .errors import LoopsPresent, NotACircuit
from .linalg import rank as matrix_rank
from .matroid import LinearRealization


class CircuitPolynomial(NamedTuple):
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
    """Integer dependency among the coordinate forms supported on a circuit.

    Raises ``NotACircuit`` unless the set is a circuit of the realization's
    matroid.
    """
    elems = set(circuit)
    matroid = realization.matroid
    if not all(1 <= e <= matroid.n for e in elems) or \
            to_mask(elems) not in matroid.circuit_masks:
        raise NotACircuit(
            f"{sorted(elems)} is not a circuit of the realization")
    return _dependency(realization, to_mask(elems))


def _dependency(realization: LinearRealization,
                circuit: int) -> dict[int, int]:
    """The circuit's relation by Cramer's rule on d + 1 columns.

    Let S = C when |C| = d + 1, and otherwise S = C | B for a basis B that
    holds C - min C.  The d x (d + 1) submatrix on S has a one-dimensional
    kernel, spanned by c_e = (-1)^#{s in S : s < e} p(S - e) (expand the
    determinant of the submatrix with a row repeated).  For e outside C,
    S - e contains C and p(S - e) = 0; for e in C, S - e is a basis.
    """
    matroid = realization.matroid
    support = circuit
    if circuit.bit_count() <= matroid.rank_d:
        rest = circuit & (circuit - 1)  # C without its least element
        support |= next(b for b in matroid.base_masks if rest & ~b == 0)
    plucker = realization.plucker
    elems = list(iter_bits(circuit))
    coefficients = []
    for e in elems:
        bit = 1 << (e - 1)
        minor = plucker[support & ~bit]
        coefficients.append(-minor if (support & (bit - 1)).bit_count() & 1
                            else minor)
    # every S - e is a basis, so no coefficient is zero: content 1, the
    # first one positive
    g = gcd(*coefficients) if coefficients[0] > 0 else -gcd(*coefficients)
    return {e: c // g for e, c in zip(elems, coefficients)}


def reciprocal_generators(realization: LinearRealization) -> list[CircuitPolynomial]:
    """One circuit polynomial per circuit of the realization's matroid."""
    if realization.matroid.loops():
        raise LoopsPresent("reciprocal generators need a loop-free realization")
    relations = (_dependency(realization, c)
                 for c in realization.matroid.circuit_masks)
    return [CircuitPolynomial(circuit=frozenset(coefficients),
                              coefficients=coefficients)
            for coefficients in relations]


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
