"""Dense Fraction Gauss–Jordan elimination: the differential oracle for
``mfk.linalg``.

This is the elimination ``mfk.linalg`` used before its integer kernel,
kept only to check that kernel; ``determinant``, one elimination per
column subset, checks the Bareiss walk of ``maximal_minors`` the same way,
and ``primitive_integer`` the integer shortcut of its namesake.  Every
entry is coerced to a ``Fraction`` first, so the oracle is exact on ints,
Fractions and ``'p/q'`` strings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _fractions(matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    m = _fractions(matrix)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(rref(matrix)[1])


def nullspace(matrix) -> list[list[Fraction]]:
    """Basis of the right kernel {x : Mx = 0}."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    red, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def determinant(matrix) -> Fraction:
    """Determinant by Gaussian elimination in Fractions: the product of the
    pivots, negated once per row swap."""
    m = _fractions(matrix)
    det = Fraction(1)
    for k in range(len(m)):
        pivot_row = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def primitive_integer(vec, sign_first_positive: bool = True) -> list[int]:
    """The vector scaled through Fractions to integers with content 1, its
    first nonzero entry made positive on request; zero stays zero."""
    fracs = [Fraction(x) for x in vec]
    denom = lcm(*(x.denominator for x in fracs))
    ints = [int(x * denom) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return ints
    ints = [x // g for x in ints]
    if sign_first_positive and next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return ints
