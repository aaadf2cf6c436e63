"""The initial subspace as ``bergman.initial_subspace`` computed it before
its one echelon pass: the differential oracle.

Entries are exact Laurent polynomials in t, with exact rational exponents;
elimination cancels the lowest-degree parts until the degree-zero
coefficient matrix has full rank.  Each round lowers the leading part of
one row, and the loop gives up after ``max_rounds``.
"""

from __future__ import annotations

from fractions import Fraction

from mfk.linalg import frac, nullspace, rank


def initial_subspace_rows(realization, u, max_rounds=1000):
    """Rows spanning the limit of the row space scaled by t^{u_i}."""
    weights = [frac(x) for x in u]
    matrix = [list(row) for row in realization.matrix]
    d = len(matrix)
    n = realization.ncols
    if d == 0:
        return []
    rows = [[{weights[j]: matrix[i][j]} if matrix[i][j] != 0 else {}
             for j in range(n)] for i in range(d)]

    def normalized(row):
        degrees = [min(entry) for entry in row if entry]
        shift = min(degrees)
        return [{deg - shift: c for deg, c in entry.items()}
                for entry in row]

    for _ in range(max_rounds):
        rows = [normalized(row) for row in rows]
        low = [[entry.get(0, Fraction(0)) for entry in row] for row in rows]
        if rank(low) == d:
            return low
        transpose = [[low[i][j] for i in range(d)] for j in range(n)]
        combo = nullspace(transpose)[0]
        pivot = max(i for i in range(d) if combo[i] != 0)
        new_row = [{} for _ in range(n)]
        for i in range(d):
            if combo[i] == 0:
                continue
            for j in range(n):
                for deg, c in rows[i][j].items():
                    val = new_row[j].get(deg, Fraction(0)) + combo[i] * c
                    if val == 0:
                        new_row[j].pop(deg, None)
                    else:
                        new_row[j][deg] = val
        rows[pivot] = new_row
    raise RuntimeError("initial subspace elimination did not terminate")
