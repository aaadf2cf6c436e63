"""Exact linear algebra over the rationals, on one integer elimination kernel.

Matrix entries may be ints, Fractions or ``'p/q'`` strings.  Each row is
scaled to integers by the lcm of its denominators and kept sparse, as
``{column: nonzero int}``; :func:`_echelon` eliminates such rows with
fraction-free integer row operations, dividing every new row by the gcd of
its entries.  Rationals reappear only at the end, when ``rref`` divides each
pivot row by its pivot, so every entry that ``rref`` and ``nullspace``
return is an exact :class:`~fractions.Fraction`.  ``rank`` needs
no division at all and also takes sparse rows (order-complex boundary
matrices).  Smith normal form needs unimodular steps, which the kernel's
gcd-normalised rows are not, so it reduces by Euclid on the corner in
integers.  ``maximal_minors`` is one fraction-free Bareiss walk over the
column subsets, in which every division is exact.  Only
``lp_feasible``'s simplex still computes in Fractions.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    """Coerce ints, Fractions or 'p/q' strings, never a bool, to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) or isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _integer(x) -> int:
    """An integral number (an int, or a Fraction or float with denominator
    1) as an int; any other entry, a bool included, raises ValueError."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is not an integer")
    value = Fraction(x)
    if value.denominator != 1:
        raise ValueError(f"{x!r} is not an integer")
    return value.numerator


def frac_matrix(rows) -> list[list[Fraction]]:
    return [[frac(x) for x in row] for row in rows]


# -- the integer elimination kernel ---------------------------------------------


def _integer_row(row) -> dict[int, int]:
    """Sparse integer multiple of a row: ``{column: entry}``, zeros dropped.

    A row is a sequence of exact rationals or a mapping column -> entry.
    """
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    entries = []
    denom = 1
    for j, x in items:
        if type(x) is not int and not isinstance(x, Fraction):
            x = frac(x)
        if x:
            if x.denominator != 1:
                denom = lcm(denom, x.denominator)
            entries.append((j, x))
    return {j: x.numerator * (denom // x.denominator) for j, x in entries}


def _primitive_row(row: dict[int, int]) -> dict[int, int]:
    """Divide an integer row by the gcd of its entries."""
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            return row
    return {j: x // g for j, x in row.items()}


def _echelon(rows, reduced: bool = False) -> dict[int, dict[int, int]]:
    """Row echelon form of sparse integer rows, keyed by pivot column.

    Each row is reduced against the pivot rows found so far, always at its
    leading column, with the fraction-free step ``b·row - a·pivot``
    (``a``, ``b`` the two leading entries over their gcd); a row left
    nonzero becomes the pivot row of its leading column.  With ``reduced``,
    every pivot column is then cleared from the other pivot rows, the last
    pivot first, so dividing each row by its pivot gives the RREF.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = _primitive_row(row)
                break
            row = _cancel(row, pivot, lead)
    if reduced:
        for col in sorted(pivots, reverse=True):
            pivot = pivots[col]
            for lead, row in pivots.items():
                if lead < col and col in row:
                    pivots[lead] = _cancel(row, pivot, col)
    return pivots


def _cancel(row: dict[int, int], pivot: dict[int, int],
            col: int) -> dict[int, int]:
    """Primitive integer combination of ``row`` and ``pivot`` with no ``col``."""
    a, b = row[col], pivot[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = dict(row) if b == 1 else {j: b * x for j, x in row.items()}
    for j, x in pivot.items():
        y = out.get(j, 0) - a * x
        if y:
            out[j] = y
        else:
            del out[j]
    return _primitive_row(out)


# -- the rational interface --------------------------------------------------------


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices).

    The result has as many rows as ``matrix``, zero rows last.
    """
    ncols = len(matrix[0]) if matrix else 0
    pivots = _echelon([_integer_row(row) for row in matrix], reduced=True)
    cols = sorted(pivots)
    zero = Fraction(0)
    out = []
    for c in cols:
        row = pivots[c]
        lead = row[c]
        dense = [zero] * ncols
        for j, x in row.items():
            dense[j] = Fraction(x, lead)
        out.append(dense)
    out.extend([zero] * ncols for _ in range(len(matrix) - len(cols)))
    return out, cols


def rank(matrix) -> int:
    """Rank of a matrix; rows are sequences or sparse mappings column -> entry.

    Only counts pivots, so the echelon form is not reduced.
    """
    return len(_echelon([_integer_row(row) for row in matrix]))


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


def maximal_minors(rows) -> dict[int, int]:
    """The nonzero maximal minors of an integer matrix by column mask, the
    column subsets in lexicographic order (``{0: 1}`` for no rows): one
    depth-first Bareiss walk, each column prefix eliminated once.  A step
    pivots on the first row left with a nonzero entry, moved to the front
    past i rows (a sign flip when i is odd), and divides exactly by the
    previous pivot: after k steps every entry left is a (k+1)-minor
    (Sylvester).  A column zero in every row left is skipped.
    """
    minors = {}

    def walk(rows, start, mask, sign, previous):
        if not rows:
            minors[mask] = sign * previous
            return
        for c in range(start, len(rows[0]) - len(rows) + 1):
            i = 0 if rows[0][c] else next(
                (i for i, row in enumerate(rows) if row[c]), None)
            if i is not None:
                top = rows[i]  # the pivot row, moved to the front
                pivot = top[c]
                rest = [list(row) for row in rows[:i] + rows[i + 1:]]
                for row in rest:  # the columns up to c go stale
                    a = row[c]
                    for j in range(c + 1, len(row)):
                        row[j] = (pivot * row[j] - a * top[j]) // previous
                walk(rest, c + 1, mask | 1 << c,
                     -sign if i & 1 else sign, pivot)

    walk(list(rows), 0, 0, 1, 1)
    return minors


# -- Smith normal form --------------------------------------------------------------


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Invariant factors of an integer matrix (absolute values, in order).
    Entries must be integral; any other entry raises ValueError.

    Euclid on the corner, in integers: the smallest entry is moved to the
    corner and its row and column are reduced modulo it, again until both
    are zero.  A row the corner does not divide is then added to the
    corner's row; when there is none, the corner is a factor and the rest
    is reduced the same way.  Every step is unimodular.
    """
    rest = [[_integer(x) for x in row] for row in matrix]
    factors = []
    while True:
        entries = [(abs(x), i, j) for i, row in enumerate(rest)
                   for j, x in enumerate(row) if x]
        if not entries:
            return tuple(factors)
        _, i, j = min(entries)
        rest[0], rest[i] = rest[i], rest[0]
        for row in rest:
            row[0], row[j] = row[j], row[0]
        top = rest[0]
        corner = top[0]
        for row in rest[1:]:
            q = row[0] // corner
            if q:
                row[:] = [x - q * y for x, y in zip(row, top)]
        for k in range(1, len(top)):
            q = top[k] // corner
            if q:
                for row in rest:
                    row[k] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in rest[1:]):
            continue
        bad = next((row for row in rest[1:] if any(x % corner for x in row)),
                   None)
        if bad is not None:
            top[:] = [x + y for x, y in zip(top, bad)]
            continue
        factors.append(abs(corner))
        rest = [row[1:] for row in rest[1:]]


def content(ints) -> int:
    return gcd(*ints)


def primitive_integer(vec, sign_first_positive: bool = True) -> list[int]:
    """Scale a rational vector to integers with content 1.

    With ``sign_first_positive`` the first nonzero entry is made positive.
    The zero vector is returned unchanged.
    """
    ints = list(vec)
    if any(type(x) is not int for x in ints):
        fracs = [x if type(x) is int else frac(x) for x in ints]
        denom = lcm(*(x.denominator for x in fracs))
        ints = [x.numerator * (denom // x.denominator) for x in fracs]
    g = content(ints)
    if g > 1:
        ints = [x // g for x in ints]
    if sign_first_positive and next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return ints


def lp_feasible(a_eq, b_eq, num_nonneg: int) -> list[Fraction] | None:
    """Exact feasibility of ``A x = b`` with ``x[:num_nonneg] >= 0``.

    Remaining variables are free.  Returns a feasible x, or None.
    Phase-1 simplex with Bland's rule; all arithmetic is rational.  The hull
    and the test oracles ``cone_contains`` and ``irredundant_rays`` use it.
    """
    if not a_eq:
        return []
    nvars = len(a_eq[0])
    nfree = nvars - num_nonneg
    # free variable -> difference of two nonnegative ones
    rows = []
    for row in a_eq:
        ext = [frac(x) for x in row[:num_nonneg]]
        for j in range(num_nonneg, nvars):
            ext.append(frac(row[j]))
            ext.append(-frac(row[j]))
        rows.append(ext)
    ncols = num_nonneg + 2 * nfree
    rhs = [frac(b) for b in b_eq]
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    m = len(rows)
    # tableau with artificial basis
    tab = [rows[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [rhs[i]]
           for i in range(m)]
    total = ncols + m
    basis = [ncols + i for i in range(m)]
    cost = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            cost[j] += tab[i][j]
    for j in range(ncols, total):
        cost[j] -= 1

    while True:
        enter = next((j for j in range(total) if cost[j] > 0), None)
        if enter is None:
            break
        pivot_i, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[pivot_i]):
                    pivot_i, best = i, ratio
        if pivot_i is None:
            # unbounded phase-1 objective cannot happen; defensive
            return None
        piv = tab[pivot_i][enter]
        tab[pivot_i] = [x / piv for x in tab[pivot_i]]
        for i in range(m):
            if i != pivot_i and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[pivot_i])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tab[pivot_i])]
        basis[pivot_i] = enter

    if cost[total] != 0:
        return None
    xext = [Fraction(0)] * ncols
    for i, bidx in enumerate(basis):
        if bidx < ncols:
            xext[bidx] = tab[i][total]
    x = xext[:num_nonneg]
    for k in range(nfree):
        x.append(xext[num_nonneg + 2 * k] - xext[num_nonneg + 2 * k + 1])
    return x
