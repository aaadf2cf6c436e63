"""Matroids given by their bases, with the fundamental operations.

Elements are labelled 1..n in all public interfaces.  Equality of matroids
is labelled equality of the canonical base list; isomorphism is never
computed.  Instances are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .bitset import (blocks, from_mask, full_mask, iter_bits, popcount,
                     to_mask)
from .errors import CardinalityMismatch, ExchangeViolation, ParameterOutOfRange
from .linalg import determinant, frac_matrix, primitive_integer, rref

DEFAULT_MAX_N = 20


def _max_ground() -> int:
    raw = os.environ.get("MFK_MAX_N", DEFAULT_MAX_N)
    try:
        return int(raw)
    except ValueError:
        raise ParameterOutOfRange(
            f"MFK_MAX_N must be an integer, got {raw!r}") from None


def _check_ground(n: int) -> None:
    """Refuse a negative ground set size or one above the cap."""
    if n < 0:
        raise ParameterOutOfRange("ground set size must be nonnegative")
    if n > _max_ground():
        raise ParameterOutOfRange(
            f"ground set size {n} exceeds cap {_max_ground()} "
            "(set MFK_MAX_N to override)")


class Matroid:
    """A matroid on ground set [n], stored by its set of bases."""

    __slots__ = ("n", "base_masks", "rank_d", "__dict__")

    def __init__(self, n: int, base_masks, _validated: bool = False):
        _check_ground(n)
        masks = tuple(sorted(set(base_masks)))
        if not masks:
            raise CardinalityMismatch("a matroid needs at least one basis")
        self.n = n
        self.base_masks = masks
        self.rank_d = popcount(masks[0])
        if not _validated:
            self._validate()

    def _validate(self) -> None:
        d = self.rank_d
        universe = full_mask(self.n)
        for b in self.base_masks:
            if b & ~universe:
                raise ParameterOutOfRange(
                    f"basis {sorted(from_mask(b))} not inside [{self.n}]")
            if popcount(b) != d:
                raise CardinalityMismatch(
                    f"bases of sizes {d} and {popcount(b)} both present")
        base_set = set(self.base_masks)
        for b1 in self.base_masks:
            for b2 in self.base_masks:
                if b1 == b2:
                    continue
                out = b1 & ~b2
                for x in iter_bits(out):
                    xbit = 1 << (x - 1)
                    stripped = b1 & ~xbit
                    if not any(stripped | ybit in base_set
                               for ybit in _single_bits(b2 & ~b1)):
                        raise ExchangeViolation(from_mask(b1), from_mask(b2), x)

    # -- canonical equality ------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matroid) and self.n == other.n
                and self.base_masks == other.base_masks)

    def __hash__(self) -> int:
        return hash((self.n, self.base_masks))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.rank_d}, |bases|={len(self.base_masks)})"

    # -- basic queries -----------------------------------------------------

    @property
    def bases(self) -> tuple[frozenset[int], ...]:
        return tuple(from_mask(b) for b in self.base_masks)

    @property
    def ground(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    def rank_mask(self, mask: int) -> int:
        return max(popcount(b & mask) for b in self.base_masks)

    def rank(self, subset) -> int:
        """Rank of a subset of [n]."""
        return self.rank_mask(to_mask(subset))

    def closure_mask(self, mask: int) -> int:
        """Closure in one pass over the bases.

        With r = max |B & X| over the bases, an element e outside X raises
        the rank exactly when some basis meeting X in r elements contains
        e, so cl(X) is X plus every element outside all such bases.
        """
        r, reach = -1, 0
        for b in self.base_masks:
            k = (b & mask).bit_count()
            if k > r:
                r, reach = k, b
            elif k == r:
                reach |= b
        return mask | (full_mask(self.n) & ~reach)

    def closure(self, subset) -> frozenset[int]:
        """Smallest flat containing the subset."""
        return from_mask(self.closure_mask(to_mask(subset)))

    def is_independent(self, subset) -> bool:
        """Independent sets are the subsets of bases."""
        return self._in_some_basis(to_mask(subset))

    def _in_some_basis(self, mask: int) -> bool:
        return any(mask & ~b == 0 for b in self.base_masks)

    def loops(self) -> frozenset[int]:
        """Elements that lie in no basis."""
        covered = 0
        for b in self.base_masks:
            covered |= b
        return from_mask(full_mask(self.n) & ~covered)

    def is_simple(self) -> bool:
        if self.loops():
            return False
        for i, j in combinations(range(1, self.n + 1), 2):
            if self.rank_mask(to_mask((i, j))) == 1:
                return False
        return True

    # -- duality and minors --------------------------------------------------

    def dual(self) -> "Matroid":
        universe = full_mask(self.n)
        return Matroid(self.n, (universe & ~b for b in self.base_masks),
                       _validated=True)

    def restriction(self, subset) -> "Matroid":
        """Restriction to the subset, relabelled 1..|X| in sorted order."""
        elems = sorted(set(subset))
        mask = to_mask(elems)
        r = self.rank_mask(mask)
        pos = {e: i + 1 for i, e in enumerate(elems)}
        new_bases = set()
        for b in self.base_masks:
            inter = b & mask
            if popcount(inter) == r:
                new_bases.add(to_mask(pos[e] for e in iter_bits(inter)))
        return Matroid(len(elems), new_bases, _validated=True)

    def contraction(self, subset) -> "Matroid":
        """Contraction by the subset, on [n]-X relabelled 1..n-|X|."""
        mask = to_mask(subset)
        r = self.rank_mask(mask)
        anchor = next(b & mask for b in self.base_masks
                      if popcount(b & mask) == r)
        rest = sorted(e for e in range(1, self.n + 1)
                      if not mask & (1 << (e - 1)))
        pos = {e: i + 1 for i, e in enumerate(rest)}
        new_bases = set()
        for b in self.base_masks:
            if b & mask == anchor:
                new_bases.add(to_mask(pos[e] for e in iter_bits(b & ~mask)))
        return Matroid(len(rest), new_bases, _validated=True)

    # -- connectivity ---------------------------------------------------------

    @cached_property
    def circuit_masks(self) -> tuple[int, ...]:
        """Minimal dependent sets, from the independent sets level by level.

        The independent k-sets are the sets I - e over the independent
        (k+1)-sets I, walking down from the bases.  A (k+1)-set S is a
        circuit exactly when it is not independent and every S - e is;
        then S - max(S) is independent, so each candidate is generated
        once, as I + e with e above max(I).
        """
        levels = [set(self.base_masks)]
        for _ in range(self.rank_d):
            levels.append({i & ~bit for i in levels[-1]
                           for bit in _single_bits(i)})
        levels.reverse()  # levels[k]: the independent k-sets
        levels.append(set())
        found: list[int] = []
        for k in range(self.rank_d + 1):
            below, above = levels[k], levels[k + 1]
            for i in below:
                for e in range(i.bit_length(), self.n):
                    s = i | 1 << e
                    if s not in above and all(
                            s & ~bit in below for bit in _single_bits(i)):
                        found.append(s)
        return tuple(sorted(found))

    def circuits(self) -> list[frozenset[int]]:
        return [from_mask(c) for c in self.circuit_masks]

    @cached_property
    def _component_blocks(self) -> tuple[frozenset[int], ...]:
        return tuple(map(from_mask, blocks(full_mask(self.n),
                                           self.circuit_masks)))

    def components(self) -> ComponentPartition:
        parts = self._component_blocks
        return ComponentPartition(blocks=parts, kappa=len(parts))

    def is_connected(self) -> bool:
        return self.components().kappa == 1


def _single_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask &= ~low


@dataclass(frozen=True)
class ComponentPartition:
    """Finest decomposition of the ground set into direct summands."""

    blocks: tuple[frozenset[int], ...]
    kappa: int


@dataclass(frozen=True)
class LinearRealization:
    """A full-row-rank rational matrix whose column matroid is attached.

    ``plucker`` maps each basis (a column mask) to its maximal minor once
    every row is scaled by a positive factor to coprime integers: the
    Plücker coordinates of the row space up to one positive factor, which
    keeps their signs and ratios.  The bases are exactly the d-subsets of
    columns with a nonzero minor.  ``from_matrix`` fills it while finding
    the bases; otherwise it is computed on first use.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    matroid: Matroid

    @property
    def nrows(self) -> int:
        return len(self.matrix)

    @property
    def ncols(self) -> int:
        return len(self.matrix[0]) if self.matrix else self.matroid.n

    @cached_property
    def plucker(self) -> dict[int, int]:
        return _nonzero_minors(self.matrix, self.ncols)


def _nonzero_minors(matrix, ncols: int) -> dict[int, int]:
    """The nonzero maximal minors of a full-row-rank matrix by column mask,
    with each row first scaled by a positive factor to coprime integers."""
    rows = [primitive_integer(row, sign_first_positive=False)
            for row in matrix]
    minors = {}
    for combo in combinations(range(ncols), len(rows)):
        minor = determinant([[row[j] for j in combo] for row in rows])
        if minor:
            minors[sum(1 << j for j in combo)] = minor
    return minors


# -- constructors -------------------------------------------------------------


def from_bases(n: int, bases) -> Matroid:
    """Validated matroid from explicit bases; exchange checked exhaustively."""
    masks = []
    for base in bases:
        base = set(base)
        if any(not 1 <= e <= n for e in base):
            raise ParameterOutOfRange(f"basis {sorted(base)} not inside [{n}]")
        masks.append(to_mask(base))
    if not masks:
        raise CardinalityMismatch("a matroid needs at least one basis")
    sizes = {popcount(m) for m in masks}
    if len(sizes) > 1:
        raise CardinalityMismatch(f"basis sizes {sorted(sizes)} differ")
    return Matroid(n, masks)


def from_matrix(rows) -> tuple[Matroid, LinearRealization]:
    """Column matroid of a rational matrix, with the realization attached.

    Zero columns become loops.  A matrix without full row rank is replaced
    by the nonzero rows of its RREF, so the realization has d rows, d the
    row rank.  The bases are the d-subsets of columns whose maximal minor
    is nonzero, each minor one fraction-free determinant; the minors stay
    on the realization as ``plucker``.
    """
    mat = frac_matrix(rows)
    ncols = len(mat[0]) if mat else 0
    _check_ground(ncols)  # before the C(ncols, d) determinants
    red, pivots = rref(mat)
    d = len(pivots)
    if len(mat) != d:
        mat = red[:d]
    minors = _nonzero_minors(mat, ncols)
    matroid = Matroid(ncols, minors.keys(), _validated=True)
    realization = LinearRealization(
        matrix=tuple(tuple(row) for row in mat), matroid=matroid)
    # the frozen dataclass refuses attribute assignment; this fills the
    # cache that ``plucker`` would otherwise compute again
    object.__setattr__(realization, "plucker", minors)
    return matroid, realization


def incidence_matrix(vertex_count: int, edge_list) -> list[list[Fraction]]:
    """Signed incidence matrix: edge (u, v) is the column e_u - e_v; only
    the vertices some edge touches get a row (an isolated one's is zero)."""
    touched = sorted({u for edge in edge_list for u in edge})
    row = {u: i for i, u in enumerate(touched)}
    matrix = [[Fraction(0)] * len(edge_list) for _ in touched]
    for idx, (u, v) in enumerate(edge_list):
        if not (1 <= u <= vertex_count and 1 <= v <= vertex_count) or u == v:
            raise ParameterOutOfRange(f"bad edge {(u, v)}")
        matrix[row[u]][idx] = Fraction(1)
        matrix[row[v]][idx] = Fraction(-1)
    return matrix


def from_graph(vertex_count: int, edge_list) -> Matroid:
    """Graphic matroid: element i is the i-th edge, bases are maximal forests.

    Computed from the signed incidence matrix over the rationals.
    """
    matroid, _ = from_matrix(incidence_matrix(vertex_count, edge_list))
    return matroid


def uniform(d: int, n: int) -> Matroid:
    """Uniform matroid: every d-subset of [n] is a basis."""
    if not 1 <= d <= n:
        raise ParameterOutOfRange(f"uniform({d}, {n}) needs 1 <= d <= n")
    return Matroid(n, (to_mask(c) for c in combinations(range(1, n + 1), d)),
                   _validated=True)


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    """Direct sum, with the second ground set shifted past the first."""
    shift = m1.n
    masks = [b1 | (b2 << shift) for b1 in m1.base_masks
             for b2 in m2.base_masks]
    return Matroid(m1.n + m2.n, masks, _validated=True)
