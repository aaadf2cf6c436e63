"""The lattice of flats in one pass: covers, Moebius values, and the order
complex of an interval."""

from __future__ import annotations

from typing import NamedTuple

from .bitset import blocks, from_mask, full_mask, to_mask
from .complexes import SimplicialComplex
from .errors import EmptyInterval, LoopsPresent, NotFlats
from .matroid import Matroid


class FlatLattice:
    """All flats of a matroid, graded by rank, found in one pass with each
    cover pair (recorded both ways) and mu(0, G) by Weisner's rule."""

    def __init__(self, matroid: Matroid):
        self.matroid = matroid
        bottom = matroid.closure_mask(0)
        by_rank: list[list[int]] = [[bottom]]
        upper_covers: dict[int, tuple[int, ...]] = {}
        lower_covers: dict[int, list[int]] = {bottom: []}
        mu = {bottom: 1}
        for p in range(matroid.rank_d):
            level: set[int] = set()
            for flat in by_rank[p]:
                # the sets cl(F + e) - F partition E - F: one closure per cover
                covers: list[int] = []
                seen = flat
                for e in range(matroid.n):
                    bit = 1 << e
                    if seen & bit:
                        continue
                    cover = matroid.closure_mask(flat | bit)
                    seen |= cover
                    covers.append(cover)
                    lower_covers.setdefault(cover, []).append(flat)
                    # Weisner: mu(G) = -sum mu(F) over the F covered by G
                    # that miss the atom of the least element of G - bottom
                    rest = cover & ~bottom
                    if not flat & rest & -rest:
                        mu[cover] = mu.get(cover, 0) - mu[flat]
                upper_covers[flat] = tuple(sorted(covers))
                level.update(covers)
            by_rank.append(sorted(level))
        for flat in by_rank[-1]:
            upper_covers[flat] = ()
        self.by_rank: tuple[tuple[int, ...], ...] = tuple(
            tuple(level) for level in by_rank)
        self.flat_masks: tuple[int, ...] = tuple(
            f for level in self.by_rank for f in level)
        self._rank_of = {f: p for p, level in enumerate(self.by_rank)
                         for f in level}
        self._upper_covers = upper_covers
        self._lower_covers = lower_covers
        self.cover_pairs: tuple[tuple[int, int], ...] = tuple(sorted(
            (f, g) for f, covers in upper_covers.items() for g in covers))
        self._moebius = mu

    # -- structure ----------------------------------------------------------

    @property
    def bottom(self) -> int:
        return self.flat_masks[0]

    @property
    def top(self) -> int:
        return full_mask(self.matroid.n)

    def is_flat_mask(self, mask: int) -> bool:
        return mask in self._rank_of

    def flat_mask(self, elements) -> int | None:
        """The mask of the given elements if they are a flat, else None."""
        elements = frozenset(elements)
        mask = to_mask(elements) if elements <= self.matroid.ground else None
        return mask if mask in self._rank_of else None

    def lower_covers(self, flat: int) -> tuple[int, ...]:
        """The flats the given flat covers, in ascending order."""
        return tuple(self._lower_covers[flat])

    def rank_in_lattice(self, mask: int) -> int:
        return self._rank_of[mask]

    def join_mask(self, x: int, y: int) -> int:
        return self.matroid.closure_mask(x | y)

    def interval_masks(self, lower: int, upper: int) -> list[int]:
        """Flats Z with lower <= Z <= upper, in rank order."""
        return [f for f in self.flat_masks
                if f & ~upper == 0 and lower & ~f == 0]

    def maximal_chains(self, lower: int, upper: int) -> list[tuple[int, ...]]:
        """The flats strictly between the ends of each maximal chain of
        [lower, upper], depth first over the upper covers in ascending order.
        """
        chains: list[tuple[int, ...]] = []

        def walk(chain: tuple[int, ...]) -> None:
            if chain[-1] == upper:
                chains.append(chain[1:-1])
                return
            for g in self._upper_covers[chain[-1]]:
                if g & ~upper == 0:
                    walk(chain + (g,))

        walk((lower,))
        return chains

    def is_connected_minor(self, lower: int, upper: int) -> bool:
        """Is the minor (M|upper)/lower connected?  For flats lower < upper.

        Its dual, (M|upper)* on upper - lower, has the same components; its
        circuits are the cocircuits upper - H of M|upper with lower inside
        H, for the recorded lower covers H of upper (``blocks`` drops the
        others).
        """
        cocircuits = (upper & ~h for h in self._lower_covers[upper])
        return len(blocks(upper & ~lower, cocircuits)) == 1

    # -- Moebius ------------------------------------------------------------

    def moebius_mask(self, flat: int) -> int:
        return self._moebius[flat]


class MoebiusTable(NamedTuple):
    """The unsigned top invariant (-1)^r mu(0, E) of the lattice."""

    mu_top: int


def moebius(lattice: FlatLattice) -> MoebiusTable:
    """Moebius function of the lattice of flats; requires no loops."""
    if lattice.matroid.loops():
        raise LoopsPresent("Moebius table requires a loop-free matroid")
    sign = -1 if lattice.matroid.rank_d % 2 else 1
    mu_top = sign * lattice.moebius_mask(lattice.top)
    return MoebiusTable(mu_top=mu_top)


def irreducible_flats(lattice: FlatLattice) -> set[frozenset[int]]:
    """Flats F of positive rank with (M|F)/loops connected.

    Every flat holds the loops (the bottom flat), and a loop is a component
    of its own, so connectivity is judged on the minor over the bottom.
    """
    return {from_mask(f) for level in lattice.by_rank[1:] for f in level
            if lattice.is_connected_minor(lattice.bottom, f)}


def order_complex(lattice: FlatLattice, lower, upper) -> SimplicialComplex:
    """Chains of flats strictly between two comparable flats: library API
    and, with ``reduced_homology_ranks``, the test oracle of the Betti
    numbers that the ``lattice`` subcommand reads off the Moebius function.
    """
    lo, hi = lattice.flat_mask(lower), lattice.flat_mask(upper)
    if lo is None or hi is None:
        raise EmptyInterval("interval ends must be flats")
    if lo == hi or lo & ~hi:
        raise EmptyInterval("lower must be strictly below upper")
    between = [f for f in lattice.interval_masks(lo, hi)
               if f not in (lo, hi)]
    if not between:
        raise EmptyInterval("no flats strictly between the given ends")
    vertex = {f: from_mask(f) for f in between}
    return SimplicialComplex.from_faces(
        tuple(vertex.values()),
        (frozenset(vertex[f] for f in chain)
         for chain in lattice.maximal_chains(lo, hi)))


def interval_product_check(lattice: FlatLattice, flat, factors) -> bool:
    """Is the join map from the product of the intervals [0, G_i] onto
    [0, X] an order-isomorphism?

    It is exactly when M|X is the direct sum of the M|G_i: the factors,
    without the loops, partition X without the loops, and their ranks add
    up to the rank of X.  Defined for flats only.
    """
    masks = [lattice.flat_mask(f) for f in (flat, *factors)]
    if None in masks:
        raise NotFlats("the interval and its factors must be flats")
    x, *factor_masks = masks
    loops = lattice.bottom
    union = 0
    for g in factor_masks:
        if union & g & ~loops:
            return False
        union |= g
    return (union | loops == x
            and sum(map(lattice.rank_in_lattice, factor_masks))
            == lattice.rank_in_lattice(x))
