"""Bergman fans, initial degenerations of realizations, and amoeba sampling.

A weight w lies in the Bergman support when the chain of -w consists of
flats; equivalently, the face on which w is maximized carries a loop-free
matroid.  Cones over flags of proper flats are the fine structure; grouping
flags with a common degeneration gives the coarse fan, whose maximal cones
are the loop-free outer normal cones of the matroid polytope.  A coarse
cone is spanned by the flacets among its flags, each joined to the other
components, and by the co-components.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, compress, repeat
from numbers import Integral, Real
from typing import NamedTuple

from .bitset import full_mask, iter_bits, to_mask
from .errors import LoopsPresent, ParameterOutOfRange, SingularSample
from .geometry import Fan, _flat_vector
from .lattice import FlatLattice
from .linalg import frac, rref
from .matroid import LinearRealization, Matroid, from_matrix
from .polytope import (flacets, heaviest_bases, require_weight_length,
                       sublevel_masks)


def bergman_membership(matroid: Matroid, w) -> bool:
    """Does w lie in the Bergman support?

    True exactly when every set in the chain of -w is a flat (the ground
    set always is), so the answer depends only on the weak order of w.
    """
    if matroid.loops():
        raise LoopsPresent("Bergman membership needs a loop-free matroid")
    require_weight_length(matroid, w)
    ground = full_mask(matroid.n)
    negated = [-(x if type(x) is int else frac(x)) for x in w]
    return all(m == ground or matroid.closure_mask(m) == m
               for m in sublevel_masks(negated))


class BergmanFan(Fan):
    """Fine flag cones grouped into the coarse Bergman fan.

    ``fine_chains[i]`` is a maximal chain of proper flats, as masks from
    the bottom up; ``groups[g]`` lists the fine indices whose interior
    weights share one degeneration base-set ``group_bases[g]``, ascending
    basis masks; ``cones[g]`` indexes the irredundant ray generators of the
    union, the coarse cone of the group.
    """

    def __init__(self, n: int, rays: tuple[tuple[int, ...], ...],
                 cones: tuple[tuple[int, ...], ...], matroid: Matroid,
                 fine_chains: tuple[tuple[int, ...], ...],
                 groups: tuple[tuple[int, ...], ...],
                 group_bases: tuple[tuple[int, ...], ...]):
        super().__init__(n, rays, cones)
        self.matroid = matroid
        self.fine_chains = fine_chains
        self.groups = groups
        self.group_bases = group_bases

    def contains(self, w) -> bool:
        return bergman_membership(self.matroid, w)

    def coarse_contains(self, group_index: int, w) -> bool:
        """Closed-cone membership: the group's bases are all w-maximal."""
        return heaviest_bases(self.matroid, w).issuperset(
            self.group_bases[group_index])

    def cones_containing(self, w) -> frozenset[int]:
        """The coarse cones holding w; the w-maximal bases are found once.

        The answer depends only on the weak order of w.
        """
        holds = heaviest_bases(self.matroid, w).issuperset
        return frozenset(compress(range(len(self.group_bases)),
                                  map(holds, self.group_bases)))


def bergman_fan(lattice: FlatLattice) -> BergmanFan:
    """Coarse Bergman fan from flag cones grouped by degeneration bases.

    On a connected matroid the rays of a coarse cone are the flacets among
    its group's flags (Feichtner-Sturmfels 2005).  A coarse cone of a direct
    sum is the product of its components' cones, each holding the line of
    its component C: modulo 1 the co-components E - C span those lines, and
    a flacet F of C spans the ray of the flat F + (E - C).  Each ray flat
    is a proper nonempty subset of E, so its indicator is its ray.
    """
    matroid = lattice.matroid
    if matroid.loops():
        raise LoopsPresent("Bergman fan needs a loop-free matroid")
    ground, n = lattice.top, matroid.n
    flags = lattice.maximal_chains(lattice.bottom, ground)
    by_steps: dict[tuple[int, ...], list[int]] = {}
    for idx, flag in enumerate(flags):  # nested masks: xor is set minus
        steps = sorted(map(int.__xor__, flag + (ground,), (0,) + flag))
        by_steps.setdefault(tuple(steps), []).append(idx)
    groups = {_transversals(s): idxs for s, idxs in by_steps.items()}
    parts = [to_mask(c) for c in matroid.components().blocks]
    lifts = {f: f | ground & ~c for f in flacets(lattice)
             for c in parts if f & c}
    co_components = {ground & ~c for c in parts} - {0}
    order = sorted(groups, key=lambda bs: (len(groups[bs]), bs))
    cone_flats = [co_components.union(
        lifts[f] for i in groups[bases] for f in flags[i] if f in lifts)
        for bases in order]
    ray = {f: _flat_vector(n, f) for f in set().union(*cone_flats)}
    ray_flats = sorted(ray, key=ray.__getitem__)
    index = dict(zip(ray_flats, range(len(ray_flats))))
    return BergmanFan(n=n, rays=tuple(map(ray.__getitem__, ray_flats)),
                      cones=tuple(tuple(sorted(map(index.__getitem__, flats)))
                                  for flats in cone_flats),
                      matroid=matroid,
                      fine_chains=tuple(flags),
                      groups=tuple(tuple(groups[bs]) for bs in order),
                      group_bases=tuple(order))


def _transversals(steps: tuple[int, ...]) -> tuple[int, ...]:
    """The bases of largest weight under the sum of a flag's indicators,
    from the flag's steps F_k - F_{k-1}, which they determine as a set.

    With F_0 the empty set (no loops) and F_r = E, a basis B has weight
    sum_k |B & F_k| <= sum_k rk F_k, with equality exactly when B holds one
    element of each F_k - F_{k-1}; every such transversal is independent,
    since its k-th element lies outside F_{k-1}, the span of those before.
    """
    masks = [0]
    for step in steps:
        masks = [m | 1 << (e - 1) for m in masks for e in iter_bits(step)]
    return tuple(sorted(masks))


# -- initial degenerations ------------------------------------------------------


def initial_subspace(realization: LinearRealization, u) -> LinearRealization:
    """Limit of the row space scaled columnwise by t^{u_i}, as t -> 0.

    With the columns in ascending weight order, each row of the reduced
    echelon form has its pivot at its lowest weight, so the row's initial
    form keeps the entries of the pivot's weight.  The d initial forms have
    distinct pivots and span the limit.
    """
    require_weight_length(realization.matroid, u)
    if not realization.matrix:
        return realization
    weights = [frac(x) for x in u]
    order = sorted(range(len(weights)), key=weights.__getitem__)
    reduced, pivots = rref([[row[j] for j in order]
                            for row in realization.matrix])
    rows = []
    for row, p in zip(reduced, pivots):
        lead = weights[order[p]]
        initial = [Fraction(0)] * len(order)
        for j, x in zip(order, row):
            if weights[j] == lead:
                initial[j] = x
        rows.append(initial)
    return from_matrix(rows)[1]


# -- amoeba sampling --------------------------------------------------------------


class AmoebaSample(NamedTuple):
    """Coordinatewise log-magnitude images of complement points, centered."""

    base: float
    points: tuple[tuple[float, ...], ...]


_MAX_RETRIES = 200  # draws per point before the sample is declared singular


def amoeba_sample(realization: LinearRealization, t: float, count: int,
                  seed: int = 0) -> AmoebaSample:
    """Sample the projectivized complement and map through log_t magnitudes.

    Points are drawn from complex Gaussian row combinations; draws on a
    hyperplane are rejected.  The log vectors are centered to represent
    classes modulo the all-ones vector.

    The draws form one stream of candidates, d complex coefficients each
    (real part first), and a rejected draw is replaced by the next
    candidate: the sample is the first ``count`` candidates off the
    hyperplanes, and ``_MAX_RETRIES`` rejections in a row make it
    singular.  Each round draws the shortfall and evaluates it in one
    numpy pass, so a smaller ``count`` gives a prefix of the sample.
    """
    try:
        base = float(t) if isinstance(t, Real) else math.nan
    except OverflowError:  # an integer or rational past the float range
        base = math.inf
    if not (math.isfinite(base) and base > 1):
        raise ParameterOutOfRange(
            f"logarithm base must be a finite number > 1, got {t!r}")
    if not (isinstance(count, Integral) and not isinstance(count, bool)
            and count >= 1):
        raise ParameterOutOfRange(
            f"sample size must be an integer >= 1, got {count!r}")
    if realization.matroid.n == 0:
        raise ParameterOutOfRange("amoeba sampling needs a nonempty ground set")
    if realization.matroid.loops():
        raise LoopsPresent("amoeba sampling needs a loop-free matroid")
    import numpy as np  # only the amoeba path needs numpy

    rng = random.Random(seed)
    matrix = np.array([[float(x) for x in row] for row in realization.matrix])
    d, n = matrix.shape
    accepted = []
    need, rejected = int(count), 0
    while need:
        size = 2 * d * need
        draws = np.fromiter(map(rng.gauss, repeat(0, size), repeat(1, size)),
                            float, count=size)
        # the stacked product keeps the bits of the per-candidate 1-D product
        z = (draws.view(complex).reshape(need, 1, d) @ matrix)[:, 0]
        off = (np.abs(z) > 1e-12).all(axis=1)
        if not off.all():
            for ok in off.tolist():
                rejected = 0 if ok else rejected + 1
                if rejected == _MAX_RETRIES:
                    raise SingularSample(
                        "too many draws hit the hyperplane union")
            z = z[off]
        accepted.append(z)
        need -= len(z)
    logs = np.log(np.abs(np.concatenate(accepted))) / np.log(base)
    centered = logs - logs.mean(axis=1, keepdims=True)
    return AmoebaSample(base=base,
                        points=tuple(map(tuple, centered.tolist())))


def _face_projections(mat):
    """pinv(A_S) and I - A_S pinv(A_S) for each linearly independent set S
    of columns: a point times the first's transpose gives the coefficients
    of its projection onto span A_S, times the second its residual."""
    import numpy as np

    n, k = mat.shape
    for size in range(1, np.linalg.matrix_rank(mat) + 1):
        subs = np.array([mat[:, cols]
                         for cols in combinations(range(k), size)])
        subs = subs[np.linalg.matrix_rank(subs) == size]
        inverses = np.linalg.pinv(subs)
        yield from zip(inverses, np.eye(n) - subs @ inverses)


def _cone_distances(targets, bound, mat):
    """Euclidean distance of each row of ``targets`` from the cone over the
    columns of ``mat``, or the entry of ``bound`` when that is smaller.

    The nearest point of a polyhedral cone is the projection onto the span
    of a linearly independent set S of generators with nonnegative
    coefficients (conic Caratheodory on the face it lies in), and every
    such projection lies in the cone, so the distance is the smallest
    residual over the S whose coefficients are all >= 0.
    """
    import numpy as np

    nearest = bound
    for pinv, complement in _face_projections(mat):
        feasible = (targets @ pinv.T >= 0).all(axis=1)
        lengths = np.linalg.norm(targets @ complement, axis=1)
        nearest = np.where(feasible & (lengths < nearest), lengths, nearest)
    return nearest


def support_deviations(sample: AmoebaSample, fan: BergmanFan) -> list[float]:
    """Distance of each negated sample point from the Bergman support.

    The distance is the smallest Euclidean distance of the point from the
    coarse cones (rays centered), or the point's norm when that is
    smaller.  One numpy pass over the whole sample computes each cone's
    exact distance for every point at once (``_cone_distances``); the
    answer is their minimum.
    """
    if not sample.points:
        return []
    import numpy as np

    targets = -np.array(sample.points)
    nearest = np.linalg.norm(targets, axis=1)
    rays = np.array(fan.rays, dtype=float)
    for cone in fan.cones:
        if cone:
            mat = rays[list(cone)].T
            nearest = _cone_distances(
                targets, nearest, mat - mat.mean(axis=0, keepdims=True))
    return [float(x) for x in nearest]
