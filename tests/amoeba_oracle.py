"""Differential oracles for ``mfk.bergman.amoeba_sample`` and
``mfk.bergman.support_deviations``.

``amoeba_sample`` is the per-point sampler ``mfk`` ran before it drew the
whole sample as one stream of candidates: each point draws d complex
Gaussian coefficients at a time, rejects a draw on a hyperplane, and gives
up after ``_MAX_RETRIES`` draws for one point.

``support_deviations`` is the distance loop ``mfk`` ran before it computed
the distances by one numpy pass over the whole sample: every cone's rays
are centered, each negated point is fitted to every cone by nonnegative
least squares (``scipy.optimize.nnls``), and the deviation is the smallest
residual, or the point's norm when that is smaller.

``exact_support_deviations`` computes the same distance in exact rational
arithmetic, rounding only at the final square root: the nearest point of
a cone is the projection onto the span of a linearly independent set of
its generators with nonnegative coefficients, so the squared distance is
the smallest squared residual over those sets, or the squared norm.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import fraction_oracle
from mfk.bergman import _MAX_RETRIES, AmoebaSample
from mfk.errors import SingularSample


def amoeba_sample(realization, t, count, seed=0) -> AmoebaSample:
    """Log-magnitude images of ``count`` complement points, drawn point by
    point (no validation: ``mfk.bergman.amoeba_sample`` validates)."""
    import numpy as np

    rng = random.Random(seed)
    matrix = np.array([[float(x) for x in row] for row in realization.matrix])
    d, n = matrix.shape
    points = []
    logt = np.log(t)
    for _ in range(count):
        for _ in range(_MAX_RETRIES):
            coeffs = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                               for _ in range(d)])
            z = coeffs @ matrix
            if np.all(np.abs(z) > 1e-12):
                break
        else:
            raise SingularSample("too many draws hit the hyperplane union")
        logs = np.log(np.abs(z)) / logt
        centered = logs - logs.mean()
        points.append(tuple(float(x) for x in centered))
    return AmoebaSample(base=float(t), points=tuple(points))


def support_deviations(sample, fan) -> list[float]:
    """Distance of each negated sample point from the Bergman support."""
    import numpy as np
    from scipy.optimize import nnls

    cones = []
    for cone in fan.cones:
        if cone.rays:
            mat = np.array([[float(x) for x in r] for r in cone.rays]).T
            mat = mat - mat.mean(axis=0, keepdims=True)
            cones.append(mat)
        else:
            cones.append(None)
    out = []
    for p in sample.points:
        target = -np.array(p)
        best = float(np.linalg.norm(target))
        for mat in cones:
            if mat is None:
                continue
            _, residual = nnls(mat, target)
            best = min(best, float(residual))
        out.append(best)
    return out


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _independent_sets(rays):
    """(S, inverse Gram matrix of S) for each linearly independent set S of
    the rays, found by exact elimination of [Gram | I]."""
    for size in range(1, len(rays) + 1):
        for subset in combinations(rays, size):
            augmented = [[_dot(u, v) for v in subset]
                         + [Fraction(int(i == j)) for j in range(size)]
                         for i, u in enumerate(subset)]
            red, pivots = fraction_oracle.rref(augmented)
            if pivots[:size] == list(range(size)):
                yield subset, [row[size:] for row in red]


def exact_support_deviations(sample, fan) -> list[float]:
    """Distance of each negated sample point from the Bergman support, by
    exact normal equations on every independent ray set of every cone."""
    faces = []
    for cone in fan.cones:
        if cone.rays:
            rays = [[Fraction(x) for x in r] for r in cone.rays]
            rays = [[x - sum(r) / len(r) for x in r] for r in rays]
            faces.extend(_independent_sets(rays))
    out = []
    for p in sample.points:
        target = [-Fraction(x) for x in p]
        best = _dot(target, target)
        for subset, inverse in faces:
            moments = [_dot(r, target) for r in subset]
            coeffs = [_dot(row, moments) for row in inverse]
            if min(coeffs) < 0:
                continue
            residual = [t - sum(c * r[i] for c, r in zip(coeffs, subset))
                        for i, t in enumerate(target)]
            best = min(best, _dot(residual, residual))
        out.append(math.sqrt(best))
    return out
