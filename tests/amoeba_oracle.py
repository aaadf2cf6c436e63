"""One ``nnls`` per (point, cone) pair: the differential oracle for
``mfk.bergman.support_deviations``.

This is the distance loop ``support_deviations`` ran before it screened
the cones by one numpy pass over the whole sample, kept only to check
that pass: every cone's rays are centered, each negated point is fitted
to every cone by nonnegative least squares, and the deviation is the
smallest residual, or the point's norm when that is smaller.
"""

from __future__ import annotations


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
