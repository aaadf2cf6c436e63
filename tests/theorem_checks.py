"""Executable forms of three theorems of the notes, checked by the tests.

Each takes the structure the theorem speaks about and answers True when the
theorem's statement holds on it:

* ``dual_reflection_check``: the polytope of M* is the reflection 1 - x of
  the polytope of M, vertex by vertex;
* ``check_prop_grob``: the degeneration matroid of a weight is the matroid
  of the initial subspace of the realization;
* ``dcp_normal_refinement_check``: the nested fan refines the normal fan of
  De Concini–Procesi's weight polytope.
"""

from __future__ import annotations

from fractions import Fraction

from mfk.bergman import initial_subspace
from mfk.linalg import frac
from mfk.matroid import LinearRealization, Matroid
from mfk.nested import NestedFan
from mfk.polytope import degeneration, indicator_vertex


def dual_reflection_check(matroid: Matroid) -> bool:
    """Vertexwise identity between the dual polytope and the reflected one."""
    dual_vertices = {indicator_vertex(matroid.n, b)
                     for b in matroid.dual().bases}
    reflected = {tuple(Fraction(1) - x for x in indicator_vertex(matroid.n, b))
                 for b in matroid.bases}
    return dual_vertices == reflected


def check_prop_grob(realization: LinearRealization, u) -> bool:
    """Degeneration matroid equals the matroid of the initial subspace."""
    limit = initial_subspace(realization, u)
    expected = degeneration(realization.matroid, [frac(x) for x in u]).matroid_u
    return limit.matroid == expected


def dcp_normal_refinement_check(fan: NestedFan) -> bool:
    """Each nested cone selects constant argmin sets on every member simplex.

    This is the executable form of the containment of the nested fan in the
    normal fan of the weight polytope.
    """
    n = fan.n
    for nested in fan.nested_sets:
        support: dict[int, frozenset] = {}
        for i in range(1, n + 1):
            support[i] = frozenset(x for x in nested if i in x)
        coefficient_choices = [
            {x: 1 + k for k, x in enumerate(sorted(nested, key=sorted))},
            {x: 7 + 3 * k for k, x in enumerate(sorted(nested, key=sorted))},
        ]
        for flat in fan.building.members:
            i0 = min(flat, key=lambda i: (len(support[i]), i))
            if not all(support[i0] <= support[i] for i in flat):
                return False
            predicted = {i for i in flat if support[i] == support[i0]}
            for coeffs in coefficient_choices:
                weights = [sum(c for x, c in coeffs.items() if i in x)
                           for i in range(1, n + 1)]
                low = min(weights[i - 1] for i in flat)
                argmin = {i for i in flat if weights[i - 1] == low}
                if argmin != predicted:
                    return False
    return True
