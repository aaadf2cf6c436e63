"""JSON encodings of every artifact the command line emits.

All element lists are 1-based and sorted; rationals travel as strings
"p/q" (or plain integers); emission order is deterministic so identical
inputs give identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .bergman import AmoebaSample, BergmanFan
from .geometry import FaceLattice, Fan, RationalPolytope
from .lattice import FlatLattice
from .linalg import frac
from .matroid import LinearRealization, Matroid, from_bases, from_matrix
from .nested import FanComparison, NestedFan
from .polytope import Degeneration, FacetDescription


def _rational_str(x: Fraction):
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _sorted_sets(sets) -> list[list[int]]:
    return sorted(sorted(s) for s in sets)


# -- matroids ----------------------------------------------------------------------


def matroid_to_json(matroid: Matroid) -> dict:
    return {"n": matroid.n, "bases": _sorted_sets(matroid.bases)}


def _integer(x, minimum=None) -> int:
    """A JSON integer, at least ``minimum``; floats and booleans are refused."""
    if type(x) is not int or (minimum is not None and x < minimum):
        raise ValueError(f"{x!r} is not an integer"
                         + ("" if minimum is None else f" >= {minimum}"))
    return x


def matroid_from_json(data: dict) -> Matroid:
    return from_bases(_integer(data["n"], 0), [set(b) for b in data["bases"]])


def matrix_to_json(realization: LinearRealization) -> dict:
    return {"rows": realization.nrows, "cols": realization.ncols,
            "entries": [[_rational_str(x) for x in row]
                        for row in realization.matrix]}


def matrix_from_json(data: dict) -> tuple[Matroid, LinearRealization]:
    entries = data["entries"]
    rows, cols = _integer(data["rows"], 0), _integer(data["cols"], 0)
    if len(entries) != rows or any(len(row) != cols for row in entries):
        raise ValueError("matrix entries do not match the declared shape")
    return from_matrix([[frac(x) for x in row] for row in entries])


def graph_from_json(data: dict) -> tuple[int, list[tuple[int, int]]]:
    return (_integer(data["vertices"], 0),
            [(_integer(u), _integer(v)) for u, v in data["edges"]])


# -- lattice -----------------------------------------------------------------------


def lattice_to_json(lattice: FlatLattice) -> dict:
    from .bitset import from_mask
    index = {f: i for i, f in enumerate(lattice.flat_masks)}
    return {
        "flats_by_rank": [[sorted(from_mask(f)) for f in level]
                          for level in lattice.by_rank],
        "covers": sorted([index[a], index[b]] for a, b in lattice.cover_pairs),
        "moebius": [[sorted(from_mask(f)), lattice.moebius_mask(f)]
                    for f in lattice.flat_masks],
    }


# -- polytopes ---------------------------------------------------------------------


def polytope_to_json(polytope: RationalPolytope,
                     faces: FaceLattice | None = None) -> dict:
    data = {
        "dim": polytope.dim,
        "vertices": [[_rational_str(x) for x in v] for v in polytope.vertices],
        "facets": [{"normal": list(normal), "offset": _rational_str(offset)}
                   for normal, offset in polytope.facets],
    }
    if faces is not None:
        data["f_vector"] = list(faces.f_vector)
    return data


def polytope_from_json(data: dict) -> RationalPolytope:
    vertices = tuple(tuple(frac(x) for x in v) for v in data["vertices"])
    facets = tuple((tuple(int(c) for c in f["normal"]), frac(f["offset"]))
                   for f in data["facets"])
    return RationalPolytope(vertices=vertices, facets=facets,
                            dim=int(data["dim"]))


def facets_to_json(descriptions: list[FacetDescription]) -> dict:
    out = []
    for d in descriptions:
        out.append({
            "kind": d.kind,
            "flat": sorted(d.flat) if d.flat is not None else None,
            "element": d.element,
            "inner_normal": list(d.inner_normal),
            "vertex_bases": _sorted_sets(d.vertex_bases),
        })
    return {"facets": out}


# -- degenerations -----------------------------------------------------------------


def degeneration_to_json(deg: Degeneration) -> dict:
    return {
        "chain": [sorted(s) for s in deg.chain.sets],
        "matroid_u": matroid_to_json(deg.matroid_u),
        "loop_free": deg.loop_free,
    }


# -- fans --------------------------------------------------------------------------


def _fan_payload(fan: Fan) -> dict:
    rays = fan.rays()
    index = {r: i for i, r in enumerate(rays)}
    return {
        "n": fan.n,
        "rays": [list(r) for r in rays],
        "maximal_cones": sorted(sorted(index[r] for r in c.rays)
                                for c in fan.cones),
    }


def bergman_to_json(fan: BergmanFan) -> dict:
    data = _fan_payload(fan)
    data["fine_cones"] = [[sorted(f) for f in chain]
                          for chain in fan.fine_chains]
    data["coarse_groups"] = [sorted(g) for g in fan.groups]
    data["group_bases"] = [_sorted_sets(b) for b in fan.group_bases]
    return data


def nested_fan_to_json(fan: NestedFan) -> dict:
    data = _fan_payload(fan)
    data["nested_sets"] = [_sorted_sets(s) for s in fan.nested_sets]
    return data


def comparison_to_json(cmp: FanComparison) -> dict:
    return {"equal": cmp.equal, "refines_ab": cmp.refines_ab,
            "refines_ba": cmp.refines_ba, "witness": cmp.witness}


# -- circuits and amoebas ------------------------------------------------------------


def circuits_to_json(generators) -> dict:
    return {"generators": [
        {"circuit": sorted(g.circuit),
         "coefficients": [[i, g.coefficients[i]] for i in sorted(g.circuit)],
         "degree": g.degree()}
        for g in sorted(generators, key=lambda g: sorted(g.circuit))]}


def amoeba_to_json(sample: AmoebaSample, deviations: list[float],
                   seed: int) -> dict:
    ordered = sorted(deviations)
    mid = len(ordered) // 2
    median = (ordered[mid] if len(ordered) % 2
              else (ordered[mid - 1] + ordered[mid]) / 2)
    return {
        "t": sample.base,
        "count": len(sample.points),
        "seed": seed,
        "max_deviation": max(deviations),
        "median_deviation": median,
        "points": [[round(x, 12) for x in p] for p in sample.points],
        "deviations": [round(x, 12) for x in deviations],
    }
