"""JSON encodings of every artifact the command line emits.

All element lists are 1-based and sorted; flats, bases and building
members arrive as masks, and ``_element_lists`` makes each one's list once.
Rationals travel as strings "p/q" (or plain integers); emission order is
deterministic so identical inputs give identical bytes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii

from .bergman import AmoebaSample, BergmanFan
from .geometry import FaceLattice, Fan, RationalPolytope
from .lattice import FlatLattice
from .linalg import frac
from .matroid import LinearRealization, Matroid, from_bases, from_matrix
from .nested import FanComparison, NestedFan
from .polytope import Degeneration, FacetDescription


_SCALARS = frozenset({str, int, float, bool, type(None)})


@cache
def _level(depth: int) -> tuple:
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return inner, outer, "," + inner, c_make_encoder(
        None, JSONEncoder().default, encode_basestring_ascii, None, ": ",
        "," + inner, False, False, True)


def dumps(artifact) -> str:
    """``json.dumps(artifact, sort_keys=True, indent=2)`` for dicts with str
    keys, lists, tuples and JSON scalars; other values raise TypeError."""
    return _dumps(artifact, 0)


def _dumps(o, depth: int) -> str:
    if not isinstance(o, (list, tuple, dict)) or not o:
        return "".join(_level(0)[3](o, 0))  # the C encoder returns chunks
    inner, outer, sep, scalars = _level(depth)
    if isinstance(o, dict):
        return "{" + inner + sep.join([
            encode_basestring_ascii(k) + ": " + _dumps(o[k], depth + 1)
            for k in sorted(o)]) + outer + "}"
    body = ("".join(scalars(o, 0))[1:-1] if set(map(type, o)) <= _SCALARS
            else sep.join([_dumps(x, depth + 1) for x in o]))
    return "[" + inner + body + outer + "]"


def _rational_str(x: Fraction):
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _element_lists(masks) -> dict[int, list[int]]:
    """The ascending element list of each mask: one list per mask, to be
    reused wherever the mask occurs in an artifact."""
    return {m: [i + 1 for i in range(m.bit_length()) if m >> i & 1]
            for m in set(masks)}


# -- matroids ----------------------------------------------------------------------


def matroid_to_json(matroid: Matroid) -> dict:
    return {"n": matroid.n,
            "bases": sorted(_element_lists(matroid.base_masks).values())}


def _integer(x, minimum=None) -> int:
    """A JSON integer, at least ``minimum``; floats and booleans are refused."""
    if type(x) is not int or (minimum is not None and x < minimum):
        raise ValueError(f"{x!r} is not an integer"
                         + ("" if minimum is None else f" >= {minimum}"))
    return x


def matroid_from_json(data: dict) -> Matroid:
    return from_bases(_integer(data["n"], 0),
                      [{_integer(e) for e in b} for b in data["bases"]])


def matrix_from_json(data: dict) -> tuple[Matroid, LinearRealization]:
    entries = data["entries"]
    rows, cols = _integer(data["rows"], 0), _integer(data["cols"], 0)
    if len(entries) != rows or any(len(row) != cols for row in entries):
        raise ValueError("matrix entries do not match the declared shape")
    if any(isinstance(x, bool) for row in entries for x in row):
        raise TypeError("a matrix entry is a boolean, not an exact rational")
    return from_matrix([[frac(x) for x in row] for row in entries])


def graph_from_json(data: dict) -> tuple[int, list[tuple[int, int]]]:
    return (_integer(data["vertices"], 0),
            [(_integer(u), _integer(v)) for u, v in data["edges"]])


# -- lattice -----------------------------------------------------------------------


def lattice_to_json(lattice: FlatLattice) -> dict:
    index = {f: i for i, f in enumerate(lattice.flat_masks)}
    flats = _element_lists(lattice.flat_masks)
    return {
        "flats_by_rank": [[flats[f] for f in level]
                          for level in lattice.by_rank],
        "covers": sorted([index[a], index[b]] for a, b in lattice.cover_pairs),
        "moebius": [[flats[f], lattice.moebius_mask(f)]
                    for f in lattice.flat_masks],
    }


# -- polytopes ---------------------------------------------------------------------


def polytope_to_json(polytope: RationalPolytope, faces: FaceLattice) -> dict:
    return {
        "dim": polytope.dim,
        "vertices": [[_rational_str(x) for x in v] for v in polytope.vertices],
        "facets": [{"normal": list(normal), "offset": _rational_str(offset)}
                   for normal, offset in polytope.facets],
        "f_vector": list(faces.f_vector),
    }


def facets_to_json(descriptions: list[FacetDescription]) -> dict:
    out = []
    for d in descriptions:
        out.append({
            "kind": d.kind,
            "flat": sorted(d.flat) if d.flat is not None else None,
            "element": d.element,
            "inner_normal": list(d.inner_normal),
            "vertex_bases": sorted(map(sorted, d.vertex_bases)),
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
    flats = _element_lists(f for chain in fan.fine_chains for f in chain)
    bases = _element_lists(fan.matroid.base_masks)
    data["fine_cones"] = [[flats[f] for f in chain]
                          for chain in fan.fine_chains]
    data["coarse_groups"] = [sorted(g) for g in fan.groups]
    data["group_bases"] = [sorted([bases[b] for b in group])
                           for group in fan.group_bases]
    return data


def nested_fan_to_json(fan: NestedFan) -> dict:
    data = _fan_payload(fan)
    lists = _element_lists(fan.building.members)
    members = [lists[g] for g in fan.building.members]
    data["nested_sets"] = [sorted([members[k] for k in s])
                           for s in fan.nested_sets]
    return data


def comparison_to_json(cmp: FanComparison) -> dict:
    return {"equal": cmp.equal, "refines_ab": cmp.refines_ab,
            "refines_ba": cmp.refines_ba, "witness": cmp.witness}


# -- circuits and amoebas ------------------------------------------------------------


def circuits_to_json(generators) -> dict:
    keyed = sorted(((sorted(g.circuit), g) for g in generators),
                   key=lambda pair: pair[0])
    return {"generators": [
        {"circuit": c, "coefficients": [[i, g.coefficients[i]] for i in c],
         "degree": g.degree()} for c, g in keyed]}


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
