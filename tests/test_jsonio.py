import json

import pytest

from mfk.bergman import amoeba_sample, bergman_fan, support_deviations
from mfk.corpus import corpus
from mfk.geometry import face_lattice
from mfk.lattice import FlatLattice
from mfk.jsonio import (amoeba_to_json, bergman_to_json, circuits_to_json,
                        comparison_to_json, degeneration_to_json,
                        facets_to_json, graph_from_json, lattice_to_json,
                        matrix_from_json, matroid_from_json, matroid_to_json,
                        nested_fan_to_json, polytope_to_json)
from mfk.nested import compare_fans, min_building, nested_fan
from mfk.polytope import degeneration, facets, polytope
from mfk.reciprocal import reciprocal_generators


def _bytes(payload):
    return json.dumps(payload, sort_keys=True)


def test_matroid_round_trip(dela3):
    payload = matroid_to_json(dela3.matroid)
    assert payload["n"] == 5
    again = matroid_from_json(json.loads(_bytes(payload)))
    assert again == dela3.matroid


def test_matrix_round_trip(dela3):
    # the payload a writer of delA3's matrix would emit
    payload = {"rows": 3, "cols": 5, "entries": [[1, 0, 0, 1, 1],
                                                 [0, 1, 0, -1, 0],
                                                 [0, 0, 1, 0, -1]]}
    matroid, realization = matrix_from_json(json.loads(_bytes(payload)))
    assert matroid == dela3.matroid
    assert realization.matrix == dela3.realization.matrix


def test_matrix_rational_strings():
    matroid, realization = matrix_from_json({
        "rows": 1, "cols": 2, "entries": [["1/2", "-3"]]})
    assert realization.matrix[0][0].denominator == 2
    assert matroid.rank_d == 1


def test_matrix_shape_mismatch():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [["1", "0"]]})


def test_matrix_refuses_boolean_entries():
    # a JSON boolean is not an integer entry, as in the other readers
    for entry in (True, False):
        with pytest.raises(TypeError, match="not an exact rational"):
            matrix_from_json({"rows": 2, "cols": 2,
                              "entries": [[entry, 0], [0, 1]]})


def test_graph_payload():
    vertices, edges = graph_from_json(
        {"vertices": 3, "edges": [[1, 2], [2, 3]]})
    assert vertices == 3 and edges == [(1, 2), (2, 3)]


def test_polytope_round_trip(u24):
    hull = polytope(u24.matroid)
    payload = polytope_to_json(hull, face_lattice(hull))
    assert payload["f_vector"] == [6, 12, 8, 1]
    assert json.loads(_bytes(payload))["dim"] == hull.dim == 3


def test_lattice_payload(dela3_lattice):
    payload = lattice_to_json(dela3_lattice)
    assert [len(level) for level in payload["flats_by_rank"]] == [1, 5, 6, 1]
    assert all(isinstance(v, int) for _, v in payload["moebius"])
    assert all(i < j for i, j in payload["covers"])


def test_degeneration_payload(u24):
    payload = degeneration_to_json(degeneration(u24.matroid, [1, 0, 0, 0]))
    assert payload["loop_free"] is False
    assert payload["chain"] == [[2, 3, 4], [1, 2, 3, 4]]
    assert payload["matroid_u"]["bases"] == [[2, 3], [2, 4], [3, 4]]


def test_bergman_payload(dela3):
    fan = bergman_fan(FlatLattice(dela3.matroid))
    payload = bergman_to_json(fan)
    assert payload["n"] == 5
    assert len(payload["rays"]) == 6
    assert len(payload["maximal_cones"]) == 9
    assert len(payload["fine_cones"]) == 14
    assert len(payload["coarse_groups"]) == 9
    # deterministic double emission
    fan = bergman_fan(FlatLattice(dela3.matroid))
    assert _bytes(payload) == _bytes(bergman_to_json(fan))


def test_nested_fan_payload(dela3_lattice):
    fan = nested_fan(min_building(dela3_lattice))
    payload = nested_fan_to_json(fan)
    assert len(payload["rays"]) == 7
    assert len(payload["nested_sets"]) == len(payload["maximal_cones"]) == 10


def test_comparison_payload(u24_lattice):
    fan = nested_fan(min_building(u24_lattice))
    bfan = bergman_fan(u24_lattice)
    payload = comparison_to_json(compare_fans(fan, bfan))
    assert set(payload) == {"equal", "refines_ab", "refines_ba", "witness"}
    assert payload["equal"] is True


def test_circuits_payload(u24):
    payload = circuits_to_json(reciprocal_generators(u24.realization))
    assert len(payload["generators"]) == 4
    first = payload["generators"][0]
    assert first["degree"] == 2
    assert len(first["coefficients"]) == 3


def test_amoeba_payload_deterministic():
    u23 = corpus("u23")
    fan = bergman_fan(FlatLattice(u23.matroid))
    sample = amoeba_sample(u23.realization, 1e3, 25, seed=9)
    devs = support_deviations(sample, fan)
    a = _bytes(amoeba_to_json(sample, devs, seed=9))
    sample2 = amoeba_sample(u23.realization, 1e3, 25, seed=9)
    devs2 = support_deviations(sample2, fan)
    b = _bytes(amoeba_to_json(sample2, devs2, seed=9))
    assert a == b


def test_facets_payload(dela3):
    payload = facets_to_json(facets(dela3.matroid))
    kinds = sorted(f["kind"] for f in payload["facets"])
    assert kinds.count("interior") == 6
    assert kinds.count("boundary") == 1
