import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfk import cli
from mfk.bergman import amoeba_sample, bergman_fan, support_deviations
from mfk.corpus import corpus
from mfk.geometry import face_lattice
from mfk.lattice import FlatLattice
from mfk.jsonio import (amoeba_to_json, bergman_to_json, circuits_to_json,
                        comparison_to_json, degeneration_to_json, dumps,
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


# -- the emitter against json.dumps ---------------------------------------------


def _reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


_AWKWARD = ['"', "\\", "[", "]", ",", ": ", "\x00", "\x1f", "\n\t", "\x7f",
            "é", "\u2028", "\U0001d11e", "[1, 2]", '{"a": 1}']
_STRINGS = st.one_of(st.text(), st.sampled_from(_AWKWARD))
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 1e-05, 1e16, 0.1]))
_INTS = st.one_of(st.integers(), st.integers(-2 ** 200, 2 ** 200),
                  st.sampled_from([0, -1, 2 ** 64]))
_LEAVES = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _STRINGS)
# lists of scalars go whole to json's C encoder: draw many
_HOMOGENEOUS = st.one_of(*(st.lists(leaf, min_size=1) for leaf in
                           (_INTS, _FLOATS, _STRINGS, st.booleans())))
_VALUES = st.recursive(
    st.one_of(_LEAVES, _HOMOGENEOUS),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(_STRINGS, inner)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_dumps_has_the_bytes_of_json_dumps(value):
    assert dumps(value) == _reference(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": []}, [[], {}], [[[[[[[[[1]]]]]]]]], {"": None},
    [True, 1, 1.0, None, "1"], {"b": 1, "a": [2, 3], "c": {"d": -0.0}},
], ids=repr)
def test_dumps_on_empty_mixed_and_deep_containers(value):
    assert dumps(value) == _reference(value)


# json's C encoder (CPython 3.10, 3.11) returns its text in several chunks
# once it holds 100,000 pieces: a list of 50,000 scalars is "[", 50,000
# values, 49,999 separators and "]"
@pytest.mark.parametrize("size", [49_999, 50_000, 120_001])
@pytest.mark.parametrize("wrap", ["bare", "in_dict", "nested"])
def test_dumps_on_long_scalar_lists(size, wrap):
    floats = [i / 7 for i in range(size)]
    value = {"bare": floats, "in_dict": {"deviations": floats, "n": size},
             "nested": [[floats], ["x" * 3] * size]}[wrap]
    assert dumps(value) == _reference(value)


@pytest.mark.parametrize("count", [50_000, 60_000])
def test_a_long_amoeba_artifact_has_the_bytes_of_json_dumps(
        count, monkeypatch, capsys):
    emitted, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda artifact, output: (
        emitted.append(artifact), emit(artifact, output))[1])
    assert cli.main(["amoeba", "--corpus", "u23", "--count", str(count),
                     "--seed", "1"]) == 0
    assert len(emitted[0]["deviations"]) == count
    assert capsys.readouterr().out == _reference(emitted[0]) + "\n"


# m levels of non-empty lists or tuples over scalars: one C-encoder text,
# then one replacement per level between siblings
def _blocks(depth):
    inner = st.one_of(st.sampled_from(["", *_AWKWARD]), _INTS, _FLOATS,
                      st.booleans(), st.none())
    for _ in range(depth):
        lists = st.lists(inner, min_size=1, max_size=4)
        inner = st.one_of(lists, lists.map(tuple))
    return inner


_BLOCKS = st.integers(2, 4).flatmap(_blocks)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_BLOCKS, _BLOCKS.map(lambda b: {"a": [b, "]"], "b": b}),
                 st.lists(_BLOCKS, min_size=1, max_size=3)))
def test_dumps_on_blocks_has_the_bytes_of_json_dumps(value):
    assert dumps(value) == _reference(value)


@pytest.mark.parametrize("value", [
    # ragged depth
    [[1, 2], [[3]]], [[[1]], [[2], 3]], [[["]"]], ["]"]], [[1], 2],
    # an empty container inside
    [[1], []], [[[1], []], [[2]]], [[[]]], [(), [1]],
    # a dict inside
    [[1], {"a": [1]}], [[[1]], [{"a": 1}]], [[{}]], [[{"a": [[1]]}]],
], ids=repr)
def test_dumps_on_near_blocks_falls_back_to_the_same_bytes(value):
    assert dumps(value) == _reference(value)


# 60,000 pairs make 300,000 pieces: the C encoder returns several chunks,
# and the replacements run on their join
@pytest.mark.parametrize("wrap", ["bare", "in_dict"])
def test_dumps_on_a_long_block_of_pairs(wrap):
    pairs = [[i, i / 7] for i in range(60_000)]
    value = pairs if wrap == "bare" else {"pairs": pairs, "n": len(pairs)}
    assert dumps(value) == _reference(value)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), {1, 2}, [Fraction(1, 2)], [1, {1}], {"a": {1}},
    {"a": [1, 2.0, Fraction(1)]}, [[b"1"]],
], ids=repr)
def test_dumps_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        _reference(value)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dumps(value)


_SUBCOMMANDS = ["matroid", "lattice", "polytope", "facets", "degenerate",
                "bergman", "nested", "compare-fans", "circuits", "amoeba"]
# the named entries and one of each family
_SWEEP = ["u23", "u24", "delA3", "braidK4", "braidK5", "boolean_3",
          "uniform_3_6"]


def _options(command, n):
    # no --grid: braidK5's grid takes seconds even at radius 1
    return {"degenerate": ["--u=" + ",".join(["0"] * n)],
            "amoeba": ["--count", "3"]}.get(command, [])


@pytest.mark.parametrize("command", _SUBCOMMANDS)
@pytest.mark.parametrize("name", _SWEEP)
def test_every_corpus_artifact_has_the_bytes_of_json_dumps(
        name, command, tmp_path, monkeypatch, capsys):
    emitted, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda artifact, output: (
        emitted.append(artifact), emit(artifact, output))[1])
    path = tmp_path / "artifact.json"
    argv = [command, "--corpus", name,
            *_options(command, corpus(name).matroid.n)]
    status = cli.main(argv)
    assert status in (0, 1)
    assert capsys.readouterr().out == _reference(emitted[0]) + "\n"
    assert cli.main([*argv, "--output", str(path)]) == status
    assert path.read_bytes() == (_reference(emitted[0]) + "\n").encode()


def test_the_corpus_list_has_the_bytes_of_json_dumps(capsys):
    assert cli.main(["corpus", "list"]) == 0
    text = capsys.readouterr().out
    assert text == _reference(json.loads(text)) + "\n"
