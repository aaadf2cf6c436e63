import hashlib
import importlib
import json
import os
import subprocess
import sys
import time

import pytest

import mfk
from mfk.cli import build_parser, main


def _run_cli(args, cwd=None, env=None):
    return subprocess.run([sys.executable, "-m", "mfk.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=env and {**os.environ, **env})


@pytest.fixture()
def dela3_matrix_file(tmp_path):
    path = tmp_path / "delA3.json"
    path.write_text(json.dumps({
        "rows": 3, "cols": 5,
        "entries": [["1", "0", "0", "1", "1"],
                    ["0", "1", "0", "-1", "0"],
                    ["0", "0", "1", "0", "-1"]]}))
    return str(path)


def test_polytope_subcommand(dela3_matrix_file, capsys):
    status = main(["polytope", "--matrix", dela3_matrix_file])
    assert status == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["f_vector"][:4] == [8, 18, 17, 7]


def test_matroid_subcommand_bases_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}))
    assert main(["matroid", "--bases", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}


def test_graph_subcommand(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"vertices": 3, "edges": [[1, 2], [1, 3], [2, 3]]}))
    assert main(["matroid", "--graph", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bases"] == [[1, 2], [1, 3], [2, 3]]


@pytest.mark.parametrize("command", [["circuits"],
                                     ["amoeba", "--seed", "3", "--count", "5"]])
def test_graph_input_keeps_its_realization(command, tmp_path, capsys):
    # braidK4 is built from the same incidence matrix, edges in this order
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({"vertices": 4, "edges": [
        [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}))
    assert main([command[0], "--graph", str(path), *command[1:]]) == 0
    from_graph = capsys.readouterr().out
    assert main([command[0], "--corpus", "braidK4", *command[1:]]) == 0
    assert from_graph == capsys.readouterr().out


def test_uniform_input_builds_the_matroid_once(monkeypatch, capsys):
    # the package re-exports the function corpus under the module's name
    corpus_module = importlib.import_module("mfk.corpus")
    calls = []
    uniform = corpus_module.uniform
    monkeypatch.setattr(corpus_module, "uniform",
                        lambda d, n: calls.append((d, n)) or uniform(d, n))
    assert main(["circuits", "--uniform", "3", "6"]) == 0
    assert calls == [(3, 6)]


@pytest.mark.parametrize("d,n", [("0", "3"), ("3", "2")])
def test_uniform_out_of_range_keeps_its_error_bytes(d, n, capsys):
    assert main(["matroid", "--uniform", d, n]) == 1
    assert capsys.readouterr().out == (
        '{\n  "error": "ParameterOutOfRange",\n'
        f'  "message": "uniform({d}, {n}) needs 1 <= d <= n"\n}}\n')


def test_bergman_subcommand_rays(capsys):
    assert main(["bergman", "--uniform", "2", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rays"] == [[0, 0, 0, 1], [0, 0, 1, 0],
                               [0, 1, 0, 0], [1, 0, 0, 0]]


def test_bergman_grid_flag(capsys):
    assert main(["bergman", "--uniform", "2", "4", "--grid", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["support_grid_radius"] == 2
    assert payload["support_grid_agrees"] is True


def test_a_huge_grid_radius_answers_at_once(capsys):
    # one weight per weak order: at 2K + 1 >= n the radius adds no work
    start = time.perf_counter()
    assert main(["bergman", "--corpus", "u24", "--grid", "100000"]) == 0
    assert time.perf_counter() - start < 0.5
    huge = json.loads(capsys.readouterr().out)
    assert main(["bergman", "--corpus", "u24", "--grid", "3"]) == 0
    small = json.loads(capsys.readouterr().out)
    assert huge.pop("support_grid_radius") == 100000
    assert small.pop("support_grid_radius") == 3
    assert huge == small


def test_degenerate_subcommand(capsys):
    assert main(["degenerate", "--uniform", "2", "4", "--u", "1,0,0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["loop_free"] is False
    assert payload["matroid_u"]["bases"] == [[2, 3], [2, 4], [3, 4]]


def test_compare_fans_subcommand(capsys):
    assert main(["compare-fans", "--corpus", "delA3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["refines_ab"] is True
    assert payload["refines_ba"] is False
    assert payload["equal"] is False
    assert payload["witness"]


def test_nested_subcommand_building_file(tmp_path, capsys):
    flats = [[1], [2], [3], [4], [5], [1, 2, 4], [1, 3, 5], [1, 2, 3, 4, 5]]
    path = tmp_path / "building.json"
    path.write_text(json.dumps(flats))
    assert main(["nested", "--corpus", "delA3",
                 "--building", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rays"]) == 7


def test_nested_invalid_building_errors(tmp_path, capsys):
    path = tmp_path / "building.json"
    path.write_text(json.dumps([[1], [2], [3], [4], [5], [1, 3, 5],
                                [1, 2, 3, 4, 5]]))
    status = main(["nested", "--corpus", "delA3", "--building", str(path)])
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "InvalidBuildingSet"
    # the valid building set of the test above, with element 1 written as a
    # boolean or a float: an element is a JSON integer
    for one in (True, 1.0):
        path.write_text(json.dumps([[one], [2], [3], [4], [5], [1, 2, 4],
                                    [1, 3, 5], [1, 2, 3, 4, 5]]))
        status = main(["nested", "--corpus", "delA3",
                       "--building", str(path)])
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "InvalidInput", payload


@pytest.mark.parametrize("flats, error, message", [
    ([[7]], "ParameterOutOfRange", "member [7] not inside [4]"),
    ([[1, 2]], "InvalidBuildingSet", "member [1, 2] is not a flat"),
])
def test_nested_building_file_names_the_bad_member(flats, error, message,
                                                   tmp_path, capsys):
    path = tmp_path / "building.json"
    path.write_text(json.dumps(flats))
    status = main(["nested", "--corpus", "u24", "--building", str(path)])
    assert status == 1
    assert json.loads(capsys.readouterr().out) == {"error": error,
                                                   "message": message}


def test_circuits_subcommand(capsys):
    assert main(["circuits", "--uniform", "2", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["generators"]) == 10


def test_circuits_without_realization_errors(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}))
    status = main(["circuits", "--bases", str(path)])
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "MfkError"


def test_amoeba_subcommand_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["amoeba", "--corpus", "u23", "--t", "1000",
                     "--count", "40", "--seed", "11",
                     "--output", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["count"] == 40
    assert payload["max_deviation"] < 0.15


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "delA3" in payload["corpus"]


def test_unknown_corpus_errors(capsys):
    assert main(["matroid", "--corpus", "nope"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "UnknownName"


def test_usage_error_exit_two():
    result = _run_cli(["polytope"])
    assert result.returncode == 2


def test_conflicting_inputs_exit_two():
    result = _run_cli(["matroid", "--uniform", "2", "4", "--corpus", "u24"])
    assert result.returncode == 2


def test_missing_command_exit_two():
    result = _run_cli([])
    assert result.returncode == 2


@pytest.mark.parametrize("args", [
    ["bergman", "--corpus", "u24", "--grid", "-1"],
    ["bergman", "--corpus", "u24", "--grid", "1.5"],
    ["amoeba", "--corpus", "u23", "--count", "-3"],
    ["amoeba", "--corpus", "u23", "--count", "0"],
    ["amoeba", "--corpus", "u23", "--t", "0.5"],
    ["amoeba", "--corpus", "u23", "--t", "1"],
    ["amoeba", "--corpus", "u23", "--t", "inf"],
    ["amoeba", "--corpus", "u23", "--t", "nan"],
    ["amoeba", "--corpus", "u23", "--t", "x"],
    ["degenerate", "--corpus", "u24", "--u", "1,x,0,0"],
    ["degenerate", "--corpus", "u24", "--u", "1/0,0,0,0"],
])
def test_bad_numeric_flag_exits_two(args):
    result = _run_cli(args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert f"argument {args[-2]}" in result.stderr


# (files written into DIR, arguments, environment, error)
_FAULTS = {
    "matrix without keys": (
        {"in.json": "{}"}, ["matroid", "--matrix", "DIR/in.json"], None,
        "InvalidInput"),
    "matrix of the wrong shape": (
        {"in.json": '{"rows": 1, "cols": 2, "entries": [["1"]]}'},
        ["matroid", "--matrix", "DIR/in.json"], None, "InvalidInput"),
    "malformed JSON": (
        {"in.json": '{"n": 2,'}, ["matroid", "--bases", "DIR/in.json"], None,
        "InvalidInput"),
    "bases of strings": (
        {"in.json": '{"n": 2, "bases": [["a"]]}'},
        ["matroid", "--bases", "DIR/in.json"], None, "InvalidInput"),
    "missing file": (
        {}, ["matroid", "--graph", "DIR/absent.json"], None, "InvalidInput"),
    "building set of non-elements": (
        {"b.json": "[[0]]"},
        ["nested", "--corpus", "u24", "--building", "DIR/b.json"], None,
        "InvalidInput"),
    "weight of the wrong length": (
        {}, ["degenerate", "--corpus", "u24", "--u", ""], None,
        "DimensionMismatch"),
    "output into a missing directory": (
        {}, ["matroid", "--corpus", "u24", "--output", "DIR/absent/out.json"],
        None, "UnwritableOutput"),
    "non-integer MFK_MAX_N": (
        {}, ["matroid", "--uniform", "2", "4"], {"MFK_MAX_N": "abc"},
        "ParameterOutOfRange"),
    "amoeba on a zero-column matrix": (
        {"in.json": '{"rows": 2, "cols": 0, "entries": [[], []]}'},
        ["amoeba", "--matrix", "DIR/in.json"], None, "ParameterOutOfRange"),
    "amoeba on a zero-row matrix": (
        {"in.json": '{"rows": 0, "cols": 3, "entries": []}'},
        ["amoeba", "--matrix", "DIR/in.json"], None, "ParameterOutOfRange"),
}


@pytest.mark.parametrize("case", list(_FAULTS))
def test_input_and_output_faults_exit_one_with_error_json(case, tmp_path):
    files, args, env, error = _FAULTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    result = _run_cli([a.replace("DIR", str(tmp_path)) for a in args],
                      env=env)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    payload = json.loads(result.stdout)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == error
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


# JSON numbers that the file formats require to be (nonnegative) integers,
# the elements of a basis, and a matrix entry
_NON_INTEGERS = {
    "fractional n": ("--bases", {"n": 3.5, "bases": [[1]]}),
    "boolean n": ("--bases", {"n": True, "bases": [[1]]}),
    "negative n": ("--bases", {"n": -1, "bases": [[]]}),
    "fractional vertex count": ("--graph", {"vertices": 2.7,
                                            "edges": [[1, 2]]}),
    "boolean vertex count": ("--graph", {"vertices": True, "edges": []}),
    "negative vertex count": ("--graph", {"vertices": -1, "edges": []}),
    "fractional endpoint": ("--graph", {"vertices": 3, "edges": [[1, 2.9]]}),
    "boolean endpoint": ("--graph", {"vertices": 3, "edges": [[True, 2]]}),
    "fractional rows": ("--matrix", {"rows": 1.5, "cols": 1,
                                     "entries": [["1"]]}),
    "boolean cols": ("--matrix", {"rows": 1, "cols": True,
                                  "entries": [["1"]]}),
    "negative rows": ("--matrix", {"rows": -1, "cols": 0, "entries": []}),
    "boolean element": ("--bases", {"n": 2, "bases": [[True, 2]]}),
    "boolean entry": ("--matrix", {"rows": 2, "cols": 2,
                                   "entries": [[True, 0], [0, 1]]}),
    "fractional element": ("--bases", {"n": 2, "bases": [[1.0, 2]]}),
}


@pytest.mark.parametrize("case", list(_NON_INTEGERS))
def test_non_integer_counts_are_invalid_input(case, tmp_path, capsys):
    flag, data = _NON_INTEGERS[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main(["matroid", flag, str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "InvalidInput", payload


def test_isolated_vertices_allocate_nothing(tmp_path, capsys):
    outputs = []
    for vertices in (2, 10 ** 9):
        path = tmp_path / f"{vertices}.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": [[1, 2]]}))
        start = time.perf_counter()
        assert main(["matroid", "--graph", str(path)]) == 0
        assert time.perf_counter() - start < 2
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# sha256 of the stdout bytes, recorded before the flags were range-checked
@pytest.mark.parametrize("args,digest", [
    (["bergman", "--corpus", "u24"],
     "d33bae597021e97d376e4ba27d62d9f92e48bdd5c7eaf4505a111bc2e661c845"),
    (["bergman", "--corpus", "u24", "--grid", "0"],
     "d33bae597021e97d376e4ba27d62d9f92e48bdd5c7eaf4505a111bc2e661c845"),
    (["bergman", "--corpus", "delA3", "--grid", "1"],
     "0b5c15f67f062fb29d5b7e4c802a9d4b2065fe83acb1447f9a35da202039598f"),
    # the two amoeba pins were re-recorded when the distances stopped going
    # through nnls: only the last ulps of max and median deviation moved
    (["amoeba", "--corpus", "u23", "--count", "1", "--t", "1.5",
      "--seed", "3"],
     "4fc3324ae70d6def9c36192c5059d929aa62055380ea84d06e74230254a0ee13"),
    # recorded before the CLI ran on its parsed arguments directly
    (["matroid", "--corpus", "delA3"],
     "57fb0323aa90a06a3155a07008beb37d85274acf8da4162957649890eb2f7519"),
    (["lattice", "--corpus", "delA3"],
     "84dbba2a7986f333fbd98fc3b47b8c3a44a07440274eaa457d78d0c3315d2af9"),
    (["polytope", "--corpus", "delA3"],
     "0675aedd43bf52183ed87e1312b3a5524f02442deaa58d1a419090b4ced981ba"),
    (["facets", "--corpus", "delA3"],
     "7eee3b881adebd1e1c6336d92bed2605e037563f6ef8296ea6cfd470c35f1fe4"),
    (["degenerate", "--corpus", "delA3", "--u", "2,0,1,0,1"],
     "5fd089d71f754512960df76f74a95a949834566b5a5626580487afd1cf028e14"),
    (["bergman", "--corpus", "delA3"],
     "55e714fe130acf54653a366f3a43ac6f9139eecf1becc0304fd865d4a39d16d3"),
    (["nested", "--corpus", "delA3"],
     "e182f581f23fe41402b16ff0db2b56b3fdb32bcdfb8b5d7a5e9bf318deaef0c1"),
    (["compare-fans", "--corpus", "delA3"],
     "e22b424bc43ff21866b2cd3e3c35819049b0140ecaaf8ff8c9d636dcd6e6232d"),
    (["circuits", "--corpus", "delA3"],
     "019fecc77ac43539444457c0688e912f1ac611b0429dd7593f2eb009a262bf53"),
    (["amoeba", "--corpus", "delA3", "--count", "5", "--seed", "7"],
     "bfd4dffcb33e8270c05639571db55835e70847039e78a97dd6d8d9fe3e6fb227"),
    (["circuits", "--uniform", "2", "5"],
     "80ea05eadf6851d8d61b402530721bc87f07df4e48ca649a0bc491f2fc952526"),
    (["amoeba", "--corpus", "u24", "--t", "50", "--count", "6", "--seed", "2"],
     "b17f9f9ecb844d1f4444fb34b4cb85d5854a9e6c9f4bbb7684d797df7600c957"),
    # recorded while lattice still eliminated the order complex
    (["lattice", "--uniform", "5", "11"],
     "b5e4d1c8063755b4af5a76e852594c9f6eba33135f398044bdff7b35b9c282d0"),
    (["lattice", "--corpus", "boolean_6"],
     "891dcda317771ac8c5a7af5f1edad7977f7fad8eca58d2d1521d52b87c14775f"),
])
def test_valid_numeric_flags_keep_their_bytes(args, digest):
    result = _run_cli(args)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


# (input file or None, input arguments, ground set size)
_EDGE_INPUTS = {
    "zero-column matrix": (
        {"rows": 2, "cols": 0, "entries": [[], []]}, ["--matrix"], 0),
    "zero-row matrix": ({"rows": 0, "cols": 3, "entries": []}, ["--matrix"], 0),
    "matrix with a loop": (
        {"rows": 2, "cols": 3, "entries": [["1", "0", "0"], ["0", "0", "1"]]},
        ["--matrix"], 3),
    "bases with n = 0": ({"n": 0, "bases": [[]]}, ["--bases"], 0),
    "one-vertex graph": ({"vertices": 1, "edges": []}, ["--graph"], 0),
    "parallel edge pair": (
        {"vertices": 3, "edges": [[1, 2], [1, 2], [2, 3]]}, ["--graph"], 3),
    "uniform 1 1": (None, ["--uniform", "1", "1"], 1),
    "boolean_1": (None, ["--corpus", "boolean_1"], 1),
    "boolean_2": (None, ["--corpus", "boolean_2"], 2),
}

_SUBCOMMANDS = ["matroid", "lattice", "polytope", "facets", "degenerate",
                "bergman", "nested", "compare-fans", "circuits", "amoeba"]


def _options(command, n):
    """The options a subcommand needs on a ground set of size n."""
    return {"degenerate": ["--u=" + ",".join(["0"] * n)],
            "bergman": ["--grid", "1"],
            "amoeba": ["--count", "3"]}.get(command, [])


def _edge_args(case, tmp_path):
    """The input arguments of an edge case, its file written under tmp_path."""
    data, args, _ = _EDGE_INPUTS[case]
    if data is None:
        return args
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    return [*args, str(path)]


def test_amoeba_on_a_looped_matrix_keeps_its_error_bytes(tmp_path, capsys):
    # recorded while the CLI refused loops itself; the library refuses now
    assert main(["amoeba", *_edge_args("matrix with a loop", tmp_path)]) == 1
    assert capsys.readouterr().out == (
        '{\n  "error": "LoopsPresent",\n'
        '  "message": "amoeba sampling needs a loop-free matroid"\n}\n')


@pytest.mark.parametrize("command", _SUBCOMMANDS)
@pytest.mark.parametrize("case", list(_EDGE_INPUTS))
def test_edge_inputs_exit_zero_or_one_with_error_json(case, command,
                                                     tmp_path, capsys):
    status = main([command, *_edge_args(case, tmp_path),
                   *_options(command, _EDGE_INPUTS[case][2])])
    payload = json.loads(capsys.readouterr().out)
    assert status in (0, 1)
    if status == 1:
        assert set(payload) == {"error", "message"}


# connected corpus entries with their ground set sizes, for the options
# some subcommands need (braidK5 is connected too, but its twenty runs take
# about 18 s on a 2-vCPU VM)
_CONNECTED = {"u23": 3, "u24": 4, "delA3": 5, "braidK4": 6,
              "uniform_3_6": 6}

# disconnected inputs: facets refuses them, the other subcommands answer
_DISCONNECTED = {"boolean_3": 3, "boolean_4": 4, "U23+U11": 4}
_U23_PLUS_U11 = {"rows": 3, "cols": 4,
                 "entries": [["1", "0", "1", "0"], ["0", "1", "1", "0"],
                             ["0", "0", "0", "1"]]}


@pytest.mark.parametrize("name", [*_CONNECTED, *_DISCONNECTED])
def test_connected_inputs_reach_no_lp_and_no_hull(name, monkeypatch, capsys,
                                                  tmp_path):
    # only the DCP weight polytope, which no subcommand builds, still
    # reaches the generic solvers; every subcommand answers a connected or
    # a disconnected input from structure, with the same status and bytes
    source = ["--corpus", name]
    if name == "U23+U11":
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(_U23_PLUS_U11))
        source = ["--matrix", str(path)]
    n = {**_CONNECTED, **_DISCONNECTED}[name]

    def outputs():
        out = {}
        for command in _SUBCOMMANDS:
            status = main([command, *source, *_options(command, n)])
            out[command] = status, capsys.readouterr().out
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("a generic solver was called")

    reference = outputs()
    assert {command: status for command, (status, _) in reference.items()
            if status} == ({} if name in _CONNECTED else {"facets": 1})
    for module in [m for key, m in sys.modules.items()
                   if key == "mfk" or key.startswith("mfk.")]:
        for solver in ("lp_feasible", "convex_hull", "irredundant_rays",
                       "cone_contains"):
            if hasattr(module, solver):
                monkeypatch.setattr(module, solver, refuse)
    assert outputs() == reference


# sha256 of lattice's stdout, recorded while it still eliminated the order
# complex: the rank <= 1 cases and the signs of reduced_euler are pinned here
_LATTICE_EDGE_DIGESTS = {
    "zero-column matrix":
        "7b1ebf5ec3be514c6754248790b8e1cbf1e6ed0ec0c422cc9b8cc61e51d66d96",
    "zero-row matrix":
        "7b1ebf5ec3be514c6754248790b8e1cbf1e6ed0ec0c422cc9b8cc61e51d66d96",
    "matrix with a loop":
        "ceb963ab63b020b54746fbd4e545d503a6bad744ff7cee39dce9b5cbc83a3356",
    "bases with n = 0":
        "7b1ebf5ec3be514c6754248790b8e1cbf1e6ed0ec0c422cc9b8cc61e51d66d96",
    "one-vertex graph":
        "7b1ebf5ec3be514c6754248790b8e1cbf1e6ed0ec0c422cc9b8cc61e51d66d96",
    "parallel edge pair":
        "4e4a6351965f52a448775a195910821018301cc7b07c13305f71ce56dc709d23",
    "uniform 1 1":
        "f710aed774fe9a0b6c790a4dfd75a3add426234d843df67c96eb0839d1e5d799",
    "boolean_1":
        "f710aed774fe9a0b6c790a4dfd75a3add426234d843df67c96eb0839d1e5d799",
    "boolean_2":
        "36f103f5007747797f42897f1e7b425a047daa1964f09a7450f1990eb1434c55",
}


@pytest.mark.parametrize("case", list(_EDGE_INPUTS))
def test_lattice_on_edge_inputs_keeps_its_bytes(case, tmp_path, capsys):
    assert main(["lattice", *_edge_args(case, tmp_path)]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == _LATTICE_EDGE_DIGESTS[case])


# (exit status, first 16 hex digits of the sha256 of stdout) of every other
# subcommand on each edge input, recorded while the lattice routines still
# took a matroid and an optional lattice: bergman now gets its lattice built
# before it refuses a looped input, and its error bytes must not change
_EDGE_DIGESTS = {
    "zero-column matrix": {
        "matroid": (0, "ac817d0c6da90329"),
        "polytope": (0, "e583f9e21cdb0cbf"),
        "facets": (1, "8ada37b2b6d63b5b"),
        "degenerate": (0, "848eefa1e19f4383"),
        "bergman": (0, "3d892a2be016af57"),
        "nested": (0, "66dde0d15d64f8ae"),
        "compare-fans": (0, "bd4808be3904715e"),
        "circuits": (0, "eb4cbd48264ebd96"),
        "amoeba": (1, "99bb978562125bcf"),
    },
    "zero-row matrix": {
        "matroid": (0, "ac817d0c6da90329"),
        "polytope": (0, "e583f9e21cdb0cbf"),
        "facets": (1, "8ada37b2b6d63b5b"),
        "degenerate": (0, "848eefa1e19f4383"),
        "bergman": (0, "3d892a2be016af57"),
        "nested": (0, "66dde0d15d64f8ae"),
        "compare-fans": (0, "bd4808be3904715e"),
        "circuits": (0, "eb4cbd48264ebd96"),
        "amoeba": (1, "99bb978562125bcf"),
    },
    "matrix with a loop": {
        "matroid": (0, "f7230a374033703c"),
        "polytope": (0, "5018e316c2229961"),
        "facets": (1, "24e7227bee2cf991"),
        "degenerate": (0, "30774a7a5e934fa0"),
        "bergman": (1, "1818ed537c0505d1"),
        "nested": (0, "1b98946875c865c1"),
        "compare-fans": (1, "1818ed537c0505d1"),
        "circuits": (1, "e7a4a7b03f8568a1"),
        "amoeba": (1, "abeb80a19cb6b35a"),
    },
    "bases with n = 0": {
        "matroid": (0, "ac817d0c6da90329"),
        "polytope": (0, "e583f9e21cdb0cbf"),
        "facets": (1, "8ada37b2b6d63b5b"),
        "degenerate": (0, "848eefa1e19f4383"),
        "bergman": (0, "3d892a2be016af57"),
        "nested": (0, "66dde0d15d64f8ae"),
        "compare-fans": (0, "bd4808be3904715e"),
        "circuits": (1, "095115dafca6a253"),
        "amoeba": (1, "095115dafca6a253"),
    },
    "one-vertex graph": {
        "matroid": (0, "ac817d0c6da90329"),
        "polytope": (0, "e583f9e21cdb0cbf"),
        "facets": (1, "8ada37b2b6d63b5b"),
        "degenerate": (0, "848eefa1e19f4383"),
        "bergman": (0, "3d892a2be016af57"),
        "nested": (0, "66dde0d15d64f8ae"),
        "compare-fans": (0, "bd4808be3904715e"),
        "circuits": (0, "eb4cbd48264ebd96"),
        "amoeba": (1, "99bb978562125bcf"),
    },
    "parallel edge pair": {
        "matroid": (0, "528f16ea2cecadfc"),
        "polytope": (0, "660ed5a34339708e"),
        "facets": (1, "8ada37b2b6d63b5b"),
        "degenerate": (0, "7462ba61cbe46354"),
        "bergman": (0, "47185a3d65e45d4d"),
        "nested": (0, "7f8d2f7e6a5623fe"),
        "compare-fans": (0, "bd4808be3904715e"),
        "circuits": (0, "c3fcfc154a8dee94"),
        "amoeba": (0, "834fd7fbffb9e39b"),  # re-recorded without nnls
    },
    "uniform 1 1": {
        "matroid": (0, "606bad6616f578da"),
        "polytope": (0, "707bb7ede52c411d"),
        "facets": (0, "08c579501eb009a7"),
        "degenerate": (0, "903ea7318224a03e"),
        "bergman": (0, "791854c2c9917908"),
        "nested": (0, "b6463047c0b50062"),
        "compare-fans": (0, "bd4808be3904715e"),
        "circuits": (0, "eb4cbd48264ebd96"),
        "amoeba": (0, "5fd76d7c76af7d99"),
    },
    "boolean_1": {
        "matroid": (0, "606bad6616f578da"),
        "polytope": (0, "707bb7ede52c411d"),
        "facets": (0, "08c579501eb009a7"),
        "degenerate": (0, "903ea7318224a03e"),
        "bergman": (0, "791854c2c9917908"),
        "nested": (0, "b6463047c0b50062"),
        "compare-fans": (0, "bd4808be3904715e"),
        "circuits": (0, "eb4cbd48264ebd96"),
        "amoeba": (0, "5fd76d7c76af7d99"),
    },
    "boolean_2": {
        "matroid": (0, "599b24e73167a210"),
        "polytope": (0, "789cf4b85ad0bf60"),
        "facets": (1, "8ada37b2b6d63b5b"),
        "degenerate": (0, "fdc6fa506728717f"),
        "bergman": (0, "1695d02541a4be17"),
        "nested": (0, "5bf27255a5821650"),
        "compare-fans": (0, "bd4808be3904715e"),
        "circuits": (0, "eb4cbd48264ebd96"),
        "amoeba": (0, "014fdcee3a51e3a2"),  # re-recorded without nnls
    },
}


@pytest.mark.parametrize("command",
                         [c for c in _SUBCOMMANDS if c != "lattice"])
@pytest.mark.parametrize("case", list(_EDGE_INPUTS))
def test_edge_inputs_keep_their_bytes(case, command, tmp_path, capsys):
    status = main([command, *_edge_args(case, tmp_path),
                   *_options(command, _EDGE_INPUTS[case][2])])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (status, digest[:16]) == _EDGE_DIGESTS[case][command]


# sha256 of stdout for the fan subcommands, recorded while the fans still
# kept their flats, flags and bases as sets of elements
_FAN_DIGESTS = {
    ("nested", "--corpus", "u23", "--building", "min"):
        "599c5d1f86262c5604c4b344ee4b6f3fcf1392ff428d7410663689b5560a2b6d",
    ("nested", "--corpus", "u23", "--building", "max"):
        "599c5d1f86262c5604c4b344ee4b6f3fcf1392ff428d7410663689b5560a2b6d",
    ("bergman", "--corpus", "u23"):
        "23c59e5f7549ae0b84006b974625a4e249b629175b76cb68622fd6c84074b735",
    ("compare-fans", "--corpus", "u23"):
        "bd4808be3904715ecc9f29737c2751f47b39e646d8443947ff2c9ef21f8d95c7",
    ("nested", "--corpus", "u24", "--building", "min"):
        "081cf2f92525bc4518d64cb1ea254660c2f43ce316a5ae5ad6a060ffc885e973",
    ("nested", "--corpus", "u24", "--building", "max"):
        "081cf2f92525bc4518d64cb1ea254660c2f43ce316a5ae5ad6a060ffc885e973",
    ("bergman", "--corpus", "u24"):
        "d33bae597021e97d376e4ba27d62d9f92e48bdd5c7eaf4505a111bc2e661c845",
    ("compare-fans", "--corpus", "u24"):
        "bd4808be3904715ecc9f29737c2751f47b39e646d8443947ff2c9ef21f8d95c7",
    ("nested", "--corpus", "delA3", "--building", "min"):
        "e182f581f23fe41402b16ff0db2b56b3fdb32bcdfb8b5d7a5e9bf318deaef0c1",
    ("nested", "--corpus", "delA3", "--building", "max"):
        "cc8b24fe0ceedaf89b924c18bf97dd4e4cd2f7f2dbf8066e03633992884a16ba",
    ("bergman", "--corpus", "delA3"):
        "55e714fe130acf54653a366f3a43ac6f9139eecf1becc0304fd865d4a39d16d3",
    ("compare-fans", "--corpus", "delA3"):
        "e22b424bc43ff21866b2cd3e3c35819049b0140ecaaf8ff8c9d636dcd6e6232d",
    ("nested", "--corpus", "braidK4", "--building", "min"):
        "29eb063c0379e2a6aaf7f38cfb1faed9ea1baed599f885a92c52d38c3eac6f07",
    ("nested", "--corpus", "braidK4", "--building", "max"):
        "a772a01a8c7f295d21f072fdd04319aea9a70742be7bcaa2bae43be7e06b4e63",
    ("bergman", "--corpus", "braidK4"):
        "a4fbfee2b1a4481e2115f52319025da3bac96791426cf5e14e93346240b836a1",
    ("compare-fans", "--corpus", "braidK4"):
        "bd4808be3904715ecc9f29737c2751f47b39e646d8443947ff2c9ef21f8d95c7",
    ("nested", "--corpus", "braidK5", "--building", "min"):
        "bd390dcb3249d66a768dc200a841470554166c1763b7e69e4db1a96b617a6ebf",
    ("nested", "--corpus", "braidK5", "--building", "max"):
        "d1cb611645ad37ef32a3cbb9d1adc9e210172b93c942f282c9d8994274d8251b",
    ("bergman", "--corpus", "braidK5"):
        "b0eebf6b39880f7bc9e1b040df91bf959b8f7057251465e969f0270634cc81c7",
    ("compare-fans", "--corpus", "braidK5"):
        "bd4808be3904715ecc9f29737c2751f47b39e646d8443947ff2c9ef21f8d95c7",
    ("nested", "--corpus", "boolean_3", "--building", "min"):
        "a07ed89ecf8d64d3d696cc238c48cb2bf72846442c5eabde6212960adf5474df",
    ("nested", "--corpus", "boolean_3", "--building", "max"):
        "1ad8558eec35ec1fa727501b3d7acc83ba32f991ecc1bd8af2a312bf93fbfa6c",
    ("bergman", "--corpus", "boolean_3"):
        "d7b1604426b3d23e91f7b80ad8a6c8d5a7e02f89e205afc1b43141ede47ec7ce",
    ("compare-fans", "--corpus", "boolean_3"):
        "bd4808be3904715ecc9f29737c2751f47b39e646d8443947ff2c9ef21f8d95c7",
    ("nested", "--corpus", "boolean_4", "--building", "min"):
        "c988f3519f4ae3cf2a229158c133f730cdfe537b8551044b39b3746b396565d4",
    ("nested", "--corpus", "boolean_4", "--building", "max"):
        "695faad8e3ab4ff67c99089f9279d8294884fd242364b8a4b893d7f1761e7369",
    ("bergman", "--corpus", "boolean_4"):
        "103085d86c0aef3ecd45f5a733466feb42603d7bfe174d02742490c47f5c180d",
    ("compare-fans", "--corpus", "boolean_4"):
        "bd4808be3904715ecc9f29737c2751f47b39e646d8443947ff2c9ef21f8d95c7",
    ("nested", "--corpus", "uniform_3_6", "--building", "min"):
        "3a5f22b2a23e29c11287743f6137eb305d090c95c184b9ec789b6a36648d5589",
    ("nested", "--corpus", "uniform_3_6", "--building", "max"):
        "2650a1e103712cd24ab5b3bac9a7d61bfead93421f0e90667b72446f77771bdc",
    ("bergman", "--corpus", "uniform_3_6"):
        "8e4b5083dafb922b85ef690da5dec111611e3a2f70ece4607f03c8f96f77050d",
    ("compare-fans", "--corpus", "uniform_3_6"):
        "bd4808be3904715ecc9f29737c2751f47b39e646d8443947ff2c9ef21f8d95c7",
    ("nested", "--uniform", "4", "9", "--building", "min"):
        "0d8f62b70ce32a756d9eba1214c65a6bed9b87bd6e99c47a8ed0582e8faa1fec",
    ("nested", "--uniform", "4", "9", "--building", "max"):
        "399b45cfdff131499505268de23edee78061f782537cd3a0c1fa31e3b2820b34",
    ("bergman", "--uniform", "4", "9"):
        "5f1244b688036edd08bcbf3c67161ca9c945f8ef57b13f3feea3ff6c06c6c13e",
    ("compare-fans", "--uniform", "4", "9"):
        "bd4808be3904715ecc9f29737c2751f47b39e646d8443947ff2c9ef21f8d95c7",
    ("nested", "--uniform", "5", "11", "--building", "max"):
        "0aef06b7f2d68e77bc600da3ab5921c76b7bbf32d8f325dbc8eda2ee06fcc700",
    ("bergman", "--corpus", "u24", "--grid", "3"):
        "a78b2cbf6c6fd6b4a1b2bdd0fc683e586f7bd77a55a50ecb1b054d4079ab1634",
}


@pytest.mark.parametrize("args", list(_FAN_DIGESTS), ids=" ".join)
def test_fan_artifacts_keep_their_bytes(args, capsys):
    assert main(list(args)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _FAN_DIGESTS[args]


@pytest.mark.parametrize("bare,spelled", [
    (["nested", "--corpus", "delA3"], ["--building", "min"]),
    (["amoeba", "--corpus", "u23"],
     ["--t", "1000", "--count", "100", "--seed", "0"]),
])
def test_omitted_options_take_their_defaults(bare, spelled, capsys):
    assert main(bare) == 0
    implicit = capsys.readouterr().out
    assert main([*bare, *spelled]) == 0
    assert capsys.readouterr().out == implicit


def test_output_file_atomic_write(tmp_path, dela3_matrix_file):
    out = tmp_path / "artifact.json"
    assert main(["facets", "--matrix", dela3_matrix_file,
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["facets"]) == 7
    assert not list(tmp_path.glob("*.tmp"))


def test_parser_knows_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ["matroid", "lattice", "polytope", "facets", "degenerate",
                 "bergman", "nested", "compare-fans", "circuits", "amoeba",
                 "corpus"]:
        assert name in text


def test_lattice_subcommand(capsys):
    assert main(["lattice", "--corpus", "u24"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu_top"] == 3
    assert payload["betti_proper_part"] == [3]


def test_cli_import_leaves_numeric_stacks_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mfk.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # nor dataclasses, whose import pulls in inspect, ast and dis
    code = ("import sys, mfk.cli; print(sorted(m for m in "
            "('numpy', 'scipy', 'sympy', 'dataclasses', 'inspect', 'ast', "
            "'dis') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_no_subcommand_but_amoeba_imports_numpy():
    # numpy's import costs about 180 ms per process; one process runs every
    # other subcommand on the corpus inputs above and must leave it unloaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(mfk.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = [["corpus", "list"]] + [
        [command, "--corpus", name, *_options(command, n)]
        for command in _SUBCOMMANDS if command != "amoeba"
        for name, n in {**_CONNECTED, **_DISCONNECTED}.items()
        if name != "U23+U11"]
    code = ("import sys\n"
            "from mfk.cli import main\n"
            f"statuses = [main(argv) for argv in {runs!r}]\n"
            "print(sorted(set(statuses)), 'numpy' in sys.modules, "
            "file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "[0, 1] False"
