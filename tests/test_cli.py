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


# JSON numbers that the file formats require to be (nonnegative) integers
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
    (["amoeba", "--corpus", "u23", "--count", "1", "--t", "1.5",
      "--seed", "3"],
     "0ca5816c96c40d85709c2c1de309f4bc888efbe08f82dc3b9b604003c1854d87"),
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
     "a293585112dd313376e97610d77202bd798fcb69d0155b057e4c8799d4db64d8"),
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


@pytest.mark.parametrize("name", list(_CONNECTED))
def test_connected_inputs_reach_no_lp_and_no_hull(name, monkeypatch, capsys):
    # only a disconnected Bergman fan and the DCP weight polytope still
    # reach the generic solvers; every subcommand answers a connected
    # input from structure, with the same bytes
    def outputs():
        out = {}
        for command in _SUBCOMMANDS:
            assert main([command, "--corpus", name,
                         *_options(command, _CONNECTED[name])]) == 0
            out[command] = capsys.readouterr().out
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("a generic solver was called")

    reference = outputs()
    for module in [m for key, m in sys.modules.items()
                   if key == "mfk" or key.startswith("mfk.")]:
        for solver in ("lp_feasible", "convex_hull", "irredundant_rays"):
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
    code = ("import sys, mfk.cli; print(sorted(m for m in "
            "('numpy', 'scipy', 'sympy') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
