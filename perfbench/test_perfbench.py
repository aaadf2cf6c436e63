"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check that the generator is deterministic per seed, that traced and
untraced library passes print identical bytes, that each invariant checker
rejects a hand-corrupted artifact, and that every job has a golden digest.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, vandermonde  # noqa: E402


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def test_generator_is_deterministic_per_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    gen.write_inputs(gen.generate(7), str(first))
    gen.write_inputs(gen.generate(7), str(second))
    assert _files(first) == _files(second)
    assert gen.generate(7) == gen.generate(7 + gen.VARIANTS)
    assert gen.generate(7) != gen.generate(8)


def test_generated_instances_have_their_fixed_type():
    for seed in range(8):
        data = gen.generate(seed)
        for name, (rows, cols, _, base_count) in gen.MATRIX_SPECS.items():
            matrix = data[name]
            assert (len(matrix), len(matrix[0])) == (rows, cols)
            assert len(gen.bases(matrix)) == base_count
        assert len(gen.bases(data[gen.PAIRS_NAME])) == 12


def test_every_job_has_a_golden_digest():
    for variant in range(gen.VARIANTS):
        table = golden.load(variant)
        data = gen.generate(variant)
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs_for(workload, data):
                assert job.key in table, (variant, job.key)


def _small_jobs(tmp_path):
    data = gen.generate(3)
    paths = gen.write_inputs(data, str(tmp_path))
    jobs = workloads.jobs_for("homology", data)
    jobs.append(Job(("amoeba", "--corpus", "u23", "--count", "100"),
                    "amoeba"))
    return list(enumerate(job.resolve(paths) for job in jobs))


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    import mfk.cli
    argvs = _small_jobs(tmp_path)
    _, plain = worker.run_jobs(mfk.cli.main, argvs)
    trace = tracer.Tracer()
    trace.install()
    try:
        _, traced = worker.run_jobs(mfk.cli.main, argvs, trace)
    finally:
        trace.uninstall()
    assert traced == plain
    layers = trace.summary()
    assert layers["cli.emit.bytes"] > 0
    assert layers["linalg.rref.calls"] > 0
    assert layers["lattice.FlatLattice.flats"] > 0
    # uninstall restored the originals
    assert not hasattr(mfk.linalg.rref, "__wrapped__")


def _artifact(argv):
    import mfk.cli
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = mfk.cli.main(argv)
    return status, json.loads(buffer.getvalue())


def _rejects(job, artifact):
    return checks.CHECKERS[job.check](job, artifact) is not None


CORRUPTIONS = [
    (Job(("polytope", "--corpus", "delA3"), "polytope", expect=8),
     [lambda a: a["vertices"].pop(),
      lambda a: a["f_vector"].__setitem__(1, a["f_vector"][1] + 1)]),
    (Job(("lattice", "--corpus", "delA3"), "lattice"),
     [lambda a: a.__setitem__("mu_top", a["mu_top"] + 1),
      lambda a: a["betti_proper_part"].__setitem__(0, 1),
      lambda a: a.__setitem__("reduced_euler", a["reduced_euler"] + 1)]),
    (Job(("compare-fans", "--corpus", "delA3"), "compare"),
     [lambda a: a.__setitem__("refines_ab", False)]),
    (Job(("bergman", "--corpus", "u24", "--grid", "1"), "grid"),
     [lambda a: a.__setitem__("support_grid_agrees", False)]),
    (Job(("circuits", "--corpus", "uniform_2_5"), "circuits",
         expect=vandermonde(2, 5)),
     [lambda a: a["generators"].pop(),
      lambda a: a["generators"][0]["coefficients"][0].__setitem__(1, 7),
      lambda a: a["generators"][0]["coefficients"][0].__setitem__(1, 0)]),
    (Job(("amoeba", "--corpus", "u23", "--count", "20"), "amoeba", expect=20),
     [lambda a: a["points"].pop(),
      lambda a: a["points"][0].__setitem__(0, a["points"][0][0] + 1.0),
      lambda a: a["deviations"].__setitem__(0, -1.0)]),
    (Job(("facets", "--corpus", "boolean_3"), "error"),
     [lambda a: a.__setitem__("traceback", "..."),
      lambda a: a.__setitem__("message", 3)]),
]


@pytest.mark.parametrize("job,corruptions", CORRUPTIONS,
                         ids=[job.key for job, _ in CORRUPTIONS])
def test_checkers_reject_corrupted_artifacts(job, corruptions):
    status, artifact = _artifact(list(job.argv))
    assert checks.CHECKERS[job.check](job, artifact) is None
    for corrupt in corruptions:
        bad = copy.deepcopy(artifact)
        corrupt(bad)
        assert _rejects(job, bad), corrupt


def test_check_output_rejects_status_traceback_and_digest():
    job = Job(("facets", "--corpus", "boolean_3"), "error")
    status, artifact = _artifact(list(job.argv))
    stdout = (json.dumps(artifact, sort_keys=True, indent=2) + "\n").encode()
    good = [status, checks.golden_digest(job, stdout)]
    assert checks.check_output(job, status, stdout, b"", good) is None
    assert checks.check_output(job, 0, stdout, b"", None) is not None
    assert checks.check_output(job, status, stdout,
                               b"Traceback (most recent call last)",
                               good) is not None
    assert checks.check_output(job, status, stdout, b"",
                               [status, "0" * 64]) is not None
    assert checks.check_output(job, status, b"not json", b"", None) is not None


def test_import_layers_attribute_families():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     mpmath",
        "import time:       200 |        300 |   sympy",
        "import time:        50 |         50 |     numpy.core",
        "import time:        10 |         60 |   numpy",
        "import time:         5 |        365 | mfk.geometry",
    ])
    layers = run.import_layers(text)
    assert layers["import.sympy_s"] == pytest.approx(300e-6)
    assert layers["import.numpy_s"] == pytest.approx(60e-6)
    assert layers["import.scipy_s"] == 0.0
    assert layers["import.mfk_self_s"] == pytest.approx(5e-6)
    assert layers["import.total_s"] == pytest.approx(365e-6)
