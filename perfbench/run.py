"""Benchmark of the mfk CLI and library.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's jobs one at a time in a closed loop, and
the whole run, set-up included, ends within ``--seconds`` (after at least
one visit to every job).  With ``--trace 0`` a run measures set-up time,
then visits the jobs round-robin: each visit runs one job as a fresh
``python -m mfk.cli`` process, then library runs of the jobs in turn
through ``mfk.cli.main`` in one warm worker process.  Job times are
measured in units of a fixed calibration kernel timed next to them (see
``worker.py``): each time metric sums, over the jobs, the job's total time
divided by the calibration time paired with its runs.  With ``--trace 1``
it reports the per-layer metrics instead: import times from ``-X
importtime`` and a traced library pass (see ``tracer.py``), with the
tracing overhead as traced minus untraced pass time.

Every output is checked (``checks.py``); the last stdout line is the JSON
result.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

import checks
import gen
import golden
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
JOB_TIMEOUT = 40.0
# After each CLI run, library runs go on for this long (at least one job):
# short jobs then get many samples per visit, long ones one.
LIB_REPEAT_S = 0.2
IMPORT_FAMILIES = ("numpy", "scipy", "sympy")



def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# -- set-up and import layer -------------------------------------------------------


def setup_sample(env) -> float:
    """Seconds from spawning a fresh interpreter until ``import mfk.cli``
    returns in it (CLOCK_MONOTONIC is shared by all processes)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import time, mfk.cli; print(repr(time.monotonic()))"],
        capture_output=True, env=env, cwd=ROOT, timeout=JOB_TIMEOUT,
        check=True)
    return float(proc.stdout) - start


def import_layers(stderr: str) -> dict[str, float]:
    """Import metrics from ``-X importtime`` output.

    ``numpy``, ``scipy`` and ``sympy`` are charged everything their imports
    pulled in (mpmath counts as sympy); ``mfk_self_s`` is the self time of
    mfk's own modules; ``total_s`` is every import of the interpreter.
    """
    entries = []  # (name, depth, self seconds, parent index)
    pending: list[int] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        index = len(entries)
        entries.append([name.strip(), depth, int(own) / 1e6, None])
        while pending and entries[pending[-1]][1] > depth:
            entries[pending.pop()][3] = index
        pending.append(index)

    def family(index):
        while index is not None:
            name = entries[index][0]
            for fam in IMPORT_FAMILIES:
                if name == fam or name.startswith(fam + "."):
                    return fam
            index = entries[index][3]
        return None

    out = {f"import.{fam}_s": 0.0 for fam in IMPORT_FAMILIES}
    out["import.mfk_self_s"] = 0.0
    out["import.total_s"] = 0.0
    for index, (name, _, own, _) in enumerate(entries):
        fam = family(index)
        if fam is not None:
            out[f"import.{fam}_s"] += own
        if name == "mfk" or name.startswith("mfk."):
            out["import.mfk_self_s"] += own
        out["import.total_s"] += own
    return out


def import_sample(env) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import mfk.cli"],
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=JOB_TIMEOUT, check=True)
    return import_layers(proc.stderr)


# -- CLI passes --------------------------------------------------------------------


def run_cli_job(argv, env, outdir, index):
    """One fresh ``python -m mfk.cli`` process.

    Returns (wall s, user+sys CPU s, max RSS MB, status, stdout, stderr);
    status is "timeout" when the job was killed at JOB_TIMEOUT.
    """
    out_path = os.path.join(outdir, f"cli-{index}.out")
    err_path = os.path.join(outdir, f"cli-{index}.err")
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mfk.cli", *argv],
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=ROOT)

        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(JOB_TIMEOUT, kill)
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    status = "timeout" if killed.is_set() else proc.returncode
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, "rb") as handle:
        stderr = handle.read()
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            status, stdout, stderr)


# -- library worker ----------------------------------------------------------------


class LibWorker:
    """The warm library process of ``worker.py``, one command at a time."""

    def __init__(self, jobs, paths, env, outdir, spans=None):
        self.outdir = outdir
        spec_path = os.path.join(outdir, "worker.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump({"jobs": [job.resolve(paths) for job in jobs],
                       "outdir": outdir, "spans": spans}, handle)
        self.runs: list[tuple[int, object, str]] = []  # index, status, digest
        self._stderr = open(os.path.join(outdir, "worker.err"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, env=env, cwd=ROOT)

    def ask(self, limit: float, **command) -> dict:
        """Send one command; kill the worker if no answer within ``limit``."""
        timer = threading.Timer(limit, self.proc.kill)
        timer.start()
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise RuntimeError(f"library worker ended on {command}")
        return json.loads(line)

    def calibrate(self) -> float:
        return self.ask(JOB_TIMEOUT, op="calibrate")["calib"]

    def cycle(self, start: int):
        """Run jobs from ``start`` on, wrapping around, for LIB_REPEAT_S
        (at least one job).  Returns (index, library time) of each run and
        the calibration times just before and after them."""
        reply = self.ask(JOB_TIMEOUT + LIB_REPEAT_S, op="cycle", start=start,
                         seconds=LIB_REPEAT_S)
        for index, (status, digest) in zip(reply["indices"],
                                           reply["outputs"]):
            self.runs.append((index, status, digest))
        return list(zip(reply["indices"], reply["walls"])), reply["calib"]

    def run_pass(self, traced: bool, count: int, keep: bool = True) -> dict:
        reply = self.ask(JOB_TIMEOUT * count, op="pass", traced=traced)
        if keep:
            for index, (status, digest) in enumerate(reply["outputs"]):
                self.runs.append((index, status, digest))
        return reply

    def finish(self, verifier) -> None:
        """Stop the worker and check every library run it made."""
        reply = self.ask(JOB_TIMEOUT, op="quit")
        self.proc.wait(timeout=JOB_TIMEOUT)
        src = os.path.join(ROOT, "src")
        if not reply["mfk"].startswith(src + os.sep):
            raise RuntimeError(f"worker imported mfk from {reply['mfk']}")
        for index, status, digest in self.runs:
            path = os.path.join(self.outdir, f"lib-{index}-{digest}.out")
            with open(path, "rb") as handle:
                verifier.record(index, status, handle.read(), b"")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._stderr.close()


# -- verification ------------------------------------------------------------------


class Verifier:
    """Checks every job execution; counts attempts and failures.

    Besides each output's own checks, every execution of a job must print
    the bytes its first execution printed (CLI and library, traced and
    untraced, every pass).
    """

    def __init__(self, jobs, goldens):
        self.jobs = jobs
        self.goldens = goldens
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []
        self._cache: dict[tuple, str | None] = {}
        self._first: dict[int, tuple] = {}

    def record(self, index, status, stdout: bytes, stderr: bytes) -> None:
        self.attempted += 1
        job = self.jobs[index]
        key = (index, status, checks.sha256(stdout))
        if self._first.setdefault(index, key) != key:
            self.failures.append((index, "output differs between runs"))
        elif b"Traceback" in stderr:
            self.failures.append((index, "traceback on stderr"))
        else:
            if key not in self._cache:
                self._cache[key] = (
                    checks.check_output(job, status, stdout, b"",
                                        self.goldens.get(job.key))
                    if isinstance(status, int) else f"job ended with {status}")
            if self._cache[key] is not None:
                self.failures.append((index, self._cache[key]))

    @property
    def failed(self) -> int:
        return len(self.failures)


# -- entry point -------------------------------------------------------------------


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in ("s", "self_s"):
        return "s"
    if stat.endswith("_ratio"):
        return "ratio"
    return "bytes" if stat == "bytes" else "count"


def measure_traced(args, jobs, paths, env, workdir, verifier, deadline):
    """Per-layer metrics: import layers, then alternating traced and
    untraced library passes after an untimed warm-up pass."""
    metrics: dict[str, tuple[float, str]] = {}
    samples = [import_sample(env) for _ in range(IMPORT_SAMPLES)]
    for name in samples[0]:
        metrics[name] = (statistics.median(s[name] for s in samples), "s")
    spans = os.path.join(ROOT, ".perfbench",
                         f"spans-{args.workload}-{args.seed}.jsonl")
    walls: dict[bool, list[float]] = {True: [], False: []}
    with LibWorker(jobs, paths, env, workdir, spans) as worker:
        worker.run_pass(False, len(jobs), keep=False)
        traced = True
        while True:
            reply = worker.run_pass(traced, len(jobs))
            walls[traced].append(reply["wall"])
            for name, value in reply.get("layers", {}).items():
                metrics[name] = (value, layer_unit(name))
            if walls[False] and (
                    time.perf_counter() + reply["wall"] > deadline):
                break
            traced = not traced
        worker.finish(verifier)
    traced_s = statistics.median(walls[True])
    plain_s = statistics.median(walls[False])
    metrics["trace.traced_lib_wall_s"] = (traced_s, "s")
    metrics["trace.untraced_lib_wall_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics


def calibrated(samples, value) -> float:
    """Sum over jobs of the job's total value(sample) divided by the total
    calibration time paired with those samples (the last field)."""
    return sum(sum(value(x) for x in runs) / sum(x[-1] for x in runs)
               for runs in samples)


def measure(args, jobs, paths, env, workdir, verifier, deadline):
    """End-to-end metrics.

    After the set-up samples and an untimed library warm-up pass, the run
    visits the jobs round-robin until the deadline (every job at least
    once).  A visit runs one job as a fresh CLI process, then library runs
    of the jobs in turn for LIB_REPEAT_S, so every job's samples spread over
    the whole run.  The worker times its calibration kernel just before and
    after each batch of library runs; a CLI run is paired with the mean of
    the calibrations on either side of it, a library run with the mean of
    those around its batch (see ``calibrated``).
    """
    setup = [setup_sample(env) for _ in range(SETUP_SAMPLES)]
    cli = [[] for _ in jobs]  # (wall s, CPU s, max RSS MB, calibration s)
    lib = [[] for _ in jobs]  # (wall s, calibration s)
    cost = [0.0] * len(jobs)  # seconds of the job's last visit
    visits = cursor = 0
    with LibWorker(jobs, paths, env, workdir) as worker:
        worker.run_pass(False, len(jobs), keep=False)
        calib = worker.calibrate()
        while True:
            index = visits % len(jobs)
            start = time.perf_counter()
            wall, cpu, rss, status, stdout, stderr = run_cli_job(
                jobs[index].resolve(paths), env, workdir, index)
            verifier.record(index, status, stdout, stderr)
            runs, (before, after) = worker.cycle(cursor)
            cli[index].append((wall, cpu, rss, (calib + before) / 2))
            for lib_index, lib_wall in runs:
                lib[lib_index].append((lib_wall, (before + after) / 2))
                cursor = (lib_index + 1) % len(jobs)
            calib = after
            cost[index] = time.perf_counter() - start
            visits += 1
            if visits >= len(jobs) and (
                    time.perf_counter() + cost[visits % len(jobs)] > deadline):
                break
        worker.finish(verifier)
    calibs = [x[-1] for runs in cli + lib for x in runs]
    raw = [sum(statistics.median(x[field] for x in runs) for runs in samples)
           for samples, field in ((cli, 0), (cli, 1), (lib, 0))]
    print(f"# {visits} visits; in seconds, summed per-job medians: "
          f"cli_wall {raw[0]:.4g}, cli_cpu {raw[1]:.4g}, lib_wall {raw[2]:.4g}"
          f"; calibration kernel {statistics.median(calibs):.4g} "
          f"({min(calibs):.4g}-{max(calibs):.4g})")
    return {"setup_s": (statistics.median(setup), "s"),
            "cli_wall_calib": (calibrated(cli, lambda x: x[0]), "calib"),
            "cli_cpu_calib": (calibrated(cli, lambda x: x[1]), "calib"),
            "lib_wall_calib": (calibrated(lib, lambda x: x[0]), "calib"),
            "peak_rss_mb": (max(x[2] for runs in cli for x in runs), "MB")}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "mfk", "cli.py")):
        print(f"no mfk sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-",
                               dir=os.path.join(ROOT, ".perfbench"))
    try:
        data = gen.generate(args.seed)
        paths = gen.write_inputs(data, workdir)
        jobs = workloads.jobs_for(args.workload, data)
        verifier = Verifier(jobs, golden.load(data["variant"]))
        run = measure_traced if args.trace else measure
        metrics = run(args, jobs, paths, child_env(), workdir, verifier,
                      started + args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} "
          f"variant={data['variant']} jobs={len(jobs)} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {verifier.failed / verifier.attempted:.6g} "
          f"({verifier.failed} of {verifier.attempted} job runs)")
    for (index, reason), count in Counter(verifier.failures).items():
        print(f"FAILED {jobs[index].key}: {reason} (x{count})")
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
