"""Library runs: the workload's jobs through ``mfk.cli.main`` in one warm
process, stdout captured (the library user's view).

Usage: python3 worker.py SPEC.json

SPEC holds ``jobs`` (argv lists), ``outdir`` (where each distinct output is
written on ``quit``) and ``spans`` (trace file).  The worker then serves one
JSON command per stdin line and answers each with one JSON line:

* ``{"op": "cycle", "start": i, "seconds": s}`` runs jobs i, i+1, ...
  (wrapping around) until ``s`` seconds have passed, at least one job:
  ``{"indices", "walls", "outputs"}``, one entry per job run, and
  ``"calib"``, the calibration time just before and just after them;
* ``{"op": "calibrate"}`` answers ``{"calib": seconds}``;
* ``{"op": "pass", "traced": b}`` runs every job once, traced or not:
  ``{"wall", "outputs"}``, plus ``"layers"`` for the first traced pass;
* ``{"op": "quit"}`` writes the outputs and answers ``{"mfk": path}``.

An output is ``[status, sha256 of stdout]``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback

import gen

# The calibration kernel: fixed exact Fraction elimination, the kind of work
# mfk's kernels do, 45-90 ms on a 2-vCPU virtual machine.  The host's speed
# swings by up to 2x over seconds and minutes; timing this kernel next to
# every job lets the benchmark divide those swings out (see README.md).
CALIBRATION_MATRIX = [[(7 * i * i + 3 * j * j + i * j) % 19 - 9
                       for j in range(14)] for i in range(9)]
CALIBRATION_REPEATS = 25


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        gen.exact_rank(CALIBRATION_MATRIX)
    return time.perf_counter() - start


def run_jobs(main, argvs, tracer=None):
    """Run each (index, argv) once; returns (wall s, [(index, status, text)])."""
    outputs = []
    start = time.perf_counter()
    for index, argv in argvs:
        if tracer is not None:
            tracer.job = index
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed job, not a failed benchmark
            status = "exception"
            buffer.write(traceback.format_exc())
        outputs.append((index, status, buffer.getvalue()))
    return time.perf_counter() - start, outputs


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    import mfk.cli

    jobs = list(enumerate(spec["jobs"]))
    texts: dict[tuple[int, str], str] = {}
    tracer = layers = None

    def record(outputs):
        out = []
        for index, status, text in outputs:
            digest = hashlib.sha256(text.encode()).hexdigest()
            texts.setdefault((index, digest), text)
            out.append([status, digest])
        return out

    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "cycle":
            reply = {"indices": [], "walls": [], "outputs": [],
                     "calib": [calibrate()]}
            index = command["start"]
            start = time.perf_counter()
            while not reply["walls"] or (
                    time.perf_counter() - start < command["seconds"]):
                wall, outputs = run_jobs(mfk.cli.main, [jobs[index]])
                reply["indices"].append(index)
                reply["walls"].append(wall)
                reply["outputs"].extend(record(outputs))
                index = (index + 1) % len(jobs)
            reply["calib"].append(calibrate())
        elif command["op"] == "calibrate":
            reply = {"calib": calibrate()}
        elif command["op"] == "pass":
            traced = command["traced"]
            if traced and tracer is None:
                import tracer as tracing
                tracer = tracing.Tracer()
            if traced:
                tracer.install()
            try:
                wall, outputs = run_jobs(mfk.cli.main, jobs,
                                         tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            reply = {"wall": wall, "outputs": record(outputs)}
            if traced and layers is None:
                layers = reply["layers"] = tracer.summary()
                tracer.write_spans(spec["spans"])
        else:
            for (index, digest), text in texts.items():
                path = os.path.join(spec["outdir"], f"lib-{index}-{digest}.out")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            reply = {"mfk": os.path.abspath(mfk.cli.__file__)}
        print(json.dumps(reply), flush=True)
        if "mfk" in reply:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
