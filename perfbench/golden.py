"""Exit status and stdout digest of every benchmark job at the parent commit.

``golden.json`` holds the digests of the fixed jobs and, per generator
variant, of the seeded ones.  It was recorded from the mfk sources of the
commit that added the benchmark; a later change to mfk that alters an
artifact must show up as a failed job, not be re-recorded silently.

Regenerate (only when a job list or the generator changes):

    PYTHONPATH=src python3 perfbench/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import checks
import gen
import workloads

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "golden.json")


def load(variant: int) -> dict[str, list]:
    """Job key -> [status, digest] for the fixed jobs and one variant."""
    with open(PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    return {**table["fixed"], **table["variants"][str(variant)]}


def record(main, job, paths) -> list:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(job.resolve(paths))
    return [status, checks.golden_digest(job, buffer.getvalue().encode())]


def build(directory: str) -> dict:
    import mfk.cli
    table: dict = {"fixed": {}, "variants": {}}
    for variant in range(gen.VARIANTS):
        data = gen.generate(variant)
        paths = gen.write_inputs(data, directory)
        seeded = table["variants"].setdefault(str(variant), {})
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs_for(workload, data):
                if job.seeded:
                    seeded[job.key] = record(mfk.cli.main, job, paths)
                elif job.key not in table["fixed"]:
                    table["fixed"][job.key] = record(mfk.cli.main, job, paths)
        print(f"variant {variant} recorded", file=sys.stderr, flush=True)
    return table


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        result = build(tmp)
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
