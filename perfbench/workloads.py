"""The workloads: lists of mfk CLI jobs and how to check each output.

A job's argv names generated input files as ``@name`` (see ``gen.py``); the
key of a job is its argv with those placeholders, so it is stable across
checkouts and is what ``golden.json`` is indexed by.

Why each workload exists (README.md has the layer map):

* ``geometry_oracle`` - the generic LP (compare-fans), the brute-force hull
  (polytope), the rank/closure oracle (nested max, Bergman grid
  membership), thousands of tiny dense solves (circuits) and amoeba
  sampling; rref only on small matrices, no homology.
* ``homology``        - lattices whose order complexes make rref on large
  sparse boundary matrices dominate, plus the two expected-error jobs; no
  LP and no hull.

Each CLI job costs over a second of interpreter start and import, so the
lists are short: a run must visit every job several times (see run.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORKLOADS = ("geometry_oracle", "homology")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the checker its output must pass."""

    argv: tuple[str, ...]
    check: str = "ok"
    seeded: bool = False
    expect: object = field(default=None, compare=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def resolve(self, paths: dict[str, str]) -> list[str]:
        return [paths[a[1:]] if a.startswith("@") else a for a in self.argv]


def vandermonde(d: int, n: int) -> list[list[int]]:
    """The realization mfk's corpus uses for uniform_<d>_<n>."""
    return [[j ** i for j in range(1, n + 1)] for i in range(d)]


def jobs_for(workload: str, data: dict) -> list[Job]:
    """The job list of a workload for one generated input set."""
    variant = str(data["variant"])
    if workload == "geometry_oracle":
        return [
            # generic geometry: the LP and the brute-force hull
            Job(("compare-fans", "--corpus", "braidK4"), "compare"),
            Job(("polytope", "--matrix", "@m26"), "polytope", seeded=True,
                expect=12),
            # rank/closure oracle, small dense solves, amoeba sampling
            Job(("nested", "--corpus", "braidK5", "--building", "max")),
            Job(("circuits", "--uniform", "4", "12"), "circuits",
                expect=vandermonde(4, 12)),
            Job(("bergman", "--corpus", "u24", "--grid", "3"), "grid"),
            Job(("amoeba", "--corpus", "delA3", "--count", "1000",
                 "--seed", variant), "amoeba", seeded=True, expect=1000),
        ]
    if workload == "homology":
        return [
            Job(("lattice", "--uniform", "4", "5"), "lattice"),
            Job(("lattice", "--matrix", "@m46"), "lattice", seeded=True),
            Job(("lattice", "--corpus", "boolean_4"), "lattice"),
            Job(("facets", "--corpus", "boolean_3"), "error"),
            Job(("circuits", "--bases", "@b25"), "error", seeded=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")
