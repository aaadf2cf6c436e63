"""Per-layer tracing of mfk from outside the package.

``Tracer.install`` rebinds the public kernels listed in ``TIMED`` in every
``mfk.*`` module namespace that refers to them (aliases such as
``from .linalg import rank as matrix_rank`` included) and on their classes.
Each call becomes a span (name, parent, start, end, job) kept in memory;
``summary`` turns the spans and per-call counts into the per-layer metrics,
and ``uninstall`` restores the originals.  ``Matroid.rank_mask`` is too hot
to time and is only counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb, gcd


def _quotient_ray(vec) -> tuple[int, ...] | None:
    """Primitive representative of an integer vector modulo (1, ..., 1)."""
    low = min(vec)
    rep = [int(x - low) for x in vec]
    g = 0
    for x in rep:
        g = gcd(g, x)
    return tuple(x // g for x in rep) if g else None


# -- per-call counters: (counts, args, result) -> None ---------------------------


def _irredundant(counts, args, result):
    candidates = {r for r in map(_quotient_ray, args[0]) if r is not None}
    counts["candidates"] = counts.get("candidates", 0) + len(candidates)
    counts["kept"] = counts.get("kept", 0) + len(result)


def _hull(counts, args, result):
    counts["candidates"] = (counts.get("candidates", 0)
                            + comb(len(result.vertices), result.dim))
    counts["facets"] = counts.get("facets", 0) + len(result.facets)


def _adder(key, measure):
    def stat(counts, args, result):
        counts[key] = counts.get(key, 0) + measure(args, result)
    return stat


def _rref(counts, args, result):
    matrix = args[0]
    entries = len(matrix) * (len(matrix[0]) if matrix else 0)
    counts["entries"] = counts.get("entries", 0) + entries
    counts["max_entries"] = max(counts.get("max_entries", 0), entries)


def _bergman_fan(counts, args, result):
    counts["flags"] = counts.get("flags", 0) + len(result.fine_chains)
    counts["groups"] = counts.get("groups", 0) + len(result.groups)


# (module, attribute path, layer name, counter, reported stats)
TIMED = [
    ("mfk.linalg", "lp_feasible", "linalg.lp_feasible",
     _adder("feasible", lambda a, r: r is not None),
     ("calls", "s", "feasible_ratio")),
    ("mfk.geometry", "cone_contains", "geometry.cone_contains",
     _adder("true", lambda a, r: bool(r)), ("calls", "s", "true_ratio")),
    ("mfk.geometry", "irredundant_rays", "geometry.irredundant_rays",
     _irredundant, ("calls", "s", "kept_ratio")),
    ("mfk.nested", "refines", "nested.refines", None, ("calls", "s")),
    ("mfk.geometry", "convex_hull", "geometry.convex_hull", _hull,
     ("s", "self_s", "candidates", "facet_ratio")),
    ("mfk.geometry", "face_lattice", "geometry.face_lattice",
     _adder("faces", lambda a, r: sum(r.f_vector)), ("s", "faces")),
    ("mfk.linalg", "rref", "linalg.rref", _rref,
     ("calls", "s", "self_s", "entries", "max_entries")),
    ("mfk.complexes", "reduced_homology_ranks",
     "complexes.reduced_homology_ranks",
     _adder("faces", lambda a, r: len(a[0].faces())), ("s", "self_s", "faces")),
    ("mfk.lattice", "order_complex", "lattice.order_complex",
     _adder("chains", lambda a, r: len(r.facets)), ("s", "chains")),
    ("mfk.matroid", "Matroid.closure_mask", "matroid.closure_mask", None,
     ("calls", "s")),
    ("mfk.matroid", "from_matrix", "matroid.from_matrix", None, ("calls", "s")),
    ("mfk.nested", "maximal_nested_sets", "nested.maximal_nested_sets",
     _adder("count", lambda a, r: len(r)), ("s", "self_s", "count")),
    ("mfk.bergman", "BergmanFan.coarse_contains", "bergman.coarse_contains",
     _adder("true", lambda a, r: bool(r)), ("calls", "s", "true_ratio")),
    ("mfk.bergman", "bergman_membership", "bergman.bergman_membership", None,
     ("calls", "s")),
    ("mfk.bergman", "bergman_fan", "bergman.bergman_fan", _bergman_fan,
     ("s", "self_s", "flags", "groups")),
    ("mfk.lattice", "FlatLattice.__init__", "lattice.FlatLattice",
     _adder("flats", lambda a, r: len(a[0].flat_masks)), ("s", "flats")),
    ("mfk.polytope", "polytope", "polytope.polytope", None, ("s",)),
    ("mfk.polytope", "facets", "polytope.facets", None, ("s",)),
    ("mfk.polytope", "degeneration", "polytope.degeneration", None, ("s",)),
    ("mfk.reciprocal", "reciprocal_generators",
     "reciprocal.reciprocal_generators",
     _adder("circuits", lambda a, r: len(r)), ("s", "circuits")),
    ("mfk.corpus", "corpus", "corpus.corpus", None, ("calls", "s")),
    ("mfk.bergman", "amoeba_sample", "bergman.amoeba_sample", None, ("s",)),
    ("mfk.bergman", "support_deviations", "bergman.support_deviations", None,
     ("s",)),
    # the worker gives each job a fresh StringIO stdout, so its position
    # after the one emit of a job is the artifact's size (ASCII JSON)
    ("mfk.cli", "_emit", "cli.emit",
     _adder("bytes", lambda a, r: sys.stdout.tell()), ("s", "bytes")),
]
COUNTED = [("mfk.matroid", "Matroid.rank_mask", "matroid.rank_mask")]
# Every artifact encoder of jsonio is one layer.
ENCODE_MODULE, ENCODE_LAYER = "mfk.jsonio", "jsonio.encode"

RATIOS = {"feasible_ratio": ("feasible", "calls"),
          "true_ratio": ("true", "calls"),
          "kept_ratio": ("kept", "candidates"),
          "facet_ratio": ("facets", "candidates")}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.job = 0
        self.spans: list[list] = []  # [name, parent index, start, end, job]
        self.counts: dict[str, dict] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, fn, stat):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts.setdefault(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0,
                          self.job])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if stat is not None:
                stat(counts, args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts.setdefault(name, {"calls": 0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Reset the record and rebind every traced callable."""
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        targets = []
        for module_name, path, name, stat, _ in TIMED:
            targets.append((module_name, path, name, stat, True))
        for module_name, path, name in COUNTED:
            targets.append((module_name, path, name, None, False))
        encoders = sys.modules[ENCODE_MODULE]
        for attr in sorted(vars(encoders)):
            if attr.endswith("_to_json"):
                targets.append((ENCODE_MODULE, attr, ENCODE_LAYER, None, True))

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "mfk" or key.startswith("mfk."))]
        for module_name, path, name, stat, timed in targets:
            owner = sys.modules[module_name]
            *prefix, attr = path.split(".")
            for part in prefix:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = (self._timed(name, original, stat) if timed
                       else self._counted(name, original))
            if prefix:  # a method: rebinding on the class reaches all callers
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, alias, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans and counters."""
        total: dict[str, float] = {}
        child: list[float] = [0.0] * len(self.spans)
        outer: dict[str, float] = {}
        calls: dict[str, int] = {}
        open_names: list[tuple[int, str]] = []
        for index, (name, parent, start, end, _) in enumerate(self.spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] += duration
            # a span nested in a span of the same name is not counted again
            while open_names and self.spans[open_names[-1][0]][3] <= start:
                open_names.pop()
            if not any(n == name for _, n in open_names):
                total[name] = total.get(name, 0.0) + duration
            open_names.append((index, name))
        self_time: dict[str, float] = {}
        for index, (name, _, start, end, _) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[index]

        metrics: dict[str, float] = {}
        layers = [(name, stats) for _, _, name, _, stats in TIMED]
        layers.append((ENCODE_LAYER, ("s",)))
        for name, stats in layers:
            counts = dict(self.counts.get(name, {}))
            counts["calls"] = calls.get(name, 0)
            for stat in stats:
                if stat == "s":
                    value = total.get(name, 0.0)
                elif stat == "self_s":
                    value = self_time.get(name, 0.0)
                elif stat in RATIOS:
                    num, den = RATIOS[stat]
                    value = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
                else:
                    value = counts.get(stat, 0)
                metrics[f"{name}.{stat}"] = value
        for _, _, name in COUNTED:
            metrics[f"{name}.calls"] = self.counts.get(name, {}).get("calls", 0)
        return metrics

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, parent index, start, end, job."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
