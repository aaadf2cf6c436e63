"""Command-line front end.

One job per invocation: pick exactly one input source, one computation
subcommand, and get a JSON artifact on stdout (or --output, written
atomically).  Module errors exit 1 with an error JSON; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from itertools import permutations

from .corpus import corpus as corpus_entry, corpus_names, vandermonde
from .bergman import amoeba_sample, bergman_fan, support_deviations
from .errors import InvalidInput, MfkError, UnwritableOutput
from .jsonio import (_integer, amoeba_to_json, bergman_to_json,
                     circuits_to_json, comparison_to_json,
                     degeneration_to_json, dumps, facets_to_json,
                     graph_from_json, lattice_to_json, matrix_from_json,
                     matroid_from_json, matroid_to_json, nested_fan_to_json,
                     polytope_to_json)
from .lattice import FlatLattice, moebius
from .geometry import face_lattice
from .linalg import frac
from .matroid import (LinearRealization, Matroid, from_matrix,
                      incidence_matrix)
from .nested import BuildingSet, compare_fans, max_building, min_building, \
    nested_fan
from .polytope import degeneration, facets, polytope
from .reciprocal import reciprocal_generators


def _read(path: str, parse):
    """Parse a JSON input file; any fault of the file raises InvalidInput."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise InvalidInput(f"cannot read {path}: {err.strerror}") from None
    except ValueError as err:
        raise InvalidInput(f"{path} is not valid JSON: {err}") from None
    try:
        return parse(data)
    except (KeyError, IndexError, TypeError, ValueError,
            ZeroDivisionError) as err:
        raise InvalidInput(f"{path} is malformed: "
                           f"{type(err).__name__}: {err}") from None


def _resolve_input(args) -> tuple[Matroid, LinearRealization | None]:
    """The matroid and realization of the one input option argparse let in."""
    if args.matrix:
        return _read(args.matrix, matrix_from_json)
    if args.bases:
        return _read(args.bases, matroid_from_json), None
    if args.graph:
        return from_matrix(incidence_matrix(*_read(args.graph,
                                                   graph_from_json)))
    if args.uniform:
        realization = vandermonde(*args.uniform)
        return realization.matroid, realization
    entry = corpus_entry(args.corpus)
    return entry.matroid, entry.realization


def _require_realization(realization) -> LinearRealization:
    if realization is None:
        raise MfkError("this computation needs a realization "
                       "(matrix, uniform, or corpus input)")
    return realization


def _building_for(building: str, lattice: FlatLattice):
    if building == "min":
        return min_building(lattice)
    if building == "max":
        return max_building(lattice)
    return _read(building, lambda flats: BuildingSet(
        lattice, [frozenset(_integer(e, 1) for e in f) for f in flats]))


def _weak_orders(n: int, levels: int):
    """Each w in range(levels)^n with values exactly 0..k-1, once: the k
    blocks of a restricted growth string labelled by a permutation."""
    strings = [()]
    for _ in range(n):
        strings = (s + (b,) for s in strings
                   for b in range(min(max(s, default=-1) + 2, levels)))
    return (tuple(map(labels.__getitem__, s)) for s in strings
            for labels in permutations(range(max(s, default=-1) + 1)))


def _error_artifact(err: MfkError) -> dict:
    return {"error": type(err).__name__, "message": str(err)}


def _dispatch(args) -> dict:
    matroid, realization = _resolve_input(args)
    computation = args.command

    if computation == "matroid":
        return matroid_to_json(matroid)

    if computation == "lattice":
        lattice = FlatLattice(matroid)
        data = lattice_to_json(lattice)
        if not matroid.loops():
            r, mu_top = matroid.rank_d, moebius(lattice).mu_top
            # Folkman: the order complex of the proper part is a wedge of
            # mu_top spheres of dimension r - 2; below rank 2 it is empty
            betti = [0] * (r - 2) + [mu_top] if r >= 2 else []
            data.update(mu_top=mu_top, betti_proper_part=betti,
                        reduced_euler=(-1) ** r * mu_top if r >= 2 else -1)
        return data

    if computation == "polytope":
        hull = polytope(matroid)
        return polytope_to_json(hull, face_lattice(hull))

    if computation == "facets":
        return facets_to_json(facets(matroid))

    if computation == "degenerate":
        return degeneration_to_json(degeneration(matroid, args.u))

    if computation == "bergman":
        fan = bergman_fan(FlatLattice(matroid))
        data = bergman_to_json(fan)
        if args.grid:
            # both answers depend only on the weak order of w and not on
            # w + c*1: the w with values exactly 0..k-1 stand for the grid
            radius = args.grid
            agrees = all(
                fan.contains(w) == bool(fan.cones_containing(w))
                for w in _weak_orders(matroid.n, min(matroid.n,
                                                     2 * radius + 1)))
            data["support_grid_radius"] = radius
            data["support_grid_agrees"] = agrees
        return data

    if computation == "nested":
        fan = nested_fan(_building_for(args.building, FlatLattice(matroid)))
        return nested_fan_to_json(fan)

    if computation == "compare-fans":
        lattice = FlatLattice(matroid)
        nfan = nested_fan(min_building(lattice))
        bfan = bergman_fan(lattice)
        return comparison_to_json(compare_fans(nfan, bfan))

    if computation == "circuits":
        return circuits_to_json(
            reciprocal_generators(_require_realization(realization)))

    # amoeba: the only subcommand left
    real = _require_realization(realization)
    sample = amoeba_sample(real, args.t, args.count, seed=args.seed)
    fan = bergman_fan(FlatLattice(real.matroid))
    return amoeba_to_json(sample, support_deviations(sample, fan), args.seed)


def _emit(artifact: dict, output: str | None) -> None:
    text = dumps(artifact) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, output)
    except OSError as err:
        raise UnwritableOutput(
            f"cannot write {output}: {err.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", metavar="FILE",
                       help="rational matrix JSON file")
    group.add_argument("--bases", metavar="FILE",
                       help="matroid JSON file (n and bases)")
    group.add_argument("--graph", metavar="FILE",
                       help="graph JSON file (vertices and edges)")
    group.add_argument("--uniform", nargs=2, type=int, metavar=("D", "N"),
                       help="uniform matroid parameters")
    group.add_argument("--corpus", metavar="NAME",
                       help="built-in example name")
    parser.add_argument("--output", metavar="PATH",
                        help="write the artifact here instead of stdout")


def _checked(convert, valid, requirement: str):
    """argparse type: convert the text, then reject values out of range."""
    def parse(text):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return parse


def _weight(text: str) -> list:
    return [frac(x) for x in text.split(",")] if text else []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfk",
        description="exact matroid polytopes, Bergman fans, nested-set fans")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
            ("matroid", "canonical matroid JSON"),
            ("lattice", "lattice of flats with Moebius data"),
            ("polytope", "matroid polytope with f-vector"),
            ("facets", "classified facet list"),
            ("degenerate", "degeneration along a weight vector"),
            ("bergman", "coarse Bergman fan"),
            ("nested", "nested-set fan"),
            ("compare-fans", "nested fan versus Bergman fan"),
            ("circuits", "reciprocal-plane circuit generators"),
            ("amoeba", "numeric amoeba sample against the Bergman support")]:
        p = sub.add_parser(name, help=help_text)
        _add_input_arguments(p)
        if name == "degenerate":
            p.add_argument("--u", required=True, metavar="W",
                           type=_checked(_weight, lambda w: True,
                                         "must be comma-separated rationals"),
                           help="comma-separated weight entries, e.g. 1,0,-2")
        if name == "bergman":
            p.add_argument("--grid", metavar="K",
                           type=_checked(int, lambda k: k >= 0,
                                         "must be an integer >= 0"),
                           help="verify support equality on the grid "
                                "{-K..K}^n, decided once per weak order")
        if name == "nested":
            p.add_argument("--building", default="min",
                           help="min, max, or a JSON file of flats")
        if name == "amoeba":
            p.add_argument("--t", default=1000.0,
                           type=_checked(float,
                                         lambda t: math.isfinite(t) and t > 1,
                                         "must be a finite number > 1"),
                           help="logarithm base")
            p.add_argument("--count", default=100,
                           type=_checked(int, lambda k: k >= 1,
                                         "must be an integer >= 1"),
                           help="number of sampled points")
            p.add_argument("--seed", type=int, default=0,
                           help="random seed")

    corpus_parser = sub.add_parser("corpus", help="example registry")
    corpus_parser.add_argument("action", choices=["list"])
    corpus_parser.add_argument("--output", metavar="PATH")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    status = 0
    if args.command == "corpus":
        artifact = {"corpus": corpus_names()}
    else:
        try:
            artifact = _dispatch(args)
        except MfkError as err:
            status, artifact = 1, _error_artifact(err)
    try:
        _emit(artifact, args.output)
    except UnwritableOutput as err:
        _emit(_error_artifact(err), None)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
