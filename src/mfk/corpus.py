"""Built-in example registry: the worked examples, with realizations."""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import UnknownName
from .matroid import (LinearRealization, Matroid, from_matrix,
                      incidence_matrix, uniform)


class CorpusEntry(NamedTuple):
    name: str
    description: str
    matroid: Matroid
    realization: LinearRealization | None


def vandermonde(d: int, n: int) -> LinearRealization:
    """U_{d,n} realized by the Vandermonde matrix on the nodes 1..n.

    Any d of its columns are independent, the nodes being distinct, so the
    column matroid is uniform(d, n) without a rank computation.
    """
    matroid = uniform(d, n)
    matrix = tuple(tuple(Fraction(j) ** i for j in range(1, n + 1))
                   for i in range(d))
    return LinearRealization(matrix=matrix, matroid=matroid)


def _vandermonde_entry(name: str, description: str, d: int,
                       n: int) -> CorpusEntry:
    realization = vandermonde(d, n)
    return CorpusEntry(name=name, description=description,
                       matroid=realization.matroid, realization=realization)


_FIXED = {
    "u23": ("three generic lines in the plane",
            [[1, 0, 1], [0, 1, -1]]),
    "u24": ("four generic lines in the plane",
            [[1, 0, 1, 1], [0, 1, -1, 1]]),
    "delA3": ("five lines with two triple points",
              [[1, 0, 0, 1, 1], [0, 1, 0, -1, 0], [0, 0, 1, 0, -1]]),
}


def _complete_graph_entry(vertices: int, name: str) -> CorpusEntry:
    edges = list(combinations(range(1, vertices + 1), 2))
    matroid, realization = from_matrix(incidence_matrix(vertices, edges))
    return CorpusEntry(name=name,
                       description=f"braid arrangement of K_{vertices}",
                       matroid=matroid, realization=realization)


def corpus(name: str) -> CorpusEntry:
    """Named access to the example arrangements."""
    if name in _FIXED:
        description, rows = _FIXED[name]
        matroid, realization = from_matrix(rows)
        return CorpusEntry(name=name, description=description,
                           matroid=matroid, realization=realization)
    if name == "braidK4":
        return _complete_graph_entry(4, name)
    if name == "braidK5":
        return _complete_graph_entry(5, name)
    m = re.fullmatch(r"boolean_(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownName(name)
        return _vandermonde_entry(name, f"coordinate matroid on [{n}]", n, n)
    m = re.fullmatch(r"uniform_(\d+)_(\d+)", name)
    if m:
        d, n = int(m.group(1)), int(m.group(2))
        if not 1 <= d <= n:
            raise UnknownName(name)
        return _vandermonde_entry(
            name, f"generic arrangement U_{{{d},{n}}}", d, n)
    raise UnknownName(name)


def corpus_names() -> list[str]:
    return [*_FIXED, "braidK4", "braidK5", "boolean_<n>", "uniform_<d>_<n>"]
