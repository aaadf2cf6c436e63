import importlib
from itertools import combinations

import pytest

from mfk.corpus import corpus, corpus_names
from mfk.errors import UnknownName
from mfk.matroid import from_matrix, incidence_matrix, uniform


def test_dela3_entry():
    entry = corpus("delA3")
    assert entry.matroid.n == 5
    assert len(entry.matroid.base_masks) == 8
    assert [int(x) for x in entry.realization.matrix[0]] == [1, 0, 0, 1, 1]


def test_u24_entry_matches_uniform():
    assert corpus("u24").matroid == uniform(2, 4)


def test_braid_entries():
    k4 = corpus("braidK4")
    assert k4.matroid.n == 6
    assert len(k4.matroid.base_masks) == 16
    k5 = corpus("braidK5")
    assert k5.matroid.n == 10
    assert len(k5.matroid.base_masks) == 125  # Cayley: 5^3


def test_parametrized_entries():
    assert corpus("boolean_4").matroid == uniform(4, 4)
    assert corpus("uniform_3_5").matroid == uniform(3, 5)
    assert corpus("uniform_3_5").realization is not None


def test_unknown_name():
    with pytest.raises(UnknownName):
        corpus("nope")
    with pytest.raises(UnknownName):
        corpus("uniform_4_2")


def test_names_listing():
    names = corpus_names()
    assert "delA3" in names and "braidK5" in names


def test_vandermonde_entries_match_their_column_matroids():
    # any d columns of a Vandermonde matrix with distinct nodes are
    # independent, so the entries are uniform without computing ranks
    names = [f"uniform_{d}_{n}" for n in range(1, 8) for d in range(1, n + 1)]
    names += [f"boolean_{n}" for n in range(1, 8)]
    for name in names:
        entry = corpus(name)
        matroid, realization = from_matrix(entry.realization.matrix)
        assert entry.matroid == matroid, name
        assert entry.realization == realization, name


def test_uniform_entry_computes_no_ranks(monkeypatch):
    def refuse(rows):
        raise AssertionError("from_matrix called")

    # the package re-exports the function corpus under the module's name
    monkeypatch.setattr(importlib.import_module("mfk.corpus"), "from_matrix",
                        refuse)
    entry = corpus("uniform_4_12")
    assert entry.matroid == uniform(4, 12)
    assert corpus("boolean_5").matroid == uniform(5, 5)


def test_braid_realization_is_the_signed_incidence_matrix():
    edges = list(combinations(range(1, 5), 2))
    assert corpus("braidK4").realization == \
        from_matrix(incidence_matrix(4, edges))[1]
