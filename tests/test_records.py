"""The plain records are ``typing.NamedTuple``s; realizations compare by value.

Each record keeps its field names and order, keyword construction and the
``Name(field=value, ...)`` repr; it compares equal to a record, or a tuple,
with the same values, and hashes when its fields do.  Fans, building sets
and realizations are plain classes: a realization compares and hashes by
its matrix and matroid.
"""

from fractions import Fraction

import pytest

from mfk.bergman import AmoebaSample
from mfk.complexes import SimplicialComplex
from mfk.corpus import CorpusEntry, corpus
from mfk.geometry import Cone, FaceLattice, RationalPolytope
from mfk.lattice import MoebiusTable
from mfk.matroid import (ComponentPartition, LinearRealization, from_matrix,
                         uniform)
from mfk.nested import ConditionReport, FanComparison
from mfk.polytope import ConstancyChain, Degeneration, FacetDescription
from mfk.reciprocal import CircuitPolynomial
from theorem_checks import NestedChainData

_U23 = uniform(2, 3)
_REALIZATION = corpus("u23").realization


def _f(*elements):
    return frozenset(elements)


# (record, its fields with one value each, in declaration order, hashable?)
_RECORDS = [
    (AmoebaSample, {"base": 10.0, "points": ((0.5, -0.5),)}, True),
    (SimplicialComplex, {"vertices": (1, 2), "facets": (_f(1, 2),)}, True),
    (CorpusEntry, {"name": "u23", "description": "three lines",
                   "matroid": _U23, "realization": _REALIZATION}, True),
    (Cone, {"rays": ((0, 1, 1), (1, 0, 0))}, True),
    (RationalPolytope, {"vertices": ((Fraction(0),), (Fraction(1, 2),)),
                        "facets": (((1,), Fraction(1, 2)),
                                   ((-1,), Fraction(0))),
                        "dim": 1}, True),
    (FaceLattice, {"faces_by_dim": ((_f(0), _f(1)), (_f(0, 1),)),
                   "f_vector": (2, 1)}, True),
    (MoebiusTable, {"mu_top": 3}, True),
    (ComponentPartition, {"blocks": (_f(1, 2, 3),), "kappa": 1}, True),
    (FanComparison, {"refines_ab": True, "refines_ba": False,
                     "equal": False, "witness": "cone with rays [(0, 1)]"},
     True),
    (ConditionReport, {"holds": False, "witness": (_f(), _f(1, 2))}, True),
    (NestedChainData, {"chains": {1: [_f(1)]}, "minima": {1: _f(1)},
                       "min_support_index": {_f(1): 1}}, False),
    (ConstancyChain, {"sets": (_f(2), _f(1, 2, 3))}, True),
    (Degeneration, {"matroid_u": _U23,
                    "chain": ConstancyChain(sets=(_f(1, 2, 3),)),
                    "loop_free": True}, True),
    (FacetDescription, {"kind": "interior", "flat": _f(1), "element": None,
                        "inner_normal": (1, 0, 0),
                        "vertex_bases": (_f(1, 2), _f(1, 3))}, True),
    (CircuitPolynomial, {"circuit": _f(1, 2, 3),
                         "coefficients": {1: 1, 2: -1, 3: 1}}, False),
]
_IDS = [record.__name__ for record, _, _ in _RECORDS]


@pytest.mark.parametrize("record, fields, hashable", _RECORDS, ids=_IDS)
def test_record_keyword_construction_and_fields(record, fields, hashable):
    value = record(**fields)
    assert record._fields == tuple(fields)
    for name, field in fields.items():
        assert getattr(value, name) is field
    assert tuple(value) == tuple(fields.values())
    assert record(*fields.values()) == value


@pytest.mark.parametrize("record, fields, hashable", _RECORDS, ids=_IDS)
def test_record_repr_names_every_field(record, fields, hashable):
    inner = ", ".join(f"{name}={field!r}" for name, field in fields.items())
    assert repr(record(**fields)) == f"{record.__name__}({inner})"


@pytest.mark.parametrize("record, fields, hashable", _RECORDS, ids=_IDS)
def test_record_value_equality_and_hash(record, fields, hashable):
    value, again = record(**fields), record(**dict(fields))
    assert value == again and not value != again
    assert value == tuple(fields.values())  # a record is a tuple
    first = next(iter(fields))
    assert value._replace(**{first: "other"}) != value
    if hashable:
        assert hash(value) == hash(again)
        assert len({value, again}) == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_record_methods_survive_as_tuples():
    assert Cone.over([(1, 1, 0), (2, 2, 0), (0, 0, 0)]) == Cone(
        rays=((1, 1, 0),))
    assert RationalPolytope(vertices=((Fraction(1), Fraction(2)),),
                            facets=(), dim=0).ambient == 2
    complex_ = SimplicialComplex.from_faces((1, 2, 3), [{1, 2}, {2, 3}, {2}])
    assert complex_.f_vector() == (3, 2)
    assert ConstancyChain(sets=(_f(1), _f(1, 2))).masks() == (1, 3)
    poly = CircuitPolynomial(circuit=_f(1, 2, 3),
                             coefficients={1: 1, 2: -1, 3: 1})
    assert poly.degree() == 2
    assert poly.monomials() == [(1, _f(2, 3)), (-1, _f(1, 3)), (1, _f(1, 2))]


# -- realizations -------------------------------------------------------------


def test_realization_equality_and_hash_follow_matrix_and_matroid():
    rows = [[1, 0, 1], [0, 1, -1]]
    first, second = from_matrix(rows)[1], from_matrix(rows)[1]
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    bare = LinearRealization(matrix=first.matrix, matroid=first.matroid)
    assert bare == first
    assert from_matrix([[1, 0, 2], [0, 1, -1]])[1] != first
    other = LinearRealization(matrix=first.matrix, matroid=uniform(1, 3))
    assert other != first
    assert first != (first.matrix, first.matroid)


def test_realization_repr():
    real = from_matrix([[1, 2]])[1]
    assert repr(real) == ("LinearRealization(matrix=((Fraction(1, 1), "
                          "Fraction(2, 1)),), matroid=Matroid(n=2, rank=1, "
                          "|bases|=2))")


@pytest.mark.parametrize("name", ["u23", "u24", "delA3", "braidK4",
                                  "braidK5"])
def test_plucker_filled_by_from_matrix_equals_the_lazy_one(name):
    real = corpus(name).realization
    assert "plucker" in vars(real)  # filled while the bases were found
    lazy = LinearRealization(matrix=real.matrix, matroid=real.matroid)
    assert "plucker" not in vars(lazy)
    assert lazy.plucker == real.plucker
    assert set(real.plucker) == set(real.matroid.base_masks)
