"""The integer elimination kernel of mfk.linalg against the Fraction oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from mfk import FlatLattice, corpus, order_complex
from mfk.bergman import bergman_membership
from mfk.complexes import boundary_matrix
from mfk.linalg import frac, nullspace, primitive_integer, rank, rref
from mfk.matroid import from_matrix, uniform
from mfk.nested import min_building, nested_fan
from mfk.polytope import degeneration, heaviest_bases


def matvec(matrix, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix]


def _all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


# -- regressions: int input stays exact -----------------------------------------------


def test_rref_of_ints_is_exact():
    red, pivots = rref([[3, 1]])
    assert red == [[Fraction(1), Fraction(1, 3)]]
    assert pivots == [0]
    assert _all_fractions(red)


def test_rank_of_rank_two_int_matrix():
    # row 3 = 7 * row 1 + 3 * row 2; float division used to report 3
    assert rank([[-4, -8, 6], [9, -9, 3], [-1, -83, 51]]) == 2


def test_nullspace_of_ints_is_exact():
    kernel = nullspace([[3, 1, 1]])
    assert kernel == [[Fraction(-1, 3), 1, 0], [Fraction(-1, 3), 0, 1]]
    assert _all_fractions(kernel)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
       st.lists(st.integers(-20, 20), min_size=3, max_size=3),
       st.integers(-9, 9), st.integers(-9, 9))
def test_rank_of_integer_combinations(r1, r2, a, b):
    r3 = [a * x + b * y for x, y in zip(r1, r2)]
    assert rank([r1, r2, r3]) == oracle.rank([r1, r2]) == rank([r1, r2])


# -- differential tests against the Fraction oracle ------------------------------------

_small = st.integers(-6, 6)
_fractions = st.builds(Fraction, _small, st.integers(1, 5))
ENTRIES = st.one_of(_small, _fractions, _fractions.map(str))
ZEROS = st.sampled_from([0, Fraction(0), "0", "0/3"])


@st.composite
def matrices(draw, max_rows=4, max_cols=5):
    """Exact matrices of ints, Fractions and 'p/q' strings, possibly empty,
    with some rows and columns forced to zero."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    rows = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0))))
    for i in range(nrows):
        for j in range(ncols):
            if i in zero_rows or j in zero_cols:
                rows[i][j] = draw(ZEROS)
    return rows


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_oracle(matrix):
    assert rank(matrix) == oracle.rank(matrix)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_oracle(matrix):
    red, pivots = rref(matrix)
    assert (red, pivots) == oracle.rref(matrix)
    assert _all_fractions(red)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullspace_matches_oracle(matrix):
    kernel = nullspace(matrix)
    assert kernel == oracle.nullspace(matrix)
    assert _all_fractions(kernel)
    exact = [[Fraction(x) for x in row] for row in matrix]
    for v in kernel:
        assert all(y == 0 for y in matvec(exact, v))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_of_sparse_rows_matches_dense(matrix):
    sparse = [{j: x for j, x in enumerate(row) if Fraction(x)}
              for row in matrix]
    assert rank(sparse) == rank(matrix)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=6),
                 st.lists(st.one_of(ENTRIES, ZEROS), max_size=6),
                 st.lists(ZEROS, max_size=4)),
       st.booleans())
def test_primitive_integer_matches_oracle(vec, sign_first_positive):
    # int vectors take the shortcut; Fractions, strings and mixed ones do not
    ints = primitive_integer(vec, sign_first_positive)
    assert ints == oracle.primitive_integer(vec, sign_first_positive)
    assert all(type(x) is int for x in ints)


def test_empty_and_degenerate_shapes():
    assert rank([]) == 0 and rank([[], []]) == 0 and rank([{}, {}]) == 0
    assert rref([]) == ([], [])
    assert rref([[], []]) == ([[], []], [])
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    assert nullspace([]) == [] and nullspace([[], []]) == []
    assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]


# -- order-complex boundary matrices of the corpus --------------------------------------

CORPUS = ["u23", "u24", "delA3", "braidK4", "braidK5",
          "boolean_3", "boolean_4", "uniform_2_5", "uniform_3_5", "uniform_3_6"]


@pytest.mark.parametrize("name", CORPUS)
def test_boundary_ranks_match_oracle(name):
    matroid = corpus(name).matroid
    complex_ = order_complex(FlatLattice(matroid), set(), matroid.ground)
    levels = complex_.faces_by_dim()
    order = {v: i for i, v in enumerate(complex_.vertices)}
    for k in range(1, len(levels)):
        sparse = boundary_matrix(levels[k - 1], levels[k], order)
        assert all(x in (1, -1) for row in sparse for x in row.values())
        dense = [[row.get(j, 0) for j in range(len(levels[k]))]
                 for row in sparse]
        assert rank(sparse) == rank(dense) == oracle.rank(dense), (name, k)


# -- booleans are not rationals ----------------------------------------------------

_U23 = uniform(2, 3)


@pytest.mark.parametrize("call", [
    lambda: frac(True),
    lambda: from_matrix([[True, 0], [0, 1]]),
    lambda: degeneration(_U23, [True, False, 0]),
    lambda: heaviest_bases(_U23, [0, True, 0]),
    lambda: bergman_membership(_U23, [False, 0, 1]),
    lambda: nested_fan(min_building(FlatLattice(_U23))).contains([1, 0, True]),
], ids=["frac", "from_matrix", "degeneration", "heaviest_bases",
        "bergman_membership", "NestedFan.contains"])
def test_a_boolean_entry_is_refused(call):
    # bool subclasses int; the int shortcuts must not let it through
    with pytest.raises(TypeError, match="not an exact rational"):
        call()
