"""Bases and circuit relations from maximal minors against their former
elimination routes.

``realization_oracle`` keeps the rank-per-subset base scan and the
per-circuit kernel; here ``from_matrix`` (bases and realization) and
``reciprocal_generators`` must agree with them, and ``determinant`` must
agree with the Fraction elimination of ``fraction_oracle``.  A guard test
runs ``reciprocal_generators`` with every elimination entry point refusing.
"""

import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle
import realization_oracle
from mfk import linalg
from mfk.corpus import corpus
from mfk.errors import NotACircuit
from mfk.linalg import determinant, primitive_integer
from mfk.matroid import from_matrix, incidence_matrix
from mfk.reciprocal import circuit_dependency, reciprocal_generators

# -- the Bareiss determinant ------------------------------------------------------------


@st.composite
def _square_matrices(draw, max_size=6):
    """Integer square matrices, some rows and columns forced to zero, some
    rows repeated, so that zero pivots and singular inputs are common."""
    size = draw(st.integers(0, max_size))
    rows = [[draw(st.integers(-9, 9)) for _ in range(size)]
            for _ in range(size)]
    for j in draw(st.sets(st.integers(0, max(size - 1, 0)), max_size=2)):
        if size:
            rows[0][j] = 0
    if size > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, size - 1))] = list(rows[0])
    return rows


@settings(max_examples=400, deadline=None)
@given(_square_matrices())
def test_determinant_matches_the_fraction_elimination(matrix):
    det = determinant(matrix)
    assert type(det) is int
    assert det == fraction_oracle.determinant(matrix)


@pytest.mark.parametrize("matrix, expected", [
    ([], 1),
    ([[0]], 0),
    ([[-7]], -7),
    ([[0, 1], [1, 0]], -1),  # zero leading pivot, one swap
    ([[0, 2, 1], [0, 1, 3], [4, 0, 0]], 20),  # swap past a zero row start
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
    ([[0, 1, 2], [0, 3, 4], [0, 5, 6]], 0),  # zero column: no pivot
    ([[2, 4], [1, 2]], 0),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 1),
])
def test_determinant_of_hand_cases(matrix, expected):
    assert determinant(matrix) == expected
    assert fraction_oracle.determinant(matrix) == expected


def test_determinant_leaves_its_input_alone():
    matrix = [[0, 2], [3, 1]]
    assert determinant(matrix) == -6
    assert matrix == [[0, 2], [3, 1]]


_CORPUS = ["u23", "u24", "delA3", "braidK4", "braidK5",
           *(f"boolean_{k}" for k in range(1, 5)),
           *(f"uniform_{d}_{n}" for n in range(1, 8) for d in range(1, n + 1))]


@pytest.mark.parametrize("name", _CORPUS)
def test_corpus_minors_vanish_exactly_off_the_bases(name):
    real = corpus(name).realization
    rows = [primitive_integer(row, sign_first_positive=False)
            for row in real.matrix]
    bases = set(real.matroid.base_masks)
    nonzero = {}
    for combo in combinations(range(real.ncols), real.nrows):
        mask = sum(1 << j for j in combo)
        minor = determinant([[row[j] for j in combo] for row in rows])
        exact = fraction_oracle.determinant(
            [[row[j] for j in combo] for row in real.matrix])
        assert (minor > 0) == (exact > 0) and (minor < 0) == (exact < 0)
        assert bool(minor) == (mask in bases), combo
        if minor:
            nonzero[mask] = minor
    assert real.plucker == nonzero


# -- bases and realization -----------------------------------------------------------------


def _vandermonde(d, n):
    return [[j ** i for j in range(1, n + 1)] for i in range(d)]


def _complete_graph(vertices):
    return incidence_matrix(vertices,
                            list(combinations(range(1, vertices + 1), 2)))


_MATRICES = {
    **{f"V{d},{n}": _vandermonde(d, n)
       for n in range(1, 8) for d in range(1, n + 1)},
    "u23": [[1, 0, 1], [0, 1, -1]],
    "u24": [[1, 0, 1, 1], [0, 1, -1, 1]],
    "delA3": [[1, 0, 0, 1, 1], [0, 1, 0, -1, 0], [0, 0, 1, 0, -1]],
    "K4": _complete_graph(4),
    "K5": _complete_graph(5),
    # parallel elements and coloops give circuits that do not span
    "parallel pair": [[1, 2, 0, 1], [0, 0, 1, 1]],
    "parallel pair and coloop": [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "two parallel classes": [[1, 2, 3, 0, 0, 1], [0, 0, 0, 1, -1, 1]],
    "triangle and coloops": [[1, 0, 1, 0, 0], [0, 1, 1, 0, 0],
                             [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
    # dependent rows: the realization is the nonzero rows of the RREF
    "dependent rows": [[1, 0, 1, 1], [0, 1, -1, 1], [1, 1, 0, 2]],
    "repeated row": [[1, 2, 3], [1, 2, 3]],
    "zero row": [[0, 0, 0], [1, 0, 1], [0, 1, 1]],
    "zero": [[0, 0], [0, 0]],
    # Fraction and 'p/q' entries
    "fractions": [[Fraction(1, 2), 0, Fraction(3, 4), 1],
                  [0, Fraction(5, 3), 1, Fraction(-1, 7)]],
    "strings": [["1/2", "0", "3/4", "-2/3", "1"],
                ["0", "5/3", "1", "1/7", "2"],
                ["1", "1", "0", "3", "9/2"]],
    "strings, dependent": [["1/2", "1/3", "1"], ["3/2", "1", "3"]],
    "loop": [[1, 0, 1], [0, 0, 1]],
}


def _agrees_with_oracle(rows):
    matroid, real = from_matrix(rows)
    bases, realization = realization_oracle.from_matrix(rows)
    assert matroid.base_masks == bases
    assert real.matrix == realization
    assert all(type(x) is Fraction for row in real.matrix for x in row)
    assert set(real.plucker) == set(bases)
    return real


def _relations_agree_with_oracle(real):
    for circuit, coefficients in realization_oracle.reciprocal_coefficients(
            real):
        assert circuit_dependency(real, circuit) == coefficients, circuit
    if real.matroid.loops():
        return
    got = [(g.circuit, g.coefficients) for g in reciprocal_generators(real)]
    assert got == realization_oracle.reciprocal_coefficients(real)


@pytest.mark.parametrize("name", list(_MATRICES))
def test_from_matrix_matches_the_subset_scan(name):
    _agrees_with_oracle(_MATRICES[name])


@pytest.mark.parametrize("name", list(_MATRICES))
def test_circuit_relations_match_the_kernels(name):
    _relations_agree_with_oracle(from_matrix(_MATRICES[name])[1])


@pytest.mark.parametrize("name", _CORPUS)
def test_corpus_relations_match_the_kernels(name):
    _relations_agree_with_oracle(corpus(name).realization)


_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3).map(str))


@st.composite
def _matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 7))
    rows = [[draw(_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):  # a dependent row
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * Fraction(x) + b * Fraction(y)
                    for x, y in zip(rows[0], rows[1 % (nrows - 1)])]
    if draw(st.booleans()):  # a column parallel to the first
        k = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[k] = 2 * Fraction(row[0])
    return rows


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_from_matrix_and_relations_match_the_oracle_on_matrices(rows):
    _relations_agree_with_oracle(_agrees_with_oracle(rows))


# -- no elimination on the circuits path --------------------------------------------------


def test_reciprocal_generators_run_without_elimination(monkeypatch):
    reals = [corpus(name).realization
             for name in ("uniform_4_9", "braidK5", "delA3")]
    reals.append(from_matrix(_MATRICES["two parallel classes"])[1])
    reals.append(from_matrix(_MATRICES["strings"])[1])

    def refuse(*args, **kwargs):
        raise AssertionError("elimination on the circuits path")

    # every binding of the elimination entry points, aliases included
    originals = [getattr(linalg, name)
                 for name in ("rref", "nullspace", "rank")]
    for key, module in list(sys.modules.items()):
        if key == "mfk" or key.startswith("mfk."):
            for attr, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, attr, refuse)
    for real in reals:
        assert reciprocal_generators(real)


def test_circuit_dependency_refuses_non_circuits():
    # {1, 2} is a circuit and 3 a coloop; the kernel of the columns on
    # {1, 2, 3} is one-dimensional, yet the set is not a circuit
    _, real = from_matrix([[1, 1, 0], [0, 0, 1]])
    assert realization_oracle.circuit_dependency(real, {1, 2, 3}) == \
        {1: 1, 2: -1, 3: 0}
    for bad in ({1, 2, 3}, {1}, {3}, {1, 2, 4}, {0, 1}, set()):
        with pytest.raises(NotACircuit):
            circuit_dependency(real, bad)
    assert circuit_dependency(real, {1, 2}) == {1: 1, 2: -1}
