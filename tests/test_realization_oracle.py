"""Bases and circuit relations from maximal minors against their former
elimination routes.

``realization_oracle`` keeps the rank-per-subset base scan and the
per-circuit kernel; here ``from_matrix`` (bases and realization) and
``reciprocal_generators`` must agree with them.  ``maximal_minors``, the
Bareiss walk over column subsets, must agree with one Fraction elimination
of ``fraction_oracle`` per subset, and its minors must satisfy the
three-term Plücker relations.  A guard test runs ``reciprocal_generators``
with every elimination entry point refusing.
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
from mfk.linalg import maximal_minors, primitive_integer
from mfk.matroid import from_matrix, incidence_matrix
from mfk.reciprocal import circuit_dependency, reciprocal_generators

# -- the Bareiss walk over column subsets --------------------------------------------------


def _minors_by_subset(rows):
    """Every nonzero maximal minor by column mask, one Fraction elimination
    per subset, the subsets in lexicographic order."""
    ncols = len(rows[0]) if rows else 0
    minors = {}
    for combo in combinations(range(ncols), len(rows)):
        minor = fraction_oracle.determinant(
            [[row[j] for j in combo] for row in rows])
        if minor:
            minors[sum(1 << j for j in combo)] = minor
    return minors


@st.composite
def _integer_matrices(draw, max_cols=9):
    """Integer d x n matrices, d <= n <= 9, some with a zero row or column,
    a repeated column or a dependent row, so that zero pivots, skipped
    columns and rank deficiency are common."""
    ncols = draw(st.integers(0, max_cols))
    nrows = draw(st.integers(0, ncols))
    rows = [[draw(st.integers(-9, 9)) for _ in range(ncols)]
            for _ in range(nrows)]
    if not rows or not ncols:
        return rows
    kind = draw(st.sampled_from(["generic", "zero column", "zero row",
                                 "repeated column", "dependent row"]))
    if kind == "zero column":
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    elif kind == "zero row":
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    elif kind == "repeated column" and ncols > 1:
        i, j = draw(st.lists(st.integers(0, ncols - 1), min_size=2,
                             max_size=2, unique=True))
        for row in rows:
            row[j] = row[i]
    elif kind == "dependent row" and nrows > 1:
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=400, deadline=None)
@given(_integer_matrices())
def test_maximal_minors_match_the_fraction_elimination(rows):
    minors = maximal_minors(rows)
    assert all(type(x) is int for x in minors.values())
    # the same minors in the same (lexicographic) order
    assert list(minors.items()) == list(_minors_by_subset(rows).items())


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
    # a square matrix has one maximal minor, its determinant
    full = (1 << len(matrix)) - 1
    assert maximal_minors(matrix) == ({full: expected} if expected else {})
    assert fraction_oracle.determinant(matrix) == expected


def test_maximal_minors_of_a_wide_matrix():
    # column 0 takes the second row as its pivot (a sign flip); after
    # column 1, column 2 is zero in the row left; column 3 is zero in both
    rows = [[0, 1, 2, 0], [1, 2, 4, 0]]
    assert list(maximal_minors(rows).items()) == [(0b0011, -1), (0b0101, -2)]
    assert maximal_minors([[1, 2, 3], [2, 4, 6]]) == {}  # rank 1


def test_maximal_minors_leave_their_input_alone():
    matrix = [[0, 2], [3, 1]]
    assert maximal_minors(matrix) == {0b11: -6}
    assert matrix == [[0, 2], [3, 1]]


def _three_term_relations(plucker, nrows, ncols):
    """Every p_{Sij} p_{Skl} - p_{Sik} p_{Sjl} + p_{Sil} p_{Sjk}, with
    |S| = d - 2, i < j < k < l outside S, and p_{Sab} the minor of the
    columns S (ascending), a, b in that order."""
    def p(rest, a, b):
        mask = sum(1 << s for s in rest) | 1 << a | 1 << b
        flips = sum(s > a for s in rest) + sum(s > b for s in rest)
        return (-1) ** flips * plucker.get(mask, 0)

    if nrows < 2:
        return
    for rest in combinations(range(ncols), nrows - 2):
        others = [c for c in range(ncols) if c not in rest]
        for i, j, k, l in combinations(others, 4):
            yield (p(rest, i, j) * p(rest, k, l)
                   - p(rest, i, k) * p(rest, j, l)
                   + p(rest, i, l) * p(rest, j, k))


_CORPUS = ["u23", "u24", "delA3", "braidK4", "braidK5",
           *(f"boolean_{k}" for k in range(1, 5)),
           *(f"uniform_{d}_{n}" for n in range(1, 8) for d in range(1, n + 1))]


@pytest.mark.parametrize("name", _CORPUS)
def test_corpus_plucker_satisfies_the_three_term_relations(name):
    real = corpus(name).realization
    relations = list(_three_term_relations(real.plucker, real.nrows,
                                           real.ncols))
    assert relations == [0] * len(relations)


@settings(max_examples=150, deadline=None)
@given(_integer_matrices(max_cols=8))
def test_maximal_minors_satisfy_the_three_term_relations(rows):
    ncols = len(rows[0]) if rows else 0
    relations = list(_three_term_relations(maximal_minors(rows), len(rows),
                                           ncols))
    assert relations == [0] * len(relations)


@pytest.mark.parametrize("name", _CORPUS)
def test_corpus_minors_vanish_exactly_off_the_bases(name):
    real = corpus(name).realization
    rows = [primitive_integer(row, sign_first_positive=False)
            for row in real.matrix]
    minors = _minors_by_subset(rows)
    assert set(minors) == set(real.matroid.base_masks)
    assert list(real.plucker.items()) == list(minors.items())
    # positive row factors keep the sign of every minor
    exact = _minors_by_subset(real.matrix)
    assert {mask: x > 0 for mask, x in exact.items()} == \
        {mask: x > 0 for mask, x in minors.items()}


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
