import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfk.matroid
from mfk.errors import (CardinalityMismatch, ExchangeViolation,
                        ParameterOutOfRange)
from mfk.linalg import nullspace
from mfk.matroid import (direct_sum, from_bases, from_graph, from_matrix,
                         incidence_matrix, uniform)


def test_from_bases_uniform24():
    m = from_bases(4, [set(c) for c in combinations(range(1, 5), 2)])
    assert m == uniform(2, 4)
    assert len(m.base_masks) == 6


def test_from_bases_single_basis_free_matroid():
    m = from_bases(3, [{1, 2, 3}])
    assert m.rank_d == 3
    assert m.bases == (frozenset({1, 2, 3}),)


def test_from_bases_cardinality_mismatch():
    with pytest.raises(CardinalityMismatch):
        from_bases(3, [{1, 2}, {3}])


def test_from_bases_exchange_violation_names_triple():
    # {1,2} and {3,4} with nothing else cannot satisfy exchange
    with pytest.raises(ExchangeViolation) as err:
        from_bases(4, [{1, 2}, {3, 4}])
    assert err.value.element in err.value.base_a


def test_ground_set_cap(monkeypatch):
    with pytest.raises(ParameterOutOfRange):
        uniform(1, 21)
    monkeypatch.setenv("MFK_MAX_N", "25")
    assert uniform(1, 21).n == 21


def test_from_graph_refuses_k7_before_any_minor(monkeypatch):
    # 21 edges: the cap is checked before the walk over C(21, 6) subsets
    def no_minors(*args, **kwargs):
        raise AssertionError("a minor was computed")

    monkeypatch.delenv("MFK_MAX_N", raising=False)
    monkeypatch.setattr(mfk.matroid, "maximal_minors", no_minors)
    with pytest.raises(ParameterOutOfRange) as err:
        from_graph(7, list(combinations(range(1, 8), 2)))
    with pytest.raises(ParameterOutOfRange) as cap:
        uniform(1, 21)
    assert str(err.value) == str(cap.value)


def test_from_matrix_dela3(dela3):
    assert len(dela3.matroid.base_masks) == 8
    assert dela3.matroid.rank_d == 3


def test_from_matrix_u24_is_uniform(u24):
    assert u24.matroid == uniform(2, 4)


def test_from_matrix_zero_column_is_loop():
    m, _ = from_matrix([[1, 0, 0], [0, 0, 1]])
    assert m.loops() == {2}


def test_from_matrix_row_equivalent_matrices_agree(dela3):
    rows = [[Fraction(x) for x in row] for row in
            [[1, 0, 0, 1, 1], [0, 1, 0, -1, 0], [0, 0, 1, 0, -1]]]
    mixed = [
        [a + b for a, b in zip(rows[0], rows[1])],
        [a - 2 * c for a, c in zip(rows[1], rows[2])],
        [7 * c for c in rows[2]],
    ]
    m, _ = from_matrix(mixed)
    assert m == dela3.matroid


def test_from_graph_k3_is_u23():
    m = from_graph(3, [(1, 2), (1, 3), (2, 3)])
    assert m == uniform(2, 3)


def test_from_graph_k4_counts():
    m = from_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert m.rank_d == 3
    assert len(m.base_masks) == 16  # Cayley: 4^{4-2}


@pytest.mark.parametrize("vertices", [6, 7])
def test_from_graph_complete_graph_has_cayley_many_bases(monkeypatch,
                                                         vertices):
    monkeypatch.setenv("MFK_MAX_N", "21")  # K7 has 21 edges
    m = from_graph(vertices, list(combinations(range(1, vertices + 1), 2)))
    assert m.rank_d == vertices - 1
    assert len(m.base_masks) == vertices ** (vertices - 2)  # Cayley


def test_from_graph_edgeless():
    m = from_graph(2, [])
    assert m.n == 0
    assert m.rank_d == 0
    assert m.bases == (frozenset(),)


def test_uniform_examples():
    assert len(uniform(2, 4).base_masks) == 6
    assert uniform(3, 3).bases == (frozenset({1, 2, 3}),)
    assert sorted(map(sorted, uniform(1, 3).bases)) == [[1], [2], [3]]
    with pytest.raises(ParameterOutOfRange):
        uniform(0, 3)
    with pytest.raises(ParameterOutOfRange):
        uniform(4, 3)


def test_rank_and_closure_dela3(dela3):
    m = dela3.matroid
    assert m.closure({1, 2}) == {1, 2, 4}
    assert m.rank({1, 2}) == 2
    assert m.closure(set()) == set()


def test_closure_of_empty_is_loops():
    m, _ = from_matrix([[1, 0, 0], [0, 0, 1]])
    assert m.closure(set()) == m.loops() == {2}


def test_rank_closure_u24(u24):
    m = u24.matroid
    assert m.rank({1, 3}) == 2
    assert m.closure({1, 3}) == {1, 2, 3, 4}


def test_rank_monotone_submodular(dela3):
    m = dela3.matroid
    subsets = [set(c) for size in range(m.n + 1)
               for c in combinations(range(1, m.n + 1), size)]
    for a in subsets:
        for b in subsets:
            if a <= b:
                assert m.rank(a) <= m.rank(b)
            union = m.rank(a | b)
            inter = m.rank(a & b)
            assert union + inter <= m.rank(a) + m.rank(b)


def test_closure_idempotent(dela3):
    m = dela3.matroid
    for size in range(m.n + 1):
        for c in combinations(range(1, m.n + 1), size):
            cl = m.closure(set(c))
            assert m.closure(cl) == cl


def test_dual_involution_and_rank(dela3, u24):
    for m in (dela3.matroid, u24.matroid, uniform(3, 3)):
        d = m.dual()
        assert d.rank_d + m.rank_d == m.n
        assert d.dual() == m


def test_dual_u24_self_dual(u24):
    assert u24.matroid.dual() == u24.matroid


def test_dual_boolean_is_rank_zero():
    d = uniform(3, 3).dual()
    assert d.rank_d == 0
    assert d.bases == (frozenset(),)


def test_dual_matches_kernel_realization(dela3, u24):
    for entry in (dela3, u24):
        kernel = nullspace([list(r) for r in entry.realization.matrix])
        dual_m, _ = from_matrix(kernel)
        assert dual_m == entry.matroid.dual()


def test_dual_rank_identity_small(dela3, u24):
    # r*(E-S) = |E-S| + r(S) - r(E) for all S
    for m in (dela3.matroid, u24.matroid, uniform(2, 5)):
        d = m.dual()
        ground = set(range(1, m.n + 1))
        for size in range(m.n + 1):
            for c in combinations(sorted(ground), size):
                s = set(c)
                assert (d.rank(ground - s)
                        == (m.n - len(s)) + m.rank(s) - m.rank_d)


def test_restriction_dela3_line(dela3):
    r = dela3.matroid.restriction({1, 2, 4})
    assert r == uniform(2, 3)


def test_restriction_full_is_identity(dela3):
    m = dela3.matroid
    assert m.restriction(m.ground) == m


def test_contraction_dela3_disconnects(dela3):
    c = dela3.matroid.contraction({1})
    parts = c.components()
    assert parts.kappa == 2
    # relabelled ground {2,3,4,5} -> {1,2,3,4}: blocks {2,4} and {3,5}
    assert sorted(sorted(b) for b in parts.blocks) == [[1, 3], [2, 4]]


def test_contraction_by_nothing(dela3):
    assert dela3.matroid.contraction(set()) == dela3.matroid


def test_contraction_nonflat_gives_loops(u24):
    # closure({1}) = {1}; contract {1,2}: rank drops by 2, nothing left over
    m, _ = from_matrix([[1, 1, 0], [0, 0, 1]])
    c = m.contraction({1})  # 2 is parallel to 1, becomes a loop
    assert c.loops() == {1}


@pytest.mark.parametrize("method", ["rank", "closure", "is_independent",
                                    "restriction", "contraction"])
@pytest.mark.parametrize("element", [0, -1, 5])
def test_set_methods_name_an_element_outside_the_ground_set(method, element):
    m = uniform(2, 4)
    with pytest.raises(ParameterOutOfRange,
                       match=rf"element {element} not inside \[4\]"):
        getattr(m, method)({1, element})


def test_direct_sum_and_components():
    u11 = uniform(1, 1)
    s = direct_sum(u11, u11)
    assert s.components().kappa == 2
    assert sorted(map(sorted, s.bases)) == [[1, 2]]


def test_direct_sum_refuses_a_large_ground_set_before_pairing_bases():
    # 252 x 462 basis pairs on 21 elements: the cap of 20 must refuse the
    # sum before any pair is built (a list of them peaks near 5 MB)
    m1, m2 = uniform(5, 10), uniform(5, 11)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterOutOfRange, match="exceeds cap 20"):
            direct_sum(m1, m2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_components_u24_connected(u24):
    assert u24.matroid.components().kappa == 1
    assert u24.matroid.is_connected()


def test_component_blocks_are_complementary_flats():
    m = direct_sum(uniform(2, 3), uniform(1, 2))
    parts = m.components()
    assert parts.kappa == 2
    ground = set(range(1, m.n + 1))
    for block in parts.blocks:
        assert m.closure(block) == set(block)
        assert m.closure(ground - block) == ground - block
        restricted = m.restriction(block)
        assert restricted.is_connected()


def test_connectivity_matches_flat_scan(dela3, u24):
    # connected iff no complementary pair of flats
    for m in (dela3.matroid, u24.matroid,
              direct_sum(uniform(2, 3), uniform(1, 2))):
        ground = set(range(1, m.n + 1))
        has_split = any(
            m.closure(set(c)) == set(c)
            and m.closure(ground - set(c)) == ground - set(c)
            for size in range(1, m.n)
            for c in combinations(sorted(ground), size))
        assert m.is_connected() == (not has_split)


def test_circuits_u24(u24):
    assert sorted(map(sorted, u24.matroid.circuits())) == [
        [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]


def test_circuits_boolean_empty():
    assert uniform(3, 3).circuits() == []


def test_circuits_dela3_brute_force(dela3):
    m = dela3.matroid
    dependent = [set(c) for size in range(1, m.n + 1)
                 for c in combinations(range(1, m.n + 1), size)
                 if m.rank(set(c)) < size]
    minimal = [d for d in dependent
               if not any(e < d for e in dependent)]
    assert sorted(map(sorted, m.circuits())) == sorted(map(sorted, minimal))


def test_circuits_match_kernel_supports(dela3):
    kernel = nullspace([list(r) for r in dela3.realization.matrix])
    supports = set()
    for size in range(1, 6):
        for combo in combinations(range(5), size):
            cols = [[dela3.realization.matrix[r][c] for c in combo]
                    for r in range(3)]
            if nullspace(cols):
                supports.add(frozenset(c + 1 for c in combo))
    minimal = {s for s in supports if not any(t < s for t in supports)}
    assert set(dela3.matroid.circuits()) == minimal


def test_loops_simple_connected_u24(u24):
    m = u24.matroid
    assert m.loops() == set()
    assert m.is_simple()
    assert m.is_connected()


def test_parallel_pair_not_simple():
    assert not uniform(1, 2).is_simple()


def test_matroid_repr_round_trip_equality(dela3):
    m = dela3.matroid
    again = from_bases(m.n, [set(b) for b in m.bases])
    assert again == m
    assert hash(again) == hash(m)


@st.composite
def small_rational_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=1, max_value=5))
    entries = draw(st.lists(
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return entries


@settings(max_examples=60, deadline=None)
@given(small_rational_matrices())
def test_matrix_matroids_satisfy_exchange(entries):
    m, _ = from_matrix(entries)
    # re-validate through the checking constructor
    again = from_bases(m.n, [set(b) for b in m.bases]) if m.n else m
    assert again == m


@settings(max_examples=40, deadline=None)
@given(small_rational_matrices())
def test_matrix_matroid_rank_equals_column_rank(entries):
    m, real = from_matrix(entries)
    assert m.rank_d == len(real.matrix) or not any(
        x != 0 for row in entries for x in row)


def test_incidence_matrix_columns_and_edge_validation():
    matrix = incidence_matrix(3, [(1, 2), (3, 1)])
    assert matrix == [[1, -1], [-1, 0], [0, 1]]
    for bad in [(1, 1), (0, 2), (2, 4)]:
        with pytest.raises(ParameterOutOfRange):
            from_graph(3, [(1, 2), bad])
