import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings

import mfk.complexes as complexes
import mfk.lattice as lattice_module
from mfk.bitset import from_mask
from mfk.cli import main
from mfk.complexes import SimplicialComplex, reduced_homology_ranks
from mfk.corpus import corpus
from mfk.errors import EmptyInterval, LoopsPresent
from mfk.jsonio import matrix_from_json
from mfk.lattice import (FlatLattice, interval_product_check,
                         irreducible_flats, moebius, order_complex)
from mfk.matroid import direct_sum, from_graph, from_matrix, uniform
from test_bergman import _rational_matrices


def _flat_sets(lattice, level):
    return sorted(sorted(from_mask(f)) for f in lattice.by_rank[level])


def test_flats_dela3_rank_two(dela3_lattice):
    assert _flat_sets(dela3_lattice, 2) == [
        [1, 2, 4], [1, 3, 5], [2, 3], [2, 5], [3, 4], [4, 5]]


def test_flats_u24(u24_lattice):
    assert _flat_sets(u24_lattice, 1) == [[1], [2], [3], [4]]
    assert _flat_sets(u24_lattice, 2) == [[1, 2, 3, 4]]


def test_flats_boolean_all_subsets():
    lattice = FlatLattice(uniform(3, 3))
    everything = [sorted(from_mask(f))
                  for level in lattice.by_rank for f in level]
    assert len(everything) == 8


def test_lattice_join_meet(dela3_lattice):
    lat = dela3_lattice
    for x in lat.flat_masks:
        for y in lat.flat_masks:
            join = lat.join_mask(x, y)
            meet = x & y
            assert lat.is_flat_mask(join)
            assert lat.is_flat_mask(meet)  # flats are intersection-closed
            assert x & ~join == 0 and y & ~join == 0
            assert meet & ~x == 0 and meet & ~y == 0


def test_interval_isomorphic_to_minor_lattices(dela3, braid_k4):
    for m in (dela3.matroid, braid_k4.matroid):
        lat = FlatLattice(m)
        for fmask in lat.flat_masks:
            flat = from_mask(fmask)
            base_rank = lat.rank_in_lattice(fmask)
            lower = lat.interval_masks(lat.bottom, fmask)
            lower_profile = sorted(lat.rank_in_lattice(f) for f in lower)
            restriction_lattice = FlatLattice(m.restriction(flat))
            assert lower_profile == sorted(
                restriction_lattice.rank_in_lattice(f)
                for f in restriction_lattice.flat_masks)
            upper = lat.interval_masks(fmask, lat.top)
            upper_profile = sorted(lat.rank_in_lattice(f) - base_rank
                                   for f in upper)
            contraction_lattice = FlatLattice(m.contraction(flat))
            assert upper_profile == sorted(
                contraction_lattice.rank_in_lattice(f)
                for f in contraction_lattice.flat_masks)


def test_moebius_values():
    assert moebius(FlatLattice(uniform(2, 4))).mu_top == 3
    assert moebius(FlatLattice(uniform(2, 3))).mu_top == 2


def test_moebius_dela3(dela3_lattice):
    assert moebius(dela3_lattice).mu_top == 4


def test_moebius_requires_loop_free():
    m, _ = from_matrix([[1, 0, 0], [0, 0, 1]])
    with pytest.raises(LoopsPresent):
        moebius(FlatLattice(m))


def test_moebius_matches_characteristic_polynomial(dela3, u24, braid_k4):
    # independent oracle: chi(0) via the Whitney rank sum over all subsets
    for m in (dela3.matroid, u24.matroid, braid_k4.matroid):
        total = 0
        d = m.rank_d
        for size in range(m.n + 1):
            for c in combinations(range(1, m.n + 1), size):
                if m.rank(set(c)) == d:
                    total += (-1) ** size
        lattice = FlatLattice(m)
        assert lattice.moebius_mask(lattice.top) == total
        assert moebius(lattice).mu_top == (-1) ** d * total


_CORPUS_LATTICES = ["u23", "u24", "delA3", "braidK4", "braidK5", "boolean_3",
                    "boolean_4", "uniform_2_5", "uniform_3_6"]


def test_moebius_sign_alternation():
    # Rota: mu(0, X) is nonzero with sign (-1)^rank(X); the lattice's one
    # flat of top rank is the ground set
    matroids = [corpus(name).matroid for name in _CORPUS_LATTICES]
    matroids += [uniform(d, n) for n in range(1, 7) for d in range(1, n + 1)]
    for m in matroids:
        lat = FlatLattice(m)
        assert lat.by_rank[-1] == (lat.top,) == ((1 << m.n) - 1,)
        for f in lat.flat_masks:
            r = lat.rank_in_lattice(f)
            assert lat.moebius_mask(f) * (-1) ** r > 0


def test_irreducible_flats_dela3(dela3_lattice):
    got = irreducible_flats(dela3_lattice)
    assert sorted(map(sorted, got)) == [
        [1], [1, 2, 3, 4, 5], [1, 2, 4], [1, 3, 5], [2], [3], [4], [5]]


def test_irreducible_flats_uniform():
    for d, n in [(2, 4), (3, 5), (2, 5)]:
        got = irreducible_flats(FlatLattice(uniform(d, n)))
        expected = [[i] for i in range(1, n + 1)] + [list(range(1, n + 1))]
        assert sorted(map(sorted, got)) == sorted(expected)


def test_irreducible_flats_braid_k4(braid_k4_lattice):
    # edge i of K4 joins the pairs below; a flat is irreducible exactly when
    # its vertex partition has a single nontrivial block
    edges = list(combinations(range(1, 5), 2))
    got = irreducible_flats(braid_k4_lattice)
    for flat in got:
        blocks = {frozenset(edges[i - 1]) for i in flat}
        vertices = set()
        for b in blocks:
            vertices |= b
        # all edges of the flat lie inside one vertex block
        union_edges = {i + 1 for i, e in enumerate(edges)
                       if set(e) <= vertices}
        assert union_edges == set(flat)


def test_order_complex_u24_isolated_atoms(u24, u24_lattice):
    c = order_complex(u24_lattice, set(), {1, 2, 3, 4})
    assert len(c.vertices) == 4
    assert all(len(f) == 1 for f in c.facets)


def test_order_complex_boolean3_hexagon():
    lattice = FlatLattice(uniform(3, 3))
    c = order_complex(lattice, set(), {1, 2, 3})
    assert c.f_vector() == (6, 6)


def test_order_complex_dela3(dela3, dela3_lattice):
    c = order_complex(dela3_lattice, set(), {1, 2, 3, 4, 5})
    assert len(c.vertices) == 11
    assert c.f_vector() == (11, 14)


def test_order_complex_empty_interval():
    lattice = FlatLattice(uniform(1, 3))
    with pytest.raises(EmptyInterval):
        order_complex(lattice, set(), {1, 2, 3})


def test_homology_u24_wedge_of_points(u24, u24_lattice):
    c = order_complex(u24_lattice, set(), {1, 2, 3, 4})
    betti, euler = reduced_homology_ranks(c)
    assert betti == [3]
    assert euler == 3


def test_homology_dela3_wedge_of_circles(dela3, dela3_lattice):
    c = order_complex(dela3_lattice, set(), {1, 2, 3, 4, 5})
    betti, euler = reduced_homology_ranks(c)
    assert betti == [0, 4]
    assert euler == -4


def test_homology_single_simplex_trivial():
    c = SimplicialComplex.from_faces((1, 2, 3), [{1, 2, 3}])
    betti, euler = reduced_homology_ranks(c)
    assert betti == [0, 0, 0]
    assert euler == 0


def test_from_faces_keeps_the_maximal_faces():
    faces = [{1, 2}, {1, 2, 3}, {3, 4}, {4}, {1, 2, 3}, {5}, set()]
    c = SimplicialComplex.from_faces((1, 2, 3, 4, 5), faces)
    assert c.facets == (frozenset({5}), frozenset({3, 4}),
                        frozenset({1, 2, 3}))
    assert SimplicialComplex.from_faces((), []).facets == ()


def test_euler_matches_mu_on_corpus(dela3, u24, braid_k4):
    for m in (dela3.matroid, u24.matroid, braid_k4.matroid, uniform(3, 5)):
        lattice = FlatLattice(m)
        c = order_complex(lattice, set(), set(range(1, m.n + 1)))
        _, euler = reduced_homology_ranks(c)
        mu = moebius(lattice).mu_top
        assert euler == (-1) ** (m.rank_d - 2) * mu


def test_homology_matches_mu_in_top_dim(braid_k4, braid_k4_lattice):
    c = order_complex(braid_k4_lattice, set(), set(range(1, 7)))
    betti, _ = reduced_homology_ranks(c)
    mu = moebius(braid_k4_lattice).mu_top
    d = braid_k4.matroid.rank_d
    assert betti[d - 2] == mu == 6
    assert all(b == 0 for i, b in enumerate(betti) if i != d - 2)


def _cli_homology(args, data=None):
    """``betti_proper_part`` and ``reduced_euler`` of ``mfk lattice``, with
    ``data`` written to an input file appended to ``args``."""
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            path = os.path.join(tmp, "in.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle)
            args = [*args, path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["lattice", *args]) == 0
    payload = json.loads(out.getvalue())
    return payload["betti_proper_part"], payload["reduced_euler"]


def _oracle_homology(matroid):
    """Reduced homology of the order complex of the proper part, by
    elimination; an empty proper part has only the empty face."""
    try:
        complex_ = order_complex(FlatLattice(matroid), matroid.closure(set()),
                                 matroid.ground)
    except EmptyInterval:
        return [], -1
    return reduced_homology_ranks(complex_)


_FOLKMAN_CORPUS = (["u23", "u24", "delA3", "braidK4", "braidK5"]
                   + [f"boolean_{k}" for k in range(1, 7)]
                   + [f"uniform_{d}_{n}" for n in range(1, 8)
                      for d in range(1, n + 1)]
                   + ["uniform_4_8"])


@pytest.mark.parametrize("name", _FOLKMAN_CORPUS)
def test_lattice_homology_is_folkman_on_larger_lattices(name):
    # the CLI reads the Betti numbers off mu (Folkman); elimination is the
    # oracle
    assert (_cli_homology(["--corpus", name])
            == _oracle_homology(corpus(name).matroid))


def test_lattice_homology_matches_elimination_on_k5_graph():
    edges = list(combinations(range(1, 6), 2))
    assert (_cli_homology(["--graph"], {"vertices": 5, "edges": edges})
            == _oracle_homology(from_graph(5, edges)))


@settings(max_examples=100, deadline=None)
@given(_rational_matrices)
def test_lattice_homology_matches_elimination_on_matrices(rows):
    data = {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[str(Fraction(x)) for x in row] for row in rows]}
    matroid, _ = matrix_from_json(data)
    assume(not matroid.loops())
    assert _cli_homology(["--matrix"], data) == _oracle_homology(matroid)


def test_lattice_builds_no_order_complex(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("lattice eliminated the order complex")

    for module, name in [(lattice_module, "order_complex"),
                         (complexes, "reduced_homology_ranks"),
                         (complexes, "boundary_matrix")]:
        monkeypatch.setattr(module, name, refuse)
    assert main(["lattice", "--uniform", "5", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti_proper_part"] == [0, 0, 0, payload["mu_top"]]


def test_interval_product_boolean():
    lattice = FlatLattice(uniform(3, 3))
    assert interval_product_check(lattice, {1, 2, 3}, [{1}, {2}, {3}])


def test_interval_product_dela3_fails(dela3_lattice):
    assert not interval_product_check(
        dela3_lattice, {1, 2, 3, 4, 5}, [{1, 2, 4}, {1, 3, 5}])


def test_interval_product_identity(dela3_lattice):
    assert interval_product_check(
        dela3_lattice, {1, 2, 4}, [{1, 2, 4}])


def test_direct_sum_lattice_sizes():
    m1, m2 = uniform(2, 3), uniform(1, 2)
    combined = FlatLattice(direct_sum(m1, m2))
    a = len(FlatLattice(m1).flat_masks)
    b = len(FlatLattice(m2).flat_masks)
    assert len(combined.flat_masks) == a * b


@pytest.mark.parametrize("name", _CORPUS_LATTICES)
def test_reduced_euler_is_alternating_betti_sum(name):
    m = corpus(name).matroid
    lattice = FlatLattice(m)
    c = order_complex(lattice, set(), m.ground)
    betti, euler = reduced_homology_ranks(c)
    assert euler == sum((-1) ** k * b for k, b in enumerate(betti))
    assert euler == c.reduced_euler_characteristic()
