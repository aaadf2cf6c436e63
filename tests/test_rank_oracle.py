"""The one-pass rank-oracle queries against their rank-scan definitions.

``rank_oracle`` keeps the queries as the rank function defines them; here
``closure_mask``, ``circuit_masks``, ``is_independent`` and ``loops`` must
agree with it on every subset, the circuit walk must agree with the subset
scan it replaced, and the work counts guard the one-pass forms:
``closure_mask`` and ``circuit_masks`` call ``rank_mask`` never, and the
Bergman grid check finds the heaviest bases once per weak order.  The grid
check itself must answer as ``rank_oracle.grid_agrees_pointwise`` does.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rank_oracle
from mfk import bergman, cli
from mfk.bergman import BergmanFan, bergman_fan, bergman_membership
from mfk.bitset import from_mask
from mfk.corpus import corpus
from mfk.lattice import FlatLattice
from mfk.matroid import Matroid, direct_sum, from_matrix, uniform
from mfk.polytope import sublevel_masks

_LOOP = Matroid(1, [0])
_COLOOP = uniform(1, 1)

_MATROIDS = {
    **{f"U{d},{n}": (lambda d=d, n=n: uniform(d, n))
       for n in range(1, 7) for d in range(1, n + 1)},
    **{name: (lambda name=name: corpus(name).matroid)
       for name in ("u23", "u24", "delA3", "braidK4", "boolean_3")},
    "loop": lambda: _LOOP,
    "U23+loop": lambda: direct_sum(uniform(2, 3), _LOOP),
    "loop+U24+coloop": lambda: direct_sum(direct_sum(_LOOP, uniform(2, 4)),
                                          _COLOOP),
    "U12+loop+loop": lambda: direct_sum(uniform(1, 2),
                                        direct_sum(_LOOP, _LOOP)),
    "delA3+coloop": lambda: direct_sum(corpus("delA3").matroid, _COLOOP),
}


def _agrees_with_oracle(m):
    assert m.loops() == rank_oracle.loops(m)
    assert m.circuit_masks == rank_oracle.circuit_masks(m)
    for mask in range(1 << m.n):
        assert m.closure_mask(mask) == rank_oracle.closure_mask(m, mask)
        assert (m.is_independent(from_mask(mask))
                == rank_oracle.is_independent(m, mask))


@pytest.mark.parametrize("name", list(_MATROIDS))
def test_rank_queries_match_the_oracle(name):
    _agrees_with_oracle(_MATROIDS[name]())


@st.composite
def _integer_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=1, max_value=6))
    return draw(st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                                  min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=60, deadline=None)
@given(_integer_matrices())
def test_rank_queries_match_the_oracle_on_matrices(rows):
    _agrees_with_oracle(from_matrix(rows)[0])


_PARALLEL = from_matrix([[1, 2, 0, 1], [0, 0, 1, 1]])[0]  # 1 and 2 parallel

_CIRCUIT_INPUTS = {
    **{f"U{d},{n}": (lambda d=d, n=n: uniform(d, n))
       for n in range(1, 8) for d in range(1, n + 1)},
    **{name: (lambda name=name: corpus(name).matroid)
       for name in ("u23", "u24", "delA3", "braidK4", "braidK5",
                    *(f"boolean_{k}" for k in range(1, 6)))},
    "parallel pair": lambda: _PARALLEL,
    "parallel pair+loop": lambda: direct_sum(_PARALLEL, _LOOP),
    "U13+loop+U22": lambda: direct_sum(direct_sum(uniform(1, 3), _LOOP),
                                       uniform(2, 2)),
    "rank 0 on three": lambda: Matroid(3, [0]),
    "rank 0 on none": lambda: Matroid(0, [0]),
}


@pytest.mark.parametrize("name", list(_CIRCUIT_INPUTS))
def test_circuit_walk_matches_the_subset_scan(name):
    m = _CIRCUIT_INPUTS[name]()
    assert m.circuit_masks == rank_oracle.circuit_scan(m)


@st.composite
def _rational_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=7))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=80, deadline=None)
@given(_rational_matrices())
def test_circuit_walk_matches_the_subset_scan_on_matrices(rows):
    m = from_matrix(rows)[0]
    assert m.circuit_masks == rank_oracle.circuit_scan(m)


_FANS = {
    "u24": lambda: corpus("u24").matroid,
    "delA3": lambda: corpus("delA3").matroid,
    "U25": lambda: uniform(2, 5),
    "U23+U11": lambda: direct_sum(uniform(2, 3), _COLOOP),
}


@pytest.mark.parametrize("name", list(_FANS))
def test_cones_containing_is_the_single_cone_rule(name):
    m = _FANS[name]()
    fan = bergman_fan(FlatLattice(m))
    weights = list(product(range(-1, 2), repeat=m.n))
    weights += [[Fraction(k, 2) for k in w] for w in weights[::7]]
    for w in weights:
        assert fan.cones_containing(w) == {
            i for i in range(len(fan.cones)) if fan.coarse_contains(i, w)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), max_size=7))
def test_constancy_chain_on_ints_matches_fractions(weights):
    # the constancy chain of a weight is its ascending sublevel masks
    assert (sublevel_masks(weights)
            == sublevel_masks([Fraction(x) for x in weights])
            == sublevel_masks([f"{x}/1" for x in weights]))


def test_bergman_membership_on_ints_matches_fractions():
    m = corpus("delA3").matroid
    for w in product(range(-1, 2), repeat=m.n):
        assert (bergman_membership(m, w)
                == bergman_membership(m, [Fraction(x, 3) for x in w]))


# -- work counts -------------------------------------------------------------


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_closure_and_circuits_make_no_rank_scan(monkeypatch):
    m = uniform(4, 12)
    delta = corpus("delA3").matroid
    calls = _count_calls(monkeypatch, Matroid, "rank_mask")
    assert len(m.circuit_masks) == 792
    for mask in range(1 << delta.n):
        delta.closure_mask(mask)
    m.closure_mask(0b111)
    assert calls == []


@pytest.mark.parametrize("radius", ["2", "40"])
def test_bergman_grid_finds_the_heaviest_bases_once_per_weak_order(
        monkeypatch, radius):
    calls = _count_calls(monkeypatch, bergman, "heaviest_bases")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["bergman", "--corpus", "u24", "--grid", radius]) == 0
    # the flags are grouped by their transversals, with no call; then one
    # call per weak order of [4], at any radius with 2K + 1 >= 4 levels
    assert len(calls) == 75


@pytest.mark.parametrize("n", range(7))
def test_weak_orders_are_the_filtered_grid_each_once(n):
    # the grid check visits these in place of the filtered product
    for radius in range(4):
        levels = min(n, 2 * radius + 1)
        orders = list(cli._weak_orders(n, levels))
        assert len(orders) == len(set(orders))
        assert set(orders) == {
            w for w in product(range(levels), repeat=n)
            if len(set(w)) == max(w, default=-1) + 1}


# -- the grid check against the pointwise sweep ------------------------------


def _cli_grid(input_args, radius):
    """``support_grid_radius`` and ``support_grid_agrees`` of the CLI."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["bergman", *input_args, "--grid", str(radius)]) == 0
    data = json.loads(out.getvalue())
    return data["support_grid_radius"], data["support_grid_agrees"]


_SMALL_CORPUS = ["u23", "u24", "delA3", "braidK4",
                 *(f"boolean_{n}" for n in range(1, 7)),
                 *(f"uniform_{d}_{n}" for n in range(1, 7)
                   for d in range(1, n + 1))]


@pytest.mark.parametrize("name", _SMALL_CORPUS)
def test_grid_check_matches_the_pointwise_sweep_on_the_corpus(name):
    fan = bergman_fan(FlatLattice(corpus(name).matroid))
    for radius in (1, 2, 3):
        assert _cli_grid(["--corpus", name], radius) == (
            radius, rank_oracle.grid_agrees_pointwise(fan, radius))


@settings(max_examples=40, deadline=None)
@given(_rational_matrices(), st.integers(min_value=1, max_value=2))
def test_grid_check_matches_the_pointwise_sweep_on_matrices(rows, radius):
    m = from_matrix(rows)[0]
    assume(m.n <= 5 and not m.loops())
    fan = bergman_fan(FlatLattice(m))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "matrix.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"rows": len(rows), "cols": m.n,
                       "entries": [[str(x) for x in row] for row in rows]},
                      handle)
        assert _cli_grid(["--matrix", path], radius) == (
            radius, rank_oracle.grid_agrees_pointwise(fan, radius))


@pytest.mark.parametrize("radius", [1, 2])
def test_reduced_grid_check_still_catches_a_fault(monkeypatch, radius):
    # a fault only at weights with n distinct values: on the free matroid
    # those lie in the support, so both checks must see it
    honest = BergmanFan.cones_containing

    def faulty(fan, w):
        return frozenset() if len(set(w)) == fan.n else honest(fan, w)

    monkeypatch.setattr(BergmanFan, "cones_containing", faulty)
    fan = bergman_fan(FlatLattice(corpus("boolean_3").matroid))
    assert rank_oracle.grid_agrees_pointwise(fan, radius) is False
    assert _cli_grid(["--corpus", "boolean_3"], radius) == (radius, False)
