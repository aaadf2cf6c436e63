import math
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import amoeba_oracle
import laurent_oracle
from mfk.bergman import (AmoebaSample, amoeba_sample, bergman_fan,
                         bergman_membership, initial_subspace,
                         support_deviations)
from mfk import bergman, geometry, linalg
from mfk.bitset import from_mask
from mfk.corpus import corpus
from mfk.complexes import reduced_homology_ranks
from mfk.errors import (DimensionMismatch, LoopsPresent, ParameterOutOfRange,
                        SingularSample)
from mfk.geometry import _flat_vector, cone_contains, irredundant_rays
from mfk.lattice import FlatLattice, moebius, order_complex
from mfk.linalg import rref
from mfk.matroid import direct_sum, from_graph, from_matrix, uniform
from mfk.polytope import facets, heaviest_bases
from theorem_checks import check_prop_grob


def _rays_of(fan, cone):
    return tuple(fan.rays[i] for i in cone)


def _flat_pairs(rays):
    return tuple(sorted(tuple(sorted(i + 1 for i, x in enumerate(r) if x))
                        for r in rays))


def test_membership_zero_weight(u24):
    assert bergman_membership(u24.matroid, [0, 0, 0, 0])


def test_membership_u24_rays(u24):
    # the support contains the flat indicator directions
    m = u24.matroid
    assert bergman_membership(m, [1, 0, 0, 0])
    assert bergman_membership(m, [0, 1, 0, 0])
    # and not the opposite classes: {2,3,4} is not a flat
    assert not bergman_membership(m, [0, 1, 1, 1])


def test_membership_u24_non_flat_chain(u24):
    assert not bergman_membership(u24.matroid, [0, 0, 1, 1])


@pytest.mark.parametrize("w", [[0, 1], [], [0, 1, 2, 3, 4, 5]])
def test_weights_of_the_wrong_length_are_refused(u24, w):
    m = u24.matroid
    fan = bergman_fan(FlatLattice(m))
    for query in (lambda: bergman_membership(m, w),
                  lambda: heaviest_bases(m, w),
                  lambda: fan.coarse_contains(0, w),
                  lambda: fan.cones_containing(w),
                  lambda: initial_subspace(u24.realization, w)):
        with pytest.raises(DimensionMismatch):
            query()


def test_membership_requires_loop_free():
    m, _ = from_matrix([[1, 0, 0], [0, 0, 1]])
    with pytest.raises(LoopsPresent):
        bergman_membership(m, [0, 0, 0])


def test_bergman_fan_u24_four_rays(u24):
    fan = bergman_fan(FlatLattice(u24.matroid))
    assert len(fan.cones) == 4
    assert fan.rays == ((0, 0, 0, 1), (0, 0, 1, 0),
                        (0, 1, 0, 0), (1, 0, 0, 0))


def test_bergman_fan_dela3_complex(dela3_lattice):
    fan = bergman_fan(dela3_lattice)
    assert len(fan.fine_chains) == 14
    assert len(fan.cones) == 9
    # vertex set: the six facet flats; the e_1 direction and the pair
    # directions are interior to higher cones
    ray_flats = sorted(tuple(sorted(i + 1 for i, x in enumerate(r) if x))
                       for r in fan.rays)
    assert ray_flats == [(1, 2, 4), (1, 3, 5), (2,), (3,), (4,), (5,)]
    edges = sorted(_flat_pairs(_rays_of(fan, c)) for c in fan.cones)
    assert edges == [
        ((1, 2, 4), (1, 3, 5)), ((1, 2, 4), (2,)), ((1, 2, 4), (4,)),
        ((1, 3, 5), (3,)), ((1, 3, 5), (5,)),
        ((2,), (3,)), ((2,), (5,)), ((3,), (4,)), ((4,), (5,))]


def test_bergman_fan_uniform_coordinate_cones():
    for d, n in [(2, 4), (3, 5), (2, 5), (4, 5)]:
        fan = bergman_fan(FlatLattice(uniform(d, n)))
        assert len(fan.cones) == len(
            list(combinations(range(n), d - 1)))
        for cone in fan.cones:
            flats = _flat_pairs(_rays_of(fan, cone))
            assert all(len(f) == 1 for f in flats)
            assert len(flats) == d - 1


@pytest.mark.parametrize("name", ["u24", "delA3", "braidK4", "braidK5",
                                  "uniform_3_6"])
def test_flag_rays_lie_in_their_coarse_cone(name):
    # the irredundant rays of a group span every flag ray of the group
    fan = bergman_fan(FlatLattice(corpus(name).matroid))
    for g, members in enumerate(fan.groups):
        for i in members:
            for flat in map(from_mask, fan.fine_chains[i]):
                vec = tuple(1 if e in flat else 0
                            for e in range(1, fan.n + 1))
                assert cone_contains(_rays_of(fan, fan.cones[g]), vec), \
                    (g, vec)
                assert fan.coarse_contains(g, vec), (g, vec)


def test_bergman_support_equals_coarse_union(u24, dela3):
    for m, radius in ((u24.matroid, 2), (dela3.matroid, 1)):
        fan = bergman_fan(FlatLattice(m))
        for w in product(range(-radius, radius + 1), repeat=m.n):
            assert bergman_membership(m, w) == bool(fan.cones_containing(w))


def _weak_order(w):
    """The ordered partition of the positions by value, as level indices."""
    levels = sorted(set(w))
    return tuple(levels.index(x) for x in w)


@pytest.mark.parametrize("name", ["u23", "u24", "delA3", "braidK4",
                                  "boolean_3", "U23+U12"])
def test_support_answers_depend_only_on_the_weak_order(name):
    # every Bergman cone is a union of braid cones, so both rules are
    # constant on a weak-order class and blind to w + c*1 and to 2w
    m = (direct_sum(uniform(2, 3), uniform(1, 2)) if name == "U23+U12"
         else corpus(name).matroid)
    assert name != "U23+U12" or m.components().kappa == 2
    fan = bergman_fan(FlatLattice(m))
    by_order = {}
    for w in product(range(-2, 3), repeat=m.n):
        answer = (fan.contains(w), fan.cones_containing(w))
        assert by_order.setdefault(_weak_order(w), answer) == answer, w
        for image in ([x - 3 for x in w], [x + 1 for x in w],
                      [2 * x for x in w]):
            assert (fan.contains(image),
                    fan.cones_containing(image)) == answer, (w, image)


def test_bergman_groups_share_degeneration(dela3):
    from mfk.polytope import degeneration
    fan = bergman_fan(FlatLattice(dela3.matroid))
    for g, members in enumerate(fan.groups):
        for idx in members:
            chain = fan.fine_chains[idx]
            w = [0] * fan.n
            for flat in map(from_mask, chain):
                for i in flat:
                    w[i - 1] -= 1
            deg = degeneration(dela3.matroid, w)
            assert sorted(map(sorted, deg.matroid_u.bases)) == sorted(
                map(sorted, map(from_mask, fan.group_bases[g])))
            assert deg.loop_free


def test_fine_complex_homology_matches_mu(dela3, dela3_lattice):
    complex_ = order_complex(dela3_lattice, set(), dela3.matroid.ground)
    betti, _ = reduced_homology_ranks(complex_)
    mu = moebius(dela3_lattice).mu_top
    d = dela3.matroid.rank_d
    assert betti[d - 2] == mu
    assert all(b == 0 for i, b in enumerate(betti) if i != d - 2)


def test_initial_subspace_u24_example(u24):
    limit = initial_subspace(u24.realization, [1, 0, 0, 0])
    got = rref([list(r) for r in limit.matrix])[0]
    expected = rref([[0, 1, -1, 1], [0, 0, 1, 1]])[0]
    assert got == expected
    assert limit.matroid.loops() == {1}


def test_initial_subspace_zero_weight(u24):
    limit = initial_subspace(u24.realization, [0, 0, 0, 0])
    assert rref([list(r) for r in limit.matrix])[0] == \
        rref([list(r) for r in u24.realization.matrix])[0]


def test_initial_subspace_preserves_dimension(dela3):
    for u in [(1, 0, 0, 0, 0), (-2, 1, 3, 0, -1), (5, 5, 5, 5, 5)]:
        limit = initial_subspace(dela3.realization, u)
        assert len(limit.matrix) == 3
        assert limit.matroid.rank_d == 3


_INITIAL_WEIGHTS = [(1, 0, 0, 0, 0), (-2, 1, 3, 0, -1),
                    (Fraction(1, 2), 0, 0, 0, 0), ("1/2", "-1/3", 0, "1/3", 2),
                    (Fraction(-5, 4), Fraction(3, 2), "3/2", 1, 0)]


@pytest.mark.parametrize("name", ["u23", "u24", "delA3", "braidK4",
                                  "uniform_3_6"])
def test_initial_subspace_matches_the_laurent_oracle(name):
    # the same row space as the Laurent elimination, for integer, Fraction
    # and 'p/q' weights
    realization = corpus(name).realization
    n = realization.ncols
    for u in _INITIAL_WEIGHTS + [tuple(range(n)), tuple(range(n, 0, -1))]:
        u = (u * n)[:n]
        limit = initial_subspace(realization, u)
        assert (rref([list(r) for r in limit.matrix])[0]
                == rref(laurent_oracle.initial_subspace_rows(
                    realization, u))[0]), u


def test_prop_grob_fractional_weight(u24):
    # the weight is not truncated to an integer
    for u in ([Fraction(1, 2), 0, 0, 0], ["1/2", 0, 0, 0]):
        assert check_prop_grob(u24.realization, u)
        assert initial_subspace(u24.realization, u).matroid.loops() == {1}


def test_prop_grob_u24_exhaustive(u24):
    for u in product(range(-2, 3), repeat=4):
        assert check_prop_grob(u24.realization, u)


def test_prop_grob_dela3_random(dela3):
    import random
    rng = random.Random(20120613)
    for _ in range(200):
        u = [rng.randint(-3, 3) for _ in range(5)]
        assert check_prop_grob(dela3.realization, u)


def test_amoeba_deviation_small():
    u23 = corpus("u23")
    fan = bergman_fan(FlatLattice(u23.matroid))
    sample = amoeba_sample(u23.realization, 1e3, 500, seed=42)
    devs = support_deviations(sample, fan)
    assert len(devs) == 500
    assert max(devs) < 0.15


def test_amoeba_median_shrinks_with_base():
    u23 = corpus("u23")
    fan = bergman_fan(FlatLattice(u23.matroid))
    s1 = amoeba_sample(u23.realization, 1e3, 200, seed=7)
    s2 = amoeba_sample(u23.realization, 1e6, 200, seed=7)
    m1 = statistics.median(support_deviations(s1, fan))
    m2 = statistics.median(support_deviations(s2, fan))
    assert m2 <= m1


def test_amoeba_unit_torus_point_deviation_zero():
    u23 = corpus("u23")
    fan = bergman_fan(FlatLattice(u23.matroid))
    sample = AmoebaSample(base=1e3, points=((0.0, 0.0, 0.0),))
    assert max(support_deviations(sample, fan)) == 0.0


def test_amoeba_deterministic_for_seed():
    u23 = corpus("u23")
    a = amoeba_sample(u23.realization, 1e3, 50, seed=5)
    b = amoeba_sample(u23.realization, 1e3, 50, seed=5)
    assert a == b


def test_amoeba_requires_loop_free():
    m, real = from_matrix([[1, 0, 0], [0, 0, 1]])
    with pytest.raises(LoopsPresent):
        amoeba_sample(real, 1e3, 10, seed=0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"),
                               1, 1.0, 0.5, -3, "1000", None, True,
                               pytest.param(10**400, id="10**400"),
                               pytest.param(Fraction(10**400, 3),
                                            id="10**400/3")])
def test_amoeba_sample_refuses_a_bad_base(t):
    with pytest.raises(ParameterOutOfRange):
        amoeba_sample(corpus("u23").realization, t, 10, seed=0)


@pytest.mark.parametrize("count", [0, -1, 2.0, "5", None, True, False])
def test_amoeba_sample_refuses_a_bad_count(count):
    with pytest.raises(ParameterOutOfRange):
        amoeba_sample(corpus("u23").realization, 1e3, count, seed=0)


def test_amoeba_sample_takes_a_rational_base_as_its_float():
    real = corpus("delA3").realization
    sample = amoeba_sample(real, Fraction(3, 2), 40, seed=2)
    assert sample == amoeba_sample(real, 1.5, 40, seed=2)
    assert type(sample.base) is float


def _sample_or_error(sampler, real, t, count, seed):
    try:
        return sampler(real, t, count, seed=seed)
    except SingularSample as error:
        return type(error), str(error)


def _tiny_column(eps):
    """A realization of U(2,4) whose fourth column is (eps, 0): a draw is
    rejected when its first coefficient has modulus <= 1e-12 / eps, which
    for eps = 1/10**12 is 1 - exp(-1/2), about 39 %, of the draws."""
    return from_matrix([[1, 0, 1, eps], [0, 1, 1, 0]])[1]


@pytest.mark.parametrize("name", ["u23", "u24", "delA3", "braidK4",
                                  "braidK5", "boolean_3", "boolean_4",
                                  "uniform_3_6", "uniform_2_5"])
def test_amoeba_sample_equals_the_per_point_oracle(name):
    real = corpus(name).realization
    for t in (1.5, 50, 1e3):
        for seed in range(4):
            assert (amoeba_sample(real, t, 150, seed=seed)
                    == amoeba_oracle.amoeba_sample(real, t, 150, seed=seed))


@pytest.mark.parametrize("eps", [Fraction(1, 10**12), Fraction(3, 10**13),
                                 Fraction(1, 10**20)])
def test_amoeba_sample_rejects_and_gives_up_like_the_oracle(eps):
    real = _tiny_column(eps)
    for seed in range(6):
        assert (_sample_or_error(amoeba_sample, real, 1e3, 120, seed)
                == _sample_or_error(amoeba_oracle.amoeba_sample, real, 1e3,
                                    120, seed))


@pytest.mark.parametrize("retries", [1, 2, 3])
def test_a_small_retry_budget_ends_where_the_oracle_ends(retries, monkeypatch):
    # with room for only a few draws per point, some seeds give up and some
    # do not, so a budget off by one in either sampler shows
    monkeypatch.setattr(bergman, "_MAX_RETRIES", retries)
    monkeypatch.setattr(amoeba_oracle, "_MAX_RETRIES", retries)
    real = _tiny_column(Fraction(1, 10**12))
    outcomes = [_sample_or_error(amoeba_oracle.amoeba_sample, real, 1e3, 4,
                                 seed) for seed in range(30)]
    assert {type(o) for o in outcomes} == {AmoebaSample, tuple}
    assert outcomes == [_sample_or_error(amoeba_sample, real, 1e3, 4, seed)
                        for seed in range(30)]


def test_amoeba_sample_gives_up_after_the_retry_budget():
    with pytest.raises(SingularSample,
                       match="too many draws hit the hyperplane union"):
        amoeba_sample(_tiny_column(Fraction(1, 10**20)), 1e3, 5, seed=0)


@pytest.mark.parametrize("real", [corpus("delA3").realization,
                                  _tiny_column(Fraction(1, 10**12))],
                         ids=["delA3", "tiny column"])
def test_a_smaller_amoeba_sample_is_a_prefix(real):
    full = amoeba_sample(real, 1e3, 300, seed=3).points
    for count in (1, 2, 57, 299):
        assert amoeba_sample(real, 1e3, count, seed=3).points == full[:count]


def _block_sum(r1, r2):
    """The realization of the direct sum, by the block-diagonal matrix."""
    rows = ([list(row) + [0] * r2.ncols for row in r1.matrix]
            + [[0] * r1.ncols + list(row) for row in r2.matrix])
    return from_matrix(rows)[1]


# the corpus, plus disconnected inputs whose cones have dependent rays
_AMOEBA_INPUTS = {
    **{name: (lambda name=name: corpus(name).realization)
       for name in ("u23", "u24", "delA3", "braidK4", "braidK5",
                    "uniform_3_6", "boolean_3", "boolean_4")},
    "U23+U11": lambda: _block_sum(corpus("u23").realization,
                                  corpus("boolean_1").realization),
    "U23+U23": lambda: _block_sum(corpus("u23").realization,
                                  corpus("u23").realization),
}


def _assert_within_float_error(sample, got, want):
    for p, x, y in zip(sample.points, got, want, strict=True):
        assert abs(x - y) <= 1e-12 * (1 + math.hypot(*p))


@pytest.mark.parametrize("name", list(_AMOEBA_INPUTS))
def test_support_deviations_equal_the_per_cone_nnls_oracle(name):
    real = _AMOEBA_INPUTS[name]()
    fan = bergman_fan(FlatLattice(real.matroid))
    for t in (1.5, 1e3, 1e6):
        for seed in range(3):
            sample = amoeba_sample(real, t, 60, seed=seed)
            _assert_within_float_error(
                sample, support_deviations(sample, fan),
                amoeba_oracle.support_deviations(sample, fan))


@pytest.mark.parametrize("name", ["u23", "delA3", "braidK4", "boolean_3",
                                  "U23+U11"])
@pytest.mark.parametrize("t", [1.5, 1e3])
def test_support_deviations_match_the_exact_rational_distance(name, t):
    real = _AMOEBA_INPUTS[name]()
    fan = bergman_fan(FlatLattice(real.matroid))
    sample = amoeba_sample(real, t, 20, seed=0)
    exact = amoeba_oracle.exact_support_deviations(sample, fan)
    _assert_within_float_error(sample, support_deviations(sample, fan), exact)
    _assert_within_float_error(
        sample, amoeba_oracle.support_deviations(sample, fan), exact)


def test_the_amoeba_subcommand_does_not_import_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bergman.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys; from mfk.cli import main; "
            "status = main(['amoeba', '--corpus', 'delA3', '--count', '5']); "
            "print(status, 'scipy' in sys.modules, file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "0 False"


@pytest.mark.parametrize("name", ["u23", "delA3", "braidK4", "boolean_4"])
def test_zero_point_where_every_cone_ties_is_exactly_zero(name):
    fan = bergman_fan(FlatLattice(corpus(name).matroid))
    sample = AmoebaSample(base=1e3, points=((0.0,) * fan.n,))
    assert support_deviations(sample, fan) == [0.0]
    assert amoeba_oracle.support_deviations(sample, fan) == [0.0]


def test_support_deviations_of_an_empty_sample():
    fan = bergman_fan(FlatLattice(corpus("u23").matroid))
    assert support_deviations(AmoebaSample(base=1e3, points=()), fan) == []


_CONNECTED = {
    **{f"U{d},{n}": (lambda d=d, n=n: uniform(d, n))
       for n in range(1, 7) for d in range(1, n + 1) if d < n or n == 1},
    **{name: (lambda name=name: corpus(name).matroid)
       for name in ("u23", "u24", "delA3", "braidK4", "braidK5")},
    "K5 graph": lambda: from_graph(5, list(combinations(range(1, 6), 2))),
}


def _sum(*parts):
    m = parts[0]
    for part in parts[1:]:
        m = direct_sum(m, part)
    return m


# U1,2 is a parallel pair; the matrix adds a parallel pair to a U2,3
_PIECES = {"U11": lambda: uniform(1, 1), "U12": lambda: uniform(1, 2),
           "U22": lambda: uniform(2, 2), "U23": lambda: uniform(2, 3),
           "U24": lambda: uniform(2, 4),
           "U23 with a parallel pair": lambda: from_matrix(
               [[1, 0, 1, 2], [0, 1, 1, 0]])[0]}
# direct sums up to n = 7: the LP oracle takes about 1 s at n = 8
_DISCONNECTED = {
    **{f"boolean_{k}": (lambda k=k: corpus(f"boolean_{k}").matroid)
       for k in range(2, 6)},
    **{"+".join(names): (lambda names=names: _sum(*(_PIECES[p]()
                                                   for p in names)))
       for size in (2, 3)
       for names in combinations_with_replacement(_PIECES, size)
       if sum(_PIECES[p]().n for p in names) <= 7},
    "U23+U11": lambda: direct_sum(uniform(2, 3), uniform(1, 1)),
}


def _assert_lp_rays(m):
    """The LP greedy over every flag ray of a group is the oracle of the
    flacet rule, lifted by the other components on a direct sum."""
    fan = bergman_fan(FlatLattice(m))
    for cone, group in zip(fan.cones, fan.groups):
        assert _rays_of(fan, cone) == irredundant_rays(
            [_flat_vector(m.n, flat) for i in group
             for flat in fan.fine_chains[i]])


@pytest.mark.parametrize("name", [*_CONNECTED, *_DISCONNECTED])
def test_flacet_rays_match_the_lp_rays(name):
    m = {**_CONNECTED, **_DISCONNECTED}[name]()
    assert m.is_connected() == (name in _CONNECTED)
    _assert_lp_rays(m)


_rational_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(2, 7).flatmap(
        lambda cols: st.lists(
            st.lists(st.fractions(-2, 2, max_denominator=3),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


@settings(max_examples=60, deadline=None)
@given(_rational_matrices)
def test_flacet_rays_match_the_lp_rays_on_matrices(rows):
    m, _ = from_matrix(rows)
    assume(not m.loops())
    _assert_lp_rays(m)


_integer_blocks = st.integers(1, 3).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.lists(st.integers(-2, 2), min_size=cols,
                                       max_size=cols),
                              min_size=rows, max_size=rows)))


@settings(max_examples=40, deadline=None)
@given(st.lists(_integer_blocks, min_size=2, max_size=3))
def test_flacet_rays_match_the_lp_rays_on_block_sums(blocks):
    # the block-diagonal matrix realizes the direct sum of the blocks
    width = sum(len(b[0]) for b in blocks)
    assume(width <= 7)
    rows, left = [], 0
    for block in blocks:
        cols = len(block[0])
        rows += [[0] * left + row + [0] * (width - left - cols)
                 for row in block]
        left += cols
    m, _ = from_matrix(rows)
    assume(not m.loops())
    _assert_lp_rays(m)


@pytest.mark.parametrize("name", [*_CONNECTED, "boolean_3", "boolean_4",
                                  "U23+U11"])
def test_connected_bergman_fan_solves_no_lp(name, monkeypatch):
    # connected or not, the rays are read off the flacets
    m = {**_CONNECTED, **_DISCONNECTED}[name]()
    lattice = FlatLattice(m)

    def no_lp(*args, **kwargs):
        raise AssertionError("bergman_fan called the LP")

    originals = (linalg.lp_feasible, geometry.cone_contains,
                 geometry.irredundant_rays)
    for key, module in list(sys.modules.items()):
        if key == "mfk" or key.startswith("mfk."):
            for attr, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, attr, no_lp)
    bergman_fan(lattice)


@pytest.mark.parametrize("name, rays", [
    ("boolean_3", [(0, 1, 1), (1, 0, 1), (1, 1, 0)]),
    ("U23+U11", [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1),
                 (1, 1, 1, 0)]),
])
def test_disconnected_rays_regression_pin(name, rays):
    # Regression pin, not a theorem: a disconnected matroid's coarse cones
    # hold the span of the component indicators, and these are the
    # generators the LP greedy keeps, recorded to hold the artifact bytes.
    m = (corpus(name).matroid if name == "boolean_3"
         else direct_sum(uniform(2, 3), uniform(1, 1)))
    assert not m.is_connected()
    assert bergman_fan(FlatLattice(m)).rays == tuple(rays)


@pytest.mark.parametrize("name", list(_CONNECTED))
def test_coarse_rays_are_the_flacets_of_the_flags(name):
    # on a connected matroid each coarse cone is spanned by the flacets
    # (flats F with M|F and M/F connected) among its group's flags
    m = _CONNECTED[name]()
    assert m.is_connected()
    lattice = FlatLattice(m)
    fan = bergman_fan(lattice)
    flacets = {f.flat for f in facets(m) if f.kind == "interior"}
    for cone, group in zip(fan.cones, fan.groups):
        expected = {_flat_vector(m.n, flat) for i in group
                    for flat in fan.fine_chains[i]
                    if from_mask(flat) in flacets}
        assert _rays_of(fan, cone) == tuple(sorted(expected))


_FLAGGED = {
    **_CONNECTED,
    "boolean_3": lambda: corpus("boolean_3").matroid,
    "U23+U11": lambda: direct_sum(uniform(2, 3), uniform(1, 1)),
    "U12+U24": lambda: direct_sum(uniform(1, 2), uniform(2, 4)),
    "parallel pairs": lambda: from_matrix([[1, 2, 0, 0, 1],
                                           [0, 0, 1, 3, 1]])[0],
    "U3,7": lambda: uniform(3, 7),
}


@pytest.mark.parametrize("name", list(_FLAGGED))
def test_flag_groups_are_the_heaviest_bases(name, monkeypatch):
    # the groups are built from the flags' transversals; the heaviest
    # bases under the sum of each flag's indicators are the oracle
    m = _FLAGGED[name]()
    monkeypatch.setattr(bergman, "heaviest_bases", None)
    fan = bergman_fan(FlatLattice(m))
    monkeypatch.undo()
    seen = set()
    for members, bases in zip(fan.groups, fan.group_bases):
        masks = set(bases)
        assert frozenset(masks) not in seen
        seen.add(frozenset(masks))
        for i in members:
            w = [sum(e in flat for flat in map(from_mask, fan.fine_chains[i]))
                 for e in range(1, m.n + 1)]
            assert heaviest_bases(m, w) == masks
    assert sorted(i for members in fan.groups for i in members) == \
        list(range(len(fan.fine_chains)))
