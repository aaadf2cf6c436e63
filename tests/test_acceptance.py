"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import random
import statistics
import time
from math import comb, factorial

from mfk.bergman import (amoeba_sample, bergman_fan, bergman_membership,
                         support_deviations)
from mfk.complexes import reduced_homology_ranks
from mfk.corpus import corpus
from mfk.geometry import face_lattice, smith_normal_form, \
    quotient_coordinates
from mfk.lattice import FlatLattice, irreducible_flats, moebius, order_complex
from mfk.matroid import uniform
from mfk.nested import (compare_fans, fans_equal_condition, max_building,
                        maximal_nested_sets, min_building, nested_fan,
                        refines)
from mfk.polytope import facets, polytope
from mfk.reciprocal import minimal_generator_count, reciprocal_generators
from theorem_checks import check_prop_grob, dual_reflection_check


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_dela3_f_vector():
    entry = corpus("delA3")
    start = time.perf_counter()
    hull = polytope(entry.matroid)
    f_vector = face_lattice(hull).f_vector
    elapsed = time.perf_counter() - start
    ok = f_vector[:4] == (8, 18, 17, 7) and elapsed < 1.0
    _report(1, ok,
            f"delA3 f-vector {f_vector[:4]} in {elapsed:.2f}s (< 1s)")


def test_criterion_02_dela3_facet_classification():
    entry = corpus("delA3")
    described = facets(entry.matroid)
    interior = sorted(sorted(f.flat) for f in described
                      if f.kind == "interior")
    boundary = [f for f in described if f.kind == "boundary"]
    ok = (interior == [[1, 2, 4], [1, 3, 5], [2], [3], [4], [5]]
          and len(boundary) == 1
          and sorted(map(sorted, boundary[0].vertex_bases)) ==
          [[2, 3, 4], [2, 3, 5], [2, 4, 5], [3, 4, 5]])
    _report(2, ok, f"interior flats {interior}, "
                   f"{len(boundary)} boundary facet(s)")


def test_criterion_03_u24_bergman_rays():
    matroid = uniform(2, 4)
    fan = bergman_fan(FlatLattice(matroid))
    rays = fan.rays
    # The proper nonempty flats of U_{2,4} are the four singletons, so the
    # coarse rays are the flat indicators e_1, ..., e_4; the classes
    # (0,1,1,1), ... are -e_i and lie outside the support.
    stated = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    outside = [r for r in stated if not bergman_membership(matroid, r)]
    ok = (not outside and len(rays) == 4
          and rays == tuple(sorted(stated)))
    _report(3, ok,
            f"coarse rays {list(rays)} versus stated {sorted(stated)}; "
            f"stated rays outside the support (chain of -w not all flats, "
            f"wrong orientation): {outside}")


def test_criterion_04_dela3_gmin_and_extra_ray():
    entry = corpus("delA3")
    lattice = FlatLattice(entry.matroid)
    gmin = irreducible_flats(lattice)
    gmin_ok = sorted(map(sorted, gmin)) == [
        [1], [1, 2, 3, 4, 5], [1, 2, 4], [1, 3, 5], [2], [3], [4], [5]]
    nfan = nested_fan(min_building(lattice))
    bfan = bergman_fan(lattice)
    extra = set(nfan.rays) - set(bfan.rays)
    rays_ok = (len(nfan.rays) == len(bfan.rays) + 1
               and extra == {(1, 0, 0, 0, 0)}
               and set(bfan.rays) <= set(nfan.rays))
    _report(4, gmin_ok and rays_ok,
            f"G_min as stated: {gmin_ok}; nested fan adds exactly the ray "
            f"for flat {{1}}: {rays_ok}")


def test_criterion_05_comparison_corpus():
    start = time.perf_counter()
    cases = []
    for n in range(1, 7):
        for d in range(1, n + 1):
            cases.append((f"U_{d},{n}", uniform(d, n), True, None))
    cases.append(("braidK4", corpus("braidK4").matroid, True, None))
    cases.append(("delA3", corpus("delA3").matroid, False,
                  (frozenset({1}), frozenset({1, 2, 3, 4, 5}))))
    ok = True
    detail = []
    for name, matroid, expected, expected_witness in cases:
        lattice = FlatLattice(matroid)
        report = fans_equal_condition(lattice)
        nfan = nested_fan(min_building(lattice))
        bfan = bergman_fan(lattice)
        cmp = compare_fans(nfan, bfan)
        case_ok = (report.holds == expected == cmp.equal)
        if expected_witness is not None:
            case_ok = case_ok and report.witness == expected_witness
        if not case_ok:
            detail.append(name)
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(5, ok,
            f"{len(cases)} cases, verdict always matches mutual refinement"
            f"{' except ' + ','.join(detail) if detail else ''}; "
            f"{elapsed:.1f}s (< 30s)")


def test_criterion_06_refinement_and_supports():
    names = ["u23", "u24", "delA3", "braidK4", "boolean_3", "boolean_4",
             "uniform_2_5", "uniform_3_5", "uniform_2_6", "uniform_3_6"]
    ok = True
    failing = []
    for name in names:
        matroid = corpus(name).matroid
        lattice = FlatLattice(matroid)
        nfan = nested_fan(min_building(lattice))
        bfan = bergman_fan(lattice)
        if not refines(nfan, bfan):
            ok = False
            failing.append(name + ":refines")
            continue
        grid = itertools.product(range(-2, 3), repeat=matroid.n)
        if not all(nfan.contains(w) == bergman_membership(matroid, w)
                   for w in grid):
            ok = False
            failing.append(name + ":support")
    _report(6, ok,
            f"nested fan sits inside coarse Bergman cones and supports agree "
            f"on {{-2..2}}^n for {', '.join(names)}"
            f"{'; failing: ' + ','.join(failing) if failing else ''}")


def test_criterion_07_unimodularity():
    ok = True
    checked = 0
    for name in ["u24", "delA3", "braidK4", "uniform_3_5", "boolean_3"]:
        matroid = corpus(name).matroid
        lattice = FlatLattice(matroid)
        buildings = [min_building(lattice), max_building(lattice)]
        for building in buildings:
            fan = nested_fan(building)
            for cone in fan.cones:
                factors = smith_normal_form(
                    [quotient_coordinates(fan.rays[i]) for i in cone])
                checked += 1
                if any(f != 1 for f in factors):
                    ok = False
    _report(7, ok, f"Smith invariant factors all 1 across {checked} cones")


def test_criterion_08_initial_degenerations():
    start = time.perf_counter()
    u24 = corpus("u24")
    ok = all(check_prop_grob(u24.realization, u)
             for u in itertools.product(range(-3, 4), repeat=4))
    dela3 = corpus("delA3")
    rng = random.Random(314159)
    ok = ok and all(
        check_prop_grob(dela3.realization,
                        [rng.randint(-3, 3) for _ in range(5)])
        for _ in range(500))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(8, ok,
            f"degeneration matroid equals initial-subspace matroid on "
            f"7^4 exhaustive + 500 sampled weights; {elapsed:.1f}s (< 60s)")


def test_criterion_09_moebius_and_topology():
    results = {}
    for name, expected_mu in [("u24", 3), ("delA3", 4)]:
        matroid = corpus(name).matroid
        lattice = FlatLattice(matroid)
        mu = moebius(lattice).mu_top
        complex_ = order_complex(lattice, set(), matroid.ground)
        betti, _ = reduced_homology_ranks(complex_)
        d = matroid.rank_d
        wedge_ok = (betti[d - 2] == mu
                    and all(b == 0 for i, b in enumerate(betti) if i != d - 2))
        results[name] = (mu, expected_mu, betti, wedge_ok)
    ok = all(mu == exp and wedge for mu, exp, _, wedge in results.values())
    _report(9, ok, "; ".join(
        f"{name}: mu={mu} (expected {exp}), betti={betti}"
        for name, (mu, exp, betti, _) in results.items()))


def test_criterion_10_reciprocal_generators():
    gens = reciprocal_generators(corpus("uniform_2_5").realization)
    count = minimal_generator_count(gens, 2)
    ok = len(gens) == 10 and count == comb(4, 2)
    _report(10, ok, f"U_2,5: {len(gens)} circuit quadrics, "
                    f"minimal count {count} = C(4,2)")


def test_criterion_11_boolean_nested_counts():
    counts = {}
    for n in (3, 4):
        lattice = FlatLattice(uniform(n, n))
        counts[n] = len(maximal_nested_sets(max_building(lattice)))
    ok = all(counts[n] == factorial(n) for n in counts)
    _report(11, ok, f"maximal nested sets for the full building set: "
                    f"{counts} versus factorials")


def test_criterion_12_dual_reflection():
    names = ["u23", "u24", "delA3", "braidK4", "braidK5",
             "boolean_4", "uniform_2_5", "uniform_3_6"]
    failing = [name for name in names
               if not dual_reflection_check(corpus(name).matroid)]
    _report(12, not failing,
            f"vertexwise dual reflection on {', '.join(names)}"
            f"{'; failing: ' + ','.join(failing) if failing else ''}")


def test_criterion_13_amoeba_convergence():
    start = time.perf_counter()
    u23 = corpus("u23")
    fan = bergman_fan(FlatLattice(u23.matroid))
    sample_lo = amoeba_sample(u23.realization, 1e3, 500, seed=42)
    devs_lo = support_deviations(sample_lo, fan)
    sample_hi = amoeba_sample(u23.realization, 1e6, 500, seed=42)
    devs_hi = support_deviations(sample_hi, fan)
    elapsed = time.perf_counter() - start
    max_lo = max(devs_lo)
    median_ok = statistics.median(devs_hi) <= statistics.median(devs_lo)
    ok = max_lo <= 0.15 and median_ok and elapsed < 5.0
    _report(13, ok,
            f"max deviation {max_lo:.3f} (<= 0.15) at t=1e3; median "
            f"{statistics.median(devs_hi):.4f} at t=1e6 <= "
            f"{statistics.median(devs_lo):.4f} at t=1e3; "
            f"{elapsed:.1f}s (< 5s)")
