"""Acceptance suite: thirteen exact criteria covering the whole pipeline.

Each test prints one line on success so that ``pytest -s tests/test_acceptance.py``
reads as a checklist.  Every assertion is exact integer equality; the only
property-style criteria (12 and 13) assert emptiness of a counterexample
search and identities over randomized regions.
"""

from __future__ import annotations

import random

from lefschetz_lab import (
    Monomial,
    MonomialIdeal,
    bad_primes,
    biadjacency,
    build_region,
    classify_type2,
    conjecture_scan,
    determinant,
    enumerate_tilings,
    factorize,
    hilbert_function,
    is_tileable,
    lattice_path_matrix,
    lpsgn,
    macmahon,
    monomials_of_degree,
    msgn,
    parse_ideal,
    peak_shortcut,
    permanent,
    puncture_analysis,
    rank_q,
    socle_profile,
    split_binom_det,
    SplitBinomParams,
    two_mahonian_enumeration,
    type2_char0_verdict,
    type2_poschar_bound,
    type_one_odd_minor,
    type_one_verdict,
    wlp_full_scan,
)
from lefschetz_lab.ideals import ALL_PERMUTATIONS
from lefschetz_lab.wlp import enumerate_type2_forms
from _oracles import multiplication_matrix, plane_partition_oracle, random_artinian_ideal
from _paper import (
    is_empty,
    maximal_minors,
    monomial_subregion,
    restricted_maximal_minors,
    split_binom_matrix,
    type_one_odd_minor_simplified,
)


def _passed(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_hilbert_socle_regression():
    level = parse_ideal("x^4,y^4,z^4,x^2z^2")
    assert tuple(hilbert_function(level)) == (1, 3, 6, 10, 11, 9, 6, 2)
    sp = socle_profile(level)
    assert sp.type_ == 2 and sp.is_level and sp.socle_degree == 7
    nonlevel = parse_ideal("x^3,y^7,z^7,xy^2,xz^2")
    assert tuple(hilbert_function(nonlevel)) == (1, 3, 6, 7, 6, 6, 7, 6, 5, 4, 3, 2, 1)
    _passed(1, "Hilbert functions and socle data reproduce exactly")


def test_criterion_02_worked_example_minors_and_verdict():
    ideal = parse_ideal("x^4,y^4,z^4,x^2z^2")
    t5 = build_region(ideal, 5)
    dets5 = [abs(determinant(biadjacency(u))) for u in maximal_minors(t5)]
    assert len(dets5) == 11 and set(dets5) == {0, 4, 8}
    restricted5 = [abs(determinant(biadjacency(u))) for u in restricted_maximal_minors(t5)]
    assert restricted5 == [4, 4]
    t6 = build_region(ideal, 6)
    dets6 = [abs(determinant(biadjacency(u))) for u in maximal_minors(t6)]
    assert len(dets6) == 55 and set(dets6) <= {0, 1, 2, 3, 5, 8}
    restricted6 = [abs(determinant(biadjacency(u))) for u in restricted_maximal_minors(t6)]
    assert restricted6 == [1]
    scan = wlp_full_scan(ideal, primes=(2, 3, 5, 7))
    assert scan.holds_char0
    assert not scan.holds_mod(2)
    assert all(scan.holds_mod(p) for p in (3, 5, 7))
    assert bad_primes(ideal) == (2,)
    _passed(2, "11/55 maximal minors, 2/1 restricted minors, WLP iff p != 2, bad primes {2}")


def test_criterion_03_thirteen_tilings_region():
    region = build_region(parse_ideal("x^7,y^7,z^6,x*y^4*z^2,x^3*y*z^2,x^4*y*z"), 8)
    tilings = list(enumerate_tilings(region))
    z = biadjacency(region)
    n, _ = lattice_path_matrix(region)
    assert len(tilings) == permanent(z) == 13
    sum_m = sum(msgn(region, t) for t in tilings)
    sum_l = sum(lpsgn(region, t) for t in tilings)
    assert abs(sum_m) == abs(determinant(z)) == abs(determinant(n)) == abs(sum_l)
    _passed(3, "13 tilings; signed sums meet both determinants")


def test_criterion_04_10080_witness():
    ideal = parse_ideal("x^8,y^8,z^8,x^3*y^5,x^3*z^6")
    shortcut = peak_shortcut(ideal)
    assert shortcut is not None and shortcut.degrees[0] == 10
    region = build_region(ideal, 10)
    values = []
    for minor in maximal_minors(region):
        n, _ = lattice_path_matrix(minor)
        values.append(abs(determinant(n)))
    assert 10080 in values
    assert factorize(10080) == {2: 5, 3: 2, 5: 1, 7: 1}
    _passed(4, "some maximal minor of the decisive region enumerates to 10080 = 2^5 3^2 5 7")


def test_criterion_05_macmahon_oracle():
    for a in range(5):
        for b in range(5):
            for c in range(5):
                assert macmahon(a, b, c) == plane_partition_oracle(a, b, c)
    assert all(macmahon(0, b, c) == 1 for b in range(5) for c in range(5))
    _passed(5, "box formula equals the direct plane-partition count on the 5^3 grid")


def test_criterion_06_hexagon_sweep():
    cases = 0
    for a in range(1, 7):
        for b in range(1, 7):
            for c in range(1, 7):
                if (a + b + c) % 2 or a > b + c or b > a + c or c > a + b:
                    continue
                d = (a + b + c) // 2
                region = build_region(
                    MonomialIdeal((Monomial(a, 0, 0), Monomial(0, b, 0), Monomial(0, 0, c))), d
                )
                z = biadjacency(region)
                n, _ = lattice_path_matrix(region)
                value = macmahon(d - a, d - b, d - c)
                assert permanent(z) == abs(determinant(z)) == abs(determinant(n)) == value
                assert all(p <= d - 1 for p in factorize(value)) or value == 1
                cases += 1
    assert cases >= 50
    _passed(6, f"hexagon enumerations match the box formula on {cases} cases")


def test_criterion_07_split_binomial_sweep():
    cases = 0
    for p in range(7):
        for q in range(7):
            for r in range(7):
                if p < q + r:
                    continue
                for n in range(1, 7):
                    for m in range(1, n + 1):
                        params = SplitBinomParams(p, q, r, m, n)
                        assert split_binom_det(params) == determinant(split_binom_matrix(params))
                        cases += 1
    _passed(7, f"block-binomial closed form equals the direct determinant on {cases} cases")


def test_criterion_08_four_puncture_sweep_and_erratum():
    cases = 0
    for a in range(2, 8):
        for b in range(2, 8):
            for c in range(1, 8):
                for alpha in range(1, a):
                    for beta in range(1, b):
                        total = a + b + c + alpha + beta
                        if total % 3:
                            continue
                        d = total // 3
                        if d > 7 or max(a, b, c, alpha + beta) > d:
                            continue
                        if d > min(a + beta, alpha + b, a + c, b + c):
                            continue
                        ideal = MonomialIdeal(
                            (
                                Monomial(a, 0, 0),
                                Monomial(0, b, 0),
                                Monomial(0, 0, c),
                                Monomial(alpha, beta, 0),
                            )
                        )
                        n, _ = lattice_path_matrix(build_region(ideal, d))
                        value = two_mahonian_enumeration(a, b, c, alpha, beta, d)
                        assert value == abs(determinant(n))
                        assert all(p <= d - 1 for p in factorize(value)) or value == 1
                        cases += 1
    assert cases >= 100
    # the documented erratum candidate: at (3,3,3,1) the published simplified
    # display gives 1 while the unsimplified product and brute force give 3
    assert two_mahonian_enumeration(3, 3, 3, 1, 2, 4) == 3
    region = build_region(parse_ideal("x^3,y^3,z^3,xy^2"), 4)
    assert sum(1 for _ in enumerate_tilings(region)) == 3
    assert type_one_odd_minor(3, 3, 3, 1) == 3
    assert type_one_odd_minor_simplified(3, 3, 3, 1) == 1
    _passed(8, f"four-puncture closed form verified on {cases} cases; erratum candidate documented")


def test_criterion_09_complete_intersection_equivalence():
    primes = (2, 3, 5, 7, 11, 13)
    for a in range(1, 7):
        for b in range(1, 7):
            for c in range(1, 7):
                ideal = MonomialIdeal((Monomial(a, 0, 0), Monomial(0, b, 0), Monomial(0, 0, c)))
                scan = wlp_full_scan(ideal, primes)
                assert type_one_verdict(a, b, c, 0).holds == scan.holds_char0
                d = (a + b + c) // 2
                for p in primes:
                    fast = type_one_verdict(a, b, c, p).holds
                    assert fast == scan.holds_mod(p)
                    if p >= d:
                        assert fast
    _passed(9, "closed-form verdicts equal full scans on the 6^3 x {0,2,...,13} grid")


def test_criterion_10_type_two_equivalence():
    examples = {
        "x^4, y^4, z^4, x^3y, x^3z": (5,),
        "x^3, y^7, z^7, xy^2, xz^2": (5, 6),
        "x^2, y^4, z^4, xy, xz": (3,),
    }
    for text, degrees in examples.items():
        ideal = parse_ideal(text)
        holds, failing = type2_char0_verdict(ideal)
        assert not holds and tuple(failing) == degrees
    count = 0
    for base in (form.normalized_ideal for form in enumerate_type2_forms(5)):
        for sigma in ALL_PERMUTATIONS:
            ideal = base.permuted(sigma)
            holds, failing = type2_char0_verdict(ideal)
            scan = wlp_full_scan(ideal)
            assert holds == scan.holds_char0
            assert tuple(failing) == scan.failing_degrees[0]
            count += 1
    _passed(10, f"type-2 verdicts equal full scans on {count} ideals (all permutations)")


def test_criterion_11_level_type_two_holds():
    count = 0
    for base in (form.normalized_ideal for form in enumerate_type2_forms(5)):
        for sigma in ALL_PERMUTATIONS:
            ideal = base.permuted(sigma)
            form = classify_type2(ideal)
            if not form.is_level:
                continue
            holds, _ = type2_char0_verdict(ideal)
            assert holds
            count += 1
    _passed(11, f"every one of the {count} level type-2 ideals in the grid has the property")


def test_criterion_12_positive_characteristic_bounds():
    checked = 0
    for base in (form.normalized_ideal for form in enumerate_type2_forms(5)):
        for sigma in ALL_PERMUTATIONS:
            ideal = base.permuted(sigma)
            holds, _ = type2_char0_verdict(ideal)
            if not holds:
                continue
            bound = type2_poschar_bound(ideal)
            assert all(p < bound.bound for p in bad_primes(ideal))
            checked += 1
    assert conjecture_scan(max_exponent=4, prime_cap=13) == []
    _passed(12, f"bad primes sit below the claimed bounds on {checked} ideals; no conjecture counterexample")


def test_criterion_13_structural_invariants():
    rng = random.Random(1302)
    counts = {"interp": 0, "detzn": 0, "kernel": 0, "samesign": 0, "tileable": 0}
    attempts = 0
    while min(counts.values()) < 100 and attempts < 20000:
        attempts += 1
        ideal = random_artinian_ideal(rng, 6)
        d = rng.randint(2, 8)
        region = build_region(ideal, d)
        z = biadjacency(region)
        if counts["interp"] < 100:
            assert multiplication_matrix(ideal, d).transpose() == z
            counts["interp"] += 1
        if counts["kernel"] < 100:
            n, pts = lattice_path_matrix(region)
            h = hilbert_function(ideal, d)
            assert len(pts.a_points) - rank_q(n) == h[d - 1] - rank_q(z)
            counts["kernel"] += 1
        balanced = len(region.up) == len(region.down)
        if balanced and counts["detzn"] < 100:
            n, _ = lattice_path_matrix(region)
            assert abs(determinant(z)) == abs(determinant(n))
            counts["detzn"] += 1
        if balanced and not is_empty(region) and counts["tileable"] < 100:
            heavy_free = all(
                len(sub.down) <= len(sub.up)
                for j in range(d)
                for m in monomials_of_degree(j)
                if not is_empty(sub := monomial_subregion(region, m))
            )
            assert is_tileable(region).tileable == heavy_free
            counts["tileable"] += 1
        if balanced and len(region.up) <= 20 and counts["samesign"] < 100:
            punctures = puncture_analysis(ideal, d)
            if all(p.side_length % 2 == 0 for p in punctures if p.floating):
                per = permanent(z)
                if is_tileable(region).tileable:
                    assert per == abs(determinant(z))
                    if 0 < per <= 300:
                        signs = {msgn(region, t) for t in enumerate_tilings(region)}
                        assert len(signs) == 1
                counts["samesign"] += 1
    assert min(counts.values()) >= 100, counts
    _passed(13, f"structural identities hold on randomized regions: {counts}")
