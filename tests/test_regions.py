from __future__ import annotations

import random

import pytest

from lefschetz_lab import (
    Monomial,
    MonomialIdeal,
    balance,
    biadjacency,
    build_region,
    determinant,
    is_tileable,
    parse_ideal,
    permanent,
    puncture_analysis,
)
from lefschetz_lab.regions import TriangularRegion, punctures_overlap, punctures_touch
from _paper import (
    divided_by,
    is_empty,
    maximal_minors,
    merge_touching_punctures,
    monomial_subregion,
    region_ideal,
    restricted_maximal_minors,
    split_portions,
    without,
)

FIG3 = "x^7,y^7,z^6,x*y^4*z^2,x^3*y*z^2,x^4*y*z"
EXA = "x^4,y^4,z^4,x^2z^2"


def test_build_region_counts():
    full = build_region(MonomialIdeal(()), 4)
    assert (len(full.up), len(full.down)) == (10, 6)
    t5 = build_region(parse_ideal(EXA), 5)
    assert (len(t5.up), len(t5.down)) == (11, 10)
    hexagon = build_region(parse_ideal("x^2,y^2,z^2"), 3)
    assert (len(hexagon.up), len(hexagon.down)) == (3, 3)


def test_region_labels_are_sorted_ascending():
    region = build_region(parse_ideal(EXA), 5)
    keys = [m.revlex_key() for m in region.up]
    assert keys == sorted(keys)


def test_balance_kinds():
    assert balance(build_region(parse_ideal(EXA), 5)).kind == "up-heavy"
    assert balance(build_region(parse_ideal(EXA), 5)).excess == 1
    assert balance(build_region(parse_ideal("x^2,y^3,z^3"), 4)).kind == "balanced"
    empty = build_region(parse_ideal("x,y,z"), 5)
    assert balance(empty) == balance(empty.__class__(5, (), ()))
    assert balance(empty).kind == "balanced" and balance(empty).excess == 0


def test_half_sum_regions_are_balanced():
    # degree (a+b+c)/2 regions of complete intersections balance even when
    # the triangle inequality fails and the punctures overlap
    for (a, b, c) in [(2, 2, 2), (8, 2, 2), (3, 5, 4), (2, 7, 3)]:
        d = (a + b + c) // 2
        assert balance(build_region(parse_ideal(f"x^{a},y^{b},z^{c}"), d)).kind == "balanced"


def test_maximal_minor_stream_order_is_stable():
    region = build_region(parse_ideal(EXA), 5)
    first_pass = list(maximal_minors(region))
    second_pass = list(maximal_minors(region))
    assert first_pass == second_pass
    # the first minor deletes the revlex-least upward label
    assert first_pass[0] == without(region, ups=(region.up[0],))


def test_balance_matches_hilbert_difference():
    from lefschetz_lab import hilbert_function

    for text in (EXA, FIG3, "x^3,y^4,z^5,x*y*z"):
        ideal = parse_ideal(text)
        h = hilbert_function(ideal)
        for d in range(1, 9):
            stats = balance(build_region(ideal, d))
            assert stats.n_up - stats.n_down == h[d - 1] - h[d - 2]


def test_monomial_subregion():
    region = build_region(parse_ideal(FIG3), 8)
    assert monomial_subregion(region, Monomial(0, 0, 0)) == region
    sub = monomial_subregion(region, Monomial(1, 2, 1))
    assert all(Monomial(1, 2, 1).divides(u) for u in sub.up)
    assert all(Monomial(1, 2, 1).divides(n) for n in sub.down)
    gen_sub = monomial_subregion(region, Monomial(4, 1, 1))  # a generator of the ideal
    assert is_empty(gen_sub)


def test_puncture_analysis_figure_three():
    ps = puncture_analysis(parse_ideal(FIG3), 8)
    by_gen = {p.generator: p for p in ps}
    corner_sides = sorted(p.side_length for p in ps if not p.floating)
    floating_sides = sorted(p.side_length for p in ps if p.floating)
    assert corner_sides == [1, 1, 2]
    assert floating_sides == [1, 2, 2]
    p1 = by_gen[Monomial(3, 1, 2)]
    p2 = by_gen[Monomial(4, 1, 1)]
    assert p1.overlap_partners == (Monomial(4, 1, 1),)
    assert p2.overlap_partners == (Monomial(3, 1, 2),)


def test_corner_punctures_are_non_floating():
    ps = puncture_analysis(parse_ideal("x^3,y^4,z^5"), 9)
    assert len(ps) == 3
    assert all(not p.floating for p in ps)


def test_overlap_touch_criterion_two_generator_family():
    # punctures of x^(a+al) y^b z^c and x^a y^(b+be) z^(c+ga) meet iff the
    # lcm degree a+al+b+be+c+ga stays at most d
    for d in range(4, 10):
        for (a, al, b, be, c, ga) in [(1, 2, 1, 1, 0, 2), (0, 3, 1, 2, 1, 1), (2, 1, 2, 2, 0, 1)]:
            g1 = Monomial(a + al, b, c)
            g2 = Monomial(a, b + be, c + ga)
            meets = punctures_overlap(g1, g2, d) or punctures_touch(g1, g2, d)
            assert meets == (a + al + b + be + c + ga <= d)


def test_floating_closure_is_order_independent():
    # recompute the non-floating set by closing in shuffled orders
    ideal = parse_ideal(FIG3)
    expected = {p.generator: p.floating for p in puncture_analysis(ideal, 8)}
    gens = [g for g in ideal.gens if g.degree <= 7]
    rng = random.Random(0)
    for _ in range(20):
        rng.shuffle(gens)
        non_floating = {g for g in gens if min(g) == 0}
        changed = True
        while changed:
            changed = False
            for g in gens:
                if g in non_floating:
                    continue
                for h in gens:
                    if h == g or h not in non_floating:
                        continue
                    if g.lcm(h).degree <= 8:
                        non_floating.add(g)
                        changed = True
                        break
        assert {g: g not in non_floating for g in gens} == expected


def test_tileable_examples():
    assert is_tileable(build_region(parse_ideal(FIG3), 8)).tileable
    heavy = build_region(parse_ideal(EXA), 6)  # down-heavy
    res = is_tileable(heavy)
    assert not res.tileable and res.violator.orientation == "down"
    balanced_untileable = build_region(parse_ideal("x^2,y^4,z^4,xy,xz"), 3)
    res = is_tileable(balanced_untileable)
    assert balance(balanced_untileable).kind == "balanced"
    assert not res.tileable


def test_tileable_witness_and_violator_are_valid():
    from lefschetz_lab.ideals import VARIABLES

    for text, d in [(FIG3, 8), (EXA, 6), ("x^2,y^4,z^4,xy,xz", 3), ("x^3,y^3,z^3", 4)]:
        region = build_region(parse_ideal(text), d)
        res = is_tileable(region)
        if res.tileable:
            covered_downs = [down for down, _ in res.tiling.pairs]
            covered_ups = sorted((up for _, up in res.tiling.pairs), key=Monomial.revlex_key)
            assert tuple(covered_downs) == region.down
            assert tuple(covered_ups) == region.up
        else:
            s = set(res.violator.labels)
            if res.violator.orientation == "down":
                neighborhood = {v * n for n in s for v in VARIABLES} & region.up_set
            else:
                neighborhood = {
                    n for n in region.down for v in VARIABLES if v * n in s
                }
            assert len(neighborhood) < len(s)


def test_maximal_minor_streams():
    t5 = build_region(parse_ideal(EXA), 5)
    minors5 = list(maximal_minors(t5))
    assert len(minors5) == 11
    t6 = build_region(parse_ideal(EXA), 6)
    assert sum(1 for _ in maximal_minors(t6)) == 55
    hexagon = build_region(parse_ideal("x^2,y^2,z^2"), 3)
    assert list(maximal_minors(hexagon)) == [hexagon]


def test_restricted_minors_worked_example():
    t5 = build_region(parse_ideal(EXA), 5)
    restricted = list(restricted_maximal_minors(t5))
    assert len(restricted) == 2
    assert [abs(determinant(biadjacency(u))) for u in restricted] == [4, 4]
    t6 = build_region(parse_ideal(EXA), 6)
    restricted6 = list(restricted_maximal_minors(t6))
    assert len(restricted6) == 1
    assert abs(determinant(biadjacency(restricted6[0]))) == 1


def test_restricted_minors_are_maximal_minors():
    for text, d in [(EXA, 5), (EXA, 6), ("x^3,y^3,z^3", 4)]:
        region = build_region(parse_ideal(text), d)
        all_minors = list(maximal_minors(region))
        for u in restricted_maximal_minors(region):
            assert u in all_minors


def test_up_deletion_minors_are_regions_of_ideals():
    t5 = build_region(parse_ideal(EXA), 5)
    for u in restricted_maximal_minors(t5):
        assert build_region(region_ideal(u), 5) == u


def test_split_portions_type_two_shape():
    ideal = parse_ideal("x^8,y^8,z^8,x^3*y^5,x^3*z^6")
    region = build_region(ideal, 10)
    upper, lower = split_portions(region, 3)
    assert divided_by(upper, Monomial(3, 0, 0)) == build_region(parse_ideal("x^5,y^5,z^6"), 7)
    assert lower == build_region(parse_ideal("x^3,y^8,z^8"), 10)
    # degenerate cut: everything below
    upper2, lower2 = split_portions(region, 10)
    assert is_empty(upper2) and lower2 == region


def test_split_portions_form_one():
    ideal = parse_ideal("x^6,y^6,z^6,x^2*y^3")
    region = build_region(ideal, 7)
    upper, _ = split_portions(region, 2)
    assert divided_by(upper, Monomial(2, 0, 0)) == build_region(parse_ideal("x^4,y^3,z^6"), 5)


def test_merge_touching_punctures():
    ideal = parse_ideal(FIG3)
    merged = merge_touching_punctures(ideal, 8)
    assert Monomial(3, 1, 1) in merged.gens  # gcd of the two overlapping punctures
    assert len(merged.gens) < len(ideal.gens)
    before = build_region(ideal, 8)
    after = build_region(merged, 8)
    assert abs(determinant(biadjacency(before))) == abs(determinant(biadjacency(after)))
    assert permanent(biadjacency(before)) == permanent(biadjacency(after))


def test_merge_cascades_and_preserves_enumerations():
    # overlapping pair y^2z^2, yz^3: their gcd yz^2 then chains with z^5, so
    # the merge cascades down to a pure power; both enumerations survive
    ideal = parse_ideal("x^5,y^5,z^5,y^2z^2,yz^3")
    merged = merge_touching_punctures(ideal, 6)
    assert merged == parse_ideal("x^5,y^5,z^2")
    z0, z1 = (biadjacency(build_region(i, 6)) for i in (ideal, merged))
    assert abs(determinant(z0)) == abs(determinant(z1)) == 5
    assert permanent(z0) == permanent(z1) == 5


def test_merge_punctures_touching_at_a_single_vertex():
    ideal = parse_ideal("x^4,y^4,z^4,y^2z^2,yz^3")  # lcm(y^2z^2, yz^3) has degree 5 = d
    merged = merge_touching_punctures(ideal, 5)
    assert merged == parse_ideal("x^4,y^4,z^2")
    z0, z1 = (biadjacency(build_region(i, 5)) for i in (ideal, merged))
    assert abs(determinant(z0)) == abs(determinant(z1)) == 4
    assert permanent(z0) == permanent(z1) == 4


def test_merge_leaves_separated_punctures_alone():
    ideal = parse_ideal("x^5,y^5,z^5,x*y*z^2")
    assert merge_touching_punctures(ideal, 6) == ideal


def test_region_constructor_rejects_bad_degrees():
    with pytest.raises(ValueError):
        TriangularRegion(3, (Monomial(1, 0, 0),), ())
