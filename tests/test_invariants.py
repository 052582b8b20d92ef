"""Cross-module structural identities on randomized regions.

These are the load-bearing equalities of the whole construction: the
bi-adjacency matrix is the multiplication map, both region matrices have equal
determinant magnitude, path-lattice data measures the cokernel, sign constancy
follows from even floating punctures, and tileability is a balance condition
on monomial subregions.  Everything is exact integer arithmetic, zero
tolerance.
"""

from __future__ import annotations

import random

from lefschetz_lab import (
    balance,
    biadjacency,
    build_region,
    determinant,
    enumerate_tilings,
    hilbert_function,
    is_tileable,
    lattice_path_matrix,
    lattice_points,
    monomials_of_degree,
    msgn,
    parse_ideal,
    permanent,
    puncture_analysis,
    rank_q,
    signed_enumeration,
)
from _oracles import multiplication_matrix, random_artinian_ideal
from _paper import is_empty, maximal_minors, monomial_subregion, restricted_maximal_minors, split_portions, without


def _sample(seed: int, count: int, predicate=None, max_power: int = 6):
    """Deterministic stream of (ideal, d) pairs with d <= 8."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 200 * count, "sampling predicate too restrictive"
        ideal = random_artinian_ideal(rng, max_power)
        d = rng.randint(2, 8)
        region = build_region(ideal, d)
        if predicate is not None and not predicate(ideal, d, region):
            continue
        out.append((ideal, d, region))
    return out


def test_biadjacency_transposes_the_multiplication_map():
    for ideal, d, region in _sample(100, 120):
        z = biadjacency(region)
        m = multiplication_matrix(ideal, d)
        assert m.transpose() == z


def test_up_down_counts_match_hilbert():
    for ideal, d, region in _sample(101, 120):
        h = hilbert_function(ideal, d)
        assert len(region.up) == h[d - 1]
        assert len(region.down) == h[d - 2]


def test_det_z_equals_det_n_on_balanced_regions():
    balanced = _sample(102, 110, lambda i, d, r: len(r.up) == len(r.down))
    for _, _, region in balanced:
        z = determinant(biadjacency(region))
        n, _ = lattice_path_matrix(region)
        assert abs(z) == abs(determinant(n))


def test_lattice_kernel_identity():
    # start-vertex count minus lattice rank equals the cokernel dimension of
    # the multiplication map, in every degree and for every shape
    for ideal, d, region in _sample(103, 120):
        z = biadjacency(region)
        n, pts = lattice_path_matrix(region)
        h = hilbert_function(ideal, d)
        assert len(pts.a_points) - rank_q(n) == h[d - 1] - rank_q(z)


def test_even_floating_punctures_force_constant_sign():
    def even_floating(ideal, d, region):
        if len(region.up) != len(region.down) or len(region.up) > 24:
            return False
        ps = puncture_analysis(ideal, d)
        return all(p.side_length % 2 == 0 for p in ps if p.floating)

    checked_constancy = 0
    for ideal, d, region in _sample(104, 110, even_floating):
        z = biadjacency(region)
        per = permanent(z)
        det = determinant(z)
        if is_tileable(region).tileable:
            assert per == abs(det)
        if 0 < per <= 400:
            signs = {msgn(region, t) for t in enumerate_tilings(region)}
            assert len(signs) == 1
            checked_constancy += 1
    assert checked_constancy >= 10


def test_tileability_is_no_down_heavy_monomial_subregion():
    def balanced(ideal, d, region):
        return len(region.up) == len(region.down) and not is_empty(region)

    for ideal, d, region in _sample(105, 110, balanced):
        heavy_free = all(
            len(sub.down) <= len(sub.up)
            for j in range(d)
            for m in monomials_of_degree(j)
            if not is_empty(sub := monomial_subregion(region, m))
        )
        assert is_tileable(region).tileable == heavy_free


def test_signed_enumeration_consistency_randomized():
    def small_balanced(ideal, d, region):
        return len(region.up) == len(region.down) and len(region.up) <= 16

    for _, _, region in _sample(106, 40, small_balanced, max_power=4):
        signed_enumeration(region)  # raises on any internal inconsistency


def test_restricted_minor_rank_decides_up_heavy_regions():
    def up_heavy(ideal, d, region):
        stats = balance(region)
        return stats.kind == "up-heavy" and stats.excess <= 2 and stats.n_up <= 18

    for _, _, region in _sample(107, 40, up_heavy, max_power=5):
        required = len(region.down)
        full = rank_q(biadjacency(region)) == required
        via_restricted = any(
            rank_q(biadjacency(u)) == required for u in restricted_maximal_minors(region)
        )
        assert full == via_restricted


def test_replacing_a_balanced_subregion_factors_the_determinant():
    # removing a balanced monomial subregion splits the matrix into blocks
    cases = [
        ("x^4,y^4,z^4,x^2y^2,x^2z^2", 5, (2, 0, 0)),
        ("x^4, y^3, z^3, x^2y, x^2z", 4, (2, 0, 0)),
        ("x^5,y^4,z^5,x^2y^2", 6, (0, 2, 0)),
    ]
    from lefschetz_lab import Monomial

    for text, d, exps in cases:
        region = build_region(parse_ideal(text), d)
        sub = monomial_subregion(region, Monomial(*exps))
        assert len(sub.up) == len(sub.down) and not is_empty(sub)
        rest = without(region, ups=sub.up, downs=sub.down)
        det_whole = abs(determinant(biadjacency(region)))
        det_sub = abs(determinant(biadjacency(sub)))
        det_rest = abs(determinant(biadjacency(rest)))
        assert det_whole == det_sub * det_rest


def test_removing_a_tileable_subregion_preserves_tileability():
    cases = [
        ("x^4,y^4,z^4,x^2y^2,x^2z^2", 5, (2, 0, 0)),
        ("x^7,y^7,z^6,x*y^4*z^2,x^3*y*z^2,x^4*y*z", 8, (1, 2, 1)),
    ]
    from lefschetz_lab import Monomial

    for text, d, exps in cases:
        region = build_region(parse_ideal(text), d)
        sub = monomial_subregion(region, Monomial(*exps))
        if not is_tileable(sub).tileable:
            continue
        rest = without(region, ups=sub.up, downs=sub.down)
        assert is_tileable(region).tileable == is_tileable(rest).tileable


def test_type_two_failure_is_the_opposed_heaviness_configuration():
    # for five-generator normal forms, the characteristic-zero failure at d is
    # exactly: upper portion down-heavy and lower portion up-heavy
    from lefschetz_lab import classify_type2, socle_profile, type2_condition_range
    from lefschetz_lab.wlp import enumerate_type2_forms

    for ideal in (f.normalized_ideal for f in enumerate_type2_forms(4)):
        form = classify_type2(ideal)
        if form.form != 2:
            continue
        failing = set(type2_condition_range(form))
        normalized = form.normalized_ideal
        top = socle_profile(normalized).socle_degree + 2
        for d in range(2, top + 1):
            region = build_region(normalized, d)
            upper, lower = split_portions(region, form.alpha)
            opposed = len(upper.down) > len(upper.up) and len(lower.up) > len(lower.down)
            assert opposed == (d in failing)


def test_maximal_minor_count_is_binomial():
    import math

    for text, d in [("x^4,y^4,z^4,x^2z^2", 5), ("x^4,y^4,z^4,x^2z^2", 6), ("x^3,y^3,z^3", 4)]:
        region = build_region(parse_ideal(text), d)
        stats = balance(region)
        heavy = max(stats.n_up, stats.n_down)
        expected = math.comb(heavy, stats.excess) if stats.excess else 1
        assert sum(1 for _ in maximal_minors(region)) == expected


def test_restricted_minors_subset_of_maximal():
    for _, _, region in _sample(108, 30, lambda i, d, r: balance(r).excess in (1, 2)):
        if balance(region).kind == "up-heavy":
            pts_count = len(lattice_points(region).a_points)
        else:
            pts_count = len(lattice_points(region).e_points)
        restricted = list(restricted_maximal_minors(region))
        import math

        assert len(restricted) == math.comb(pts_count, balance(region).excess)
        full = list(maximal_minors(region))
        for u in restricted:
            assert u in full
