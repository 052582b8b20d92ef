from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz_lab import (
    ExactnessError,
    HypothesisError,
    SplitBinomParams,
    biadjacency,
    build_region,
    determinant,
    hyperfactorial,
    lattice_path_matrix,
    macmahon,
    parse_ideal,
    permanent,
    split_binom_det,
    two_mahonian_enumeration,
    type_one_odd_minor,
)
from lefschetz_lab.formulas import MAX_HYPERFACTORIAL_ARGUMENT, hyperfactorial_quotient, mac_terms
from _oracles import plane_partition_oracle, split_binom_det_product, two_mahonian_product
from _paper import ci_enumeration, ci_nest_enumeration, split_binom_matrix, type_one_odd_minor_simplified


def test_hyperfactorial_values():
    assert [hyperfactorial(n) for n in range(6)] == [1, 1, 1, 2, 12, 288]


def test_macmahon_values():
    assert macmahon(0, 5, 7) == 1
    assert macmahon(1, 1, 1) == 2
    assert macmahon(2, 2, 2) == 20
    assert macmahon(3, 3, 3) == 980


def test_macmahon_is_the_hyperfactorial_quotient():
    h = hyperfactorial
    for a, b, c in itertools.product(range(13), repeat=3):
        quotient = h(a) * h(b) * h(c) * h(a + b + c) // (h(a + b) * h(a + c) * h(b + c))
        assert macmahon(a, b, c) == quotient, (a, b, c)
    # one long side and a small value: the product runs over the shortest side
    assert macmahon(20000, 1, 1) == macmahon(1, 1, 20000) == 20001
    assert macmahon(2, 100000, 1) == math.comb(100002, 2)  # Mac(a, b, 1) = C(a + b, a)


def test_plane_partition_oracle_values():
    assert plane_partition_oracle(1, 1, 5) == 6
    assert plane_partition_oracle(2, 2, 2) == 20
    assert plane_partition_oracle(0, 3, 3) == 1
    with pytest.raises(ValueError):
        plane_partition_oracle(5, 5, 2)


def test_macmahon_against_oracle_figure_hexagon():
    # the 2 x 6 x 3 box behind the illustrated hexagon tiling
    assert macmahon(2, 6, 3) == plane_partition_oracle(2, 6, 3) == 2520


def test_split_binom_det_r0_collapses_to_one_box():
    for p in range(6):
        for q in range(p + 1):
            for n in range(1, 5):
                for m in range(1, n + 1):
                    value = split_binom_det(SplitBinomParams(p, q, 0, m, n))
                    assert value == macmahon(n, p - q, q)


def test_split_binom_det_r1_against_direct_determinant():
    for p in range(1, 6):
        for q in range(p):
            params = SplitBinomParams(p, q, 1, 2, 4)
            assert split_binom_det(params) == determinant(split_binom_matrix(params))


def test_split_binom_det_small_sweep():
    for p in range(5):
        for q in range(5):
            for r in range(5):
                if p < q + r:
                    continue
                for n in range(1, 5):
                    for m in range(1, n + 1):
                        params = SplitBinomParams(p, q, r, m, n)
                        assert split_binom_det(params) == determinant(split_binom_matrix(params))


@settings(max_examples=300, deadline=None)
@given(num=st.lists(st.integers(0, 30), max_size=6), den=st.lists(st.integers(0, 30), max_size=6))
def test_hyperfactorial_quotient_is_the_exact_quotient(num, den):
    value = Fraction(math.prod(map(hyperfactorial, num)), math.prod(map(hyperfactorial, den)))
    if value.denominator == 1:
        assert hyperfactorial_quotient(num, den) == value
    else:
        with pytest.raises(ExactnessError):
            hyperfactorial_quotient(num, den)


def test_hyperfactorial_quotient_refuses_before_it_allocates():
    assert hyperfactorial_quotient(*mac_terms(3, 3, 3)) == macmahon(3, 3, 3) == 980
    assert hyperfactorial_quotient([MAX_HYPERFACTORIAL_ARGUMENT], [MAX_HYPERFACTORIAL_ARGUMENT]) == 1
    with pytest.raises(ValueError, match="MAX_HYPERFACTORIAL_ARGUMENT"):
        hyperfactorial_quotient([10**18], [10**18])
    with pytest.raises(ValueError, match="negative"):
        hyperfactorial_quotient([3], [-1])


def test_split_binom_and_two_mahonian_match_their_product_formulas():
    found = 0
    for p, q, r in itertools.product(range(9), repeat=3):
        if q + r <= p:
            for n in range(1, 7):
                for m in range(1, n + 1):
                    params = SplitBinomParams(p, q, r, m, n)
                    assert split_binom_det(params) == split_binom_det_product(params), params
                    found += 1
    for a, b, c in itertools.product(range(2, 10), repeat=3):
        for alpha, beta in itertools.product(range(1, a), range(1, b)):
            d, rest = divmod(a + b + c + alpha + beta, 3)
            if rest == 0 and max(a, b, c, alpha + beta) <= d <= min(a + beta, alpha + b, a + c, b + c):
                args = (a, b, c, alpha, beta, d)
                assert two_mahonian_enumeration(*args) == two_mahonian_product(*args), args
                found += 1
    assert found > 2000


def test_split_binom_rejects_bad_parameters():
    with pytest.raises(HypothesisError):
        SplitBinomParams(3, 1, 1, 0, 4)
    with pytest.raises(HypothesisError):
        split_binom_det(SplitBinomParams(1, 1, 1, 1, 2))  # p < q + r


def test_ci_enumeration():
    assert ci_enumeration(2, 2, 2) == 2
    assert ci_enumeration(4, 2, 2) == 1  # degenerate hexagon, one side 0
    with pytest.raises(HypothesisError):
        ci_enumeration(3, 3, 3)  # odd sum
    with pytest.raises(HypothesisError):
        ci_enumeration(6, 2, 2)  # triangle inequality


def test_ci_enumeration_matches_region_quantities():
    for (a, b, c) in [(2, 2, 2), (2, 3, 3), (4, 4, 4), (3, 4, 5)]:
        d = (a + b + c) // 2
        z = biadjacency(build_region(parse_ideal(f"x^{a},y^{b},z^{c}"), d))
        value = ci_enumeration(a, b, c)
        assert abs(determinant(z)) == value
        assert permanent(z) == value


def test_ci_nest_enumeration():
    # hexagon with its x-corner puncture replaced by a smaller hexagon
    value = ci_nest_enumeration(2, 4, 4, 2, 2, 2)
    assert value == macmahon(3, 1, 1) * macmahon(1, 1, 1) == 8
    ideal = parse_ideal("x^4, y^4, z^4, x^2y^2, x^2z^2")
    z = biadjacency(build_region(ideal, 5))
    assert value == abs(determinant(z)) == permanent(z)
    # inner hexagon degenerate on one side: the outer count alone survives
    degenerate = ci_nest_enumeration(2, 3, 3, 2, 1, 1)
    inner = macmahon(0, 1, 1)
    assert inner == 1 and degenerate == macmahon(2, 1, 1)
    z2 = biadjacency(build_region(parse_ideal("x^4, y^3, z^3, x^2y, x^2z"), 4))
    assert degenerate == abs(determinant(z2)) == permanent(z2) == 3
    with pytest.raises(HypothesisError):
        ci_nest_enumeration(2, 3, 3, 1, 1, 1)


def test_two_mahonian_examples():
    assert two_mahonian_enumeration(3, 3, 3, 1, 2, 4) == 3
    assert two_mahonian_enumeration(3, 3, 3, 2, 1, 4) == 3
    with pytest.raises(HypothesisError):
        two_mahonian_enumeration(3, 3, 3, 1, 1, 4)  # d not (a+b+c+alpha+beta)/3
    with pytest.raises(HypothesisError):
        two_mahonian_enumeration(3, 3, 6, 1, 2, 5)  # window violated: c > d


def test_two_mahonian_against_lattice_matrix():
    found = 0
    for a in range(2, 7):
        for b in range(2, 7):
            for c in range(1, 7):
                for alpha in range(1, a):
                    for beta in range(1, b):
                        total = a + b + c + alpha + beta
                        if total % 3:
                            continue
                        d = total // 3
                        if d > 6:
                            continue
                        if max(a, b, c, alpha + beta) > d or d > min(a + beta, alpha + b, a + c, b + c):
                            continue
                        ideal = parse_ideal(f"x^{a},y^{b},z^{c},x^{alpha}y^{beta}")
                        n, _ = lattice_path_matrix(build_region(ideal, d))
                        assert two_mahonian_enumeration(a, b, c, alpha, beta, d) == abs(determinant(n))
                        found += 1
    assert found > 20


def test_type_one_odd_minor_values():
    assert type_one_odd_minor(3, 3, 3, 1) == 3
    assert type_one_odd_minor(3, 3, 3, 2) == 3
    assert type_one_odd_minor(2, 2, 3, 1) == 1
    with pytest.raises(HypothesisError):
        type_one_odd_minor(3, 3, 3, 0)
    with pytest.raises(HypothesisError):
        type_one_odd_minor(2, 2, 2, 1)


def test_type_one_odd_minor_matches_regions():
    from lefschetz_lab import Monomial, MonomialIdeal

    for (a, b, c) in [(3, 3, 3), (2, 3, 2), (3, 4, 4), (5, 3, 3), (4, 5, 4)]:
        d = (a + b + c - 1) // 2
        if d < max(a, b, c):
            continue
        for i in range(d - b, a):
            gens = (
                Monomial(a, 0, 0),
                Monomial(0, b, 0),
                Monomial(0, 0, c),
                Monomial(i, d - 1 - i, 0),
            )
            region = build_region(MonomialIdeal(gens), d)
            assert type_one_odd_minor(a, b, c, i) == abs(determinant(biadjacency(region)))


def test_simplified_display_disagrees_at_3_3_3():
    # the published simplification loses a factor: the unsimplified product and
    # a direct matching count both give 3, the display gives 1
    assert type_one_odd_minor(3, 3, 3, 1) == 3
    assert type_one_odd_minor_simplified(3, 3, 3, 1) == Fraction(1)


def test_all_closed_forms_are_positive():
    assert ci_enumeration(4, 4, 4) > 0
    for (a, b, c, al, be, d) in [(3, 3, 3, 1, 2, 4), (4, 4, 4, 1, 2, 5)]:
        assert two_mahonian_enumeration(a, b, c, al, be, d) > 0
