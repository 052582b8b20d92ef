from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lefschetz_lab import (
    IntMatrix,
    binom,
    build_region,
    biadjacency,
    determinant,
    determinantal_divisor,
    factorize,
    lattice_path_matrix,
    lattice_points,
    macmahon,
    parse_ideal,
    permanent,
    rank_mod_p,
    rank_q,
    smith_invariant_factors,
)
from lefschetz_lab.intlinalg import MILLER_RABIN_EXACT_BELOW, _strong_lucas, is_probable_prime
from _oracles import (
    all_minors_divisor,
    cofactor_determinant,
    fraction_rank,
    permutation_permanent,
)


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(0, 0) == 1


def test_matrix_shapes_survive():
    empty_rows = IntMatrix([], cols=2)
    assert (empty_rows.rows, empty_rows.cols) == (0, 2)
    assert (empty_rows.transpose().rows, empty_rows.transpose().cols) == (2, 0)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_matrix_entries_are_never_rounded():
    # truncating the entries would store [[1, 0], [0, 2]] and report determinant 2
    for bad in ([[1.5, 0], [0, 2.7]], [[Fraction(7, 2)]]):
        with pytest.raises(TypeError):
            IntMatrix(bad)
    m = IntMatrix([[True, False], [0, 3]])
    assert m.entries == ((1, 0), (0, 3))
    assert all(type(e) is int for row in m.entries for e in row)


def test_determinant_basics():
    assert determinant(IntMatrix.identity(5)) == 1
    assert determinant(IntMatrix([], cols=0)) == 1  # empty product
    hexagon = biadjacency(build_region(parse_ideal("x^2,y^2,z^2"), 3))
    assert abs(determinant(hexagon)) == 2
    with pytest.raises(ValueError):
        determinant(IntMatrix([[1, 2]]))


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(5)
    for n in range(7):
        for _ in range(25):
            a = rand_matrix(rng, n, n)
            assert determinant(a) == cofactor_determinant(a)


def test_permanent_small_cases():
    assert permanent(IntMatrix([[1]])) == 1
    assert permanent(IntMatrix([], cols=0)) == 1
    hexagon = biadjacency(build_region(parse_ideal("x^2,y^2,z^2"), 3))
    assert permanent(hexagon) == 2


def test_permanent_matches_permutation_oracle():
    rng = random.Random(6)
    for n in range(1, 7):
        for _ in range(10):
            zo = rand_matrix(rng, n, n, lo=0, hi=1)
            assert permanent(zo) == permutation_permanent(zo)


def test_permanent_figure_three_region():
    ideal = parse_ideal("x^7,y^7,z^6,x*y^4*z^2,x^3*y*z^2,x^4*y*z")
    z = biadjacency(build_region(ideal, 8))
    assert z.rows == z.cols == 25
    assert permanent(z) == 13


def test_permanent_counts_a_large_hexagon_without_enumerating():
    # Mac(6,6,6) has about 1.5 * 10^12 tilings: only a matching count that
    # never visits them one by one can finish here
    z = biadjacency(build_region(parse_ideal("x^12,y^12,z^12"), 18))
    assert permanent(z) == macmahon(6, 6, 6)


def test_permanent_rejects_entries_other_than_zero_and_one():
    for bad in ([[2]], [[1, 0], [-1, 1]], [[2] * 25 for _ in range(25)]):
        with pytest.raises(ValueError, match="0/1"):
            permanent(IntMatrix(bad))


def test_ranks_match_fraction_oracle():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        a = rand_matrix(rng, rows, cols, lo=-3, hi=3)
        assert rank_q(a) == fraction_rank(a)


def test_rank_on_rank_deficient_products():
    rng = random.Random(8)
    for _ in range(20):
        # products of thin matrices are genuinely rank-deficient
        left = rand_matrix(rng, 6, 2)
        right = rand_matrix(rng, 2, 6)
        prod = IntMatrix(
            [
                [sum(left.entries[i][k] * right.entries[k][j] for k in range(2)) for j in range(6)]
                for i in range(6)
            ]
        )
        assert rank_q(prod) == fraction_rank(prod) <= 2


def test_rank_mod_p():
    ident = IntMatrix.identity(4)
    for p in (2, 3, 5, 2**31 - 1, 2**61 - 1):
        assert rank_mod_p(ident, p) == 4
    assert rank_mod_p(IntMatrix([[2, 0], [0, 3]]), 3) == 1
    with pytest.raises(ValueError):
        rank_mod_p(ident, 6)


def test_rank_mod_vs_rank_q_on_example():
    z5 = biadjacency(build_region(parse_ideal("x^4,y^4,z^4,x^2z^2"), 5))
    assert rank_q(z5) == 10
    assert rank_mod_p(z5, 2) <= 9


def test_rank_mod_agrees_away_from_the_leading_divisor():
    rng = random.Random(31)
    for _ in range(20):
        a = IntMatrix([[rng.randint(0, 1) for _ in range(5)] for _ in range(5)])
        r = rank_q(a)
        divisor = determinantal_divisor(a, r)
        for p in (2, 3, 5, 7, 11, 13):
            if divisor % p:
                assert rank_mod_p(a, p) == r


def test_determinantal_divisors_match_all_minors_oracle():
    rng = random.Random(9)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, rows, cols, lo=-3, hi=3)
        for r in range(min(rows, cols) + 1):
            assert determinantal_divisor(a, r) == all_minors_divisor(a, r)


def test_determinantal_divisor_examples():
    assert determinantal_divisor(IntMatrix.identity(4), 4) == 1
    z5 = biadjacency(build_region(parse_ideal("x^4,y^4,z^4,x^2z^2"), 5))
    assert determinantal_divisor(z5, 10) == 4
    with pytest.raises(ValueError):
        determinantal_divisor(z5, 11)


def test_smith_factors_divide_in_sequence():
    rng = random.Random(10)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        factors = smith_invariant_factors(a)
        for s, t in zip(factors, factors[1:]):
            assert t % s == 0


def test_factorize():
    assert factorize(10080) == {2: 5, 3: 2, 5: 1, 7: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_box_count():
    from _oracles import plane_partition_oracle

    assert factorize(plane_partition_oracle(2, 2, 2)) == {2: 2, 5: 1}


# -- region matrices -----------------------------------------------------------


def test_biadjacency_examples():
    from lefschetz_lab import MonomialIdeal

    t2 = build_region(MonomialIdeal(()), 2)  # zero ideal: the full triangle
    z = biadjacency(t2)
    assert (z.rows, z.cols) == (1, 3)
    assert z.entries == ((1, 1, 1),)
    empty = build_region(parse_ideal("x, y, z"), 3)
    ze = biadjacency(empty)
    assert (ze.rows, ze.cols) == (0, 0)
    assert determinant(ze) == 1


def test_biadjacency_line_sums_at_most_three():
    region = build_region(parse_ideal("x^5,y^5,z^5,x^2y^2"), 5)
    z = biadjacency(region)
    for row in z.entries:
        assert sum(row) <= 3
    for col in zip(*z.entries):
        assert sum(col) <= 3


def test_lattice_path_matrix_worked_example():
    ideal = parse_ideal("x^4,y^4,z^4,x^2z^2")
    n5, pts5 = lattice_path_matrix(build_region(ideal, 5))
    assert (n5.rows, n5.cols) == (2, 1)
    assert n5.entries == ((4,), (4,))
    n6, pts6 = lattice_path_matrix(build_region(ideal, 6))
    assert (n6.rows, n6.cols) == (0, 2)
    assert len(pts6.e_points) == 2


def test_lattice_entry_is_single_binomial():
    # a start at x^s z^(d-1-s) and an end at x^p z^(d-1-p-e) y^e are joined by
    # C(e, s-p) paths
    ideal = parse_ideal("x^4, y^3, z^4, x*y^2")
    region = build_region(ideal, 5)
    matrix, pts = lattice_path_matrix(region)
    for i, (a_label, _) in enumerate(pts.a_points):
        assert a_label.ey == 0
        s = a_label.ex
        for j, (e_label, _) in enumerate(pts.e_points):
            e = e_label.ey
            p = e_label.ex
            assert matrix.entries[i][j] == binom(e, s - p)


def test_a_and_e_vertex_count_difference_is_balance():
    for text, d in [("x^4,y^4,z^4,x^2z^2", 5), ("x^3,y^3,z^3", 4), ("x^2,y^5,z^5,xy", 4)]:
        region = build_region(parse_ideal(text), d)
        pts = lattice_points(region)
        assert len(pts.a_points) - len(pts.e_points) == len(region.up) - len(region.down)


PSI_13 = 3_317_044_064_679_887_385_961_981  # 1,287,836,182,261 * 2,575,672,364,521


def test_probable_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(1, 10**5) if is_probable_prime(n) != (factorize(n) == {n: 1})] == []


def test_probable_prime_rejects_strong_pseudoprimes_to_the_first_13_bases():
    assert 1_287_836_182_261 * 2_575_672_364_521 == PSI_13 == MILLER_RABIN_EXACT_BELOW
    assert not is_probable_prime(PSI_13)
    assert not is_probable_prime(1_000_000_000_039 * 1_000_000_000_061)  # two 13-digit primes
    assert is_probable_prime(2**89 - 1) and is_probable_prime(2**127 - 1)
    assert not is_probable_prime(2**89 + 1) and not is_probable_prime((2**89 - 1) ** 2)


def test_strong_lucas_pseudoprimes_are_the_known_ones():
    # OEIS A217255: the odd composites that pass the strong Lucas test with Selfridge's parameters
    passing = [n for n in range(43, 60000, 2) if _strong_lucas(n) and factorize(n) != {n: 1}]
    assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]
    assert all(_strong_lucas(p) for p in range(43, 60000, 2) if factorize(p) == {p: 1})
