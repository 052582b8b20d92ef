"""Property tests: the exact kernels of ``intlinalg`` against brute-force
oracles on random small integer matrices and on the regions of random
ideals."""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz_lab import (
    IntMatrix,
    build_region,
    determinantal_divisor,
    matching_counts,
    parse_ideal,
    permanent,
    rank_mod_p,
    region_invariant_factors,
    smith_invariant_factors,
)
from lefschetz_lab import intlinalg
from lefschetz_lab.wlp import _scan_range
from _oracles import (
    all_minors_divisor,
    cofactor_determinant,
    fraction_rank,
    multiplication_matrix,
    permutation_permanent,
    plain_rank_mod,
    random_artinian_ideal,
)

# small, word-size-boundary, and far-above-int64 primes
PRIMES = (2, 3, 2**31 - 1, 2147483659, 2**61 - 1)


@st.composite
def int_matrices(draw) -> IntMatrix:
    """Up to 5 x 5 with 0/1, small or moderate entries, some rows and
    columns forced to zero."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    bound = draw(st.sampled_from((1, 3, 20)))
    lo = 0 if bound == 1 else -bound
    entries = draw(
        st.lists(
            st.lists(st.integers(lo, bound), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2)) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else set()
    return IntMatrix(
        [
            [0 if i in zero_rows or j in zero_cols else e for j, e in enumerate(row)]
            for i, row in enumerate(entries)
        ],
        cols=cols,
    )


@st.composite
def matrices_mod_p(draw) -> tuple[IntMatrix, int]:
    """A matrix with up to two extra rows that are random combinations of
    the others mod p, so elimination must cancel residues of p's size."""
    p = draw(st.sampled_from(PRIMES))
    a = draw(int_matrices())
    rows = [list(r) for r in a.entries]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(a.cols)])
    return IntMatrix(rows, cols=a.cols), p


@st.composite
def zero_one_square_matrices(draw) -> IntMatrix:
    """Square 0/1 matrices up to 7 x 7: random, dense (ones with a few
    holes) or a permutation matrix plus a few ones, with up to one row and
    one column forced to zero."""
    n = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("random", "dense", "permutation")))
    cells = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    if kind == "random":
        entries = draw(
            st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n)
        )
    elif kind == "dense":
        entries = [[1] * n for _ in range(n)]
        for i, j in draw(st.lists(cells, max_size=n)):
            entries[i][j] = 0
    else:
        perm = draw(st.permutations(range(n)))
        entries = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
        for i, j in draw(st.lists(cells, max_size=n)):
            entries[i][j] = 1
    if n and draw(st.booleans()):
        entries[draw(st.integers(0, n - 1))] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in entries:
            row[j] = 0
    return IntMatrix(entries, cols=n)


@settings(max_examples=300, deadline=None)
@given(a=zero_one_square_matrices())
def test_permanent_matches_permutation_sum(a):
    assert permanent(a) == permutation_permanent(a)
    assert matching_counts(a)[1] == cofactor_determinant(a)


@settings(max_examples=300, deadline=None)
@given(a=int_matrices())
def test_smith_form_is_a_chain_of_minor_gcd_quotients(a):
    factors = smith_invariant_factors(a)
    assert all(s > 0 for s in factors)
    for s, t in zip(factors, factors[1:]):
        assert t % s == 0
    for k in range(min(a.rows, a.cols) + 1):
        assert determinantal_divisor(a, k) == all_minors_divisor(a, k)


@settings(max_examples=300, deadline=None)
@given(case=matrices_mod_p())
def test_rank_mod_p_matches_plain_elimination(case):
    a, p = case
    assert rank_mod_p(a, p) == plain_rank_mod(a, p)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), extra=st.integers(0, 4))
def test_region_factors_match_independent_oracles(seed, extra):
    """The factors read from a region's adjacency give the ranks and the
    leading divisor of the multiplication map, built by polynomial
    arithmetic and reduced without any Smith form."""
    ideal = random_artinian_ideal(random.Random(seed), 6, extra)
    for d in _scan_range(ideal):
        factors = region_invariant_factors(build_region(ideal, d))
        m = multiplication_matrix(ideal, d)
        assert len(factors) == fraction_rank(m), (str(ideal), d)
        for p in (2, 3, 5, 2147483659):
            assert sum(1 for s in factors if s % p) == plain_rank_mod(m, p), (str(ideal), d, p)
        required = min(m.rows, m.cols)
        if required <= 4 and max(m.rows, m.cols) <= 8:
            leading = math.prod(factors) if len(factors) == required else 0
            assert leading == all_minors_divisor(m, required), (str(ideal), d)


def _remainders(monkeypatch) -> list:
    """Record what the unit elimination leaves for the gcd steps."""
    seen = []
    gcd_steps = intlinalg._gcd_step_diagonal

    def recorded(a):
        seen.append([list(row) for row in a])
        return gcd_steps(a)

    monkeypatch.setattr(intlinalg, "_gcd_step_diagonal", recorded)
    return seen


def test_worked_example_leaves_a_one_by_one_remainder(monkeypatch):
    seen = _remainders(monkeypatch)
    region = build_region(parse_ideal("x^4,y^4,z^4,x^2z^2"), 5)
    assert (len(region.down), len(region.up)) == (10, 11)
    assert region_invariant_factors(region) == (1,) * 9 + (4,)
    assert [[abs(v) for v in row] for row in seen[-1]] == [[4]]


def test_fill_in_entries_beyond_units(monkeypatch):
    # unit pivots on rows 0 and 1 turn row 2 into (0, 0, 2)
    seen = _remainders(monkeypatch)
    assert smith_invariant_factors(IntMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == (1, 1, 2)
    assert seen[-1] == [[2]]
    # one unit pivot leaves a 2 x 2 remainder without units for the gcd steps
    a = IntMatrix([[1, 1, 0], [1, -1, 2], [0, 2, 4]])
    assert smith_invariant_factors(a) == (1, 2, 6)
    assert seen[-1] == [[-2, 2], [2, 4]]
    assert [determinantal_divisor(a, k) for k in range(4)] == [all_minors_divisor(a, k) for k in range(4)]


def test_empty_shapes_have_no_factors():
    for rows, cols in ((0, 0), (0, 4), (4, 0)):
        assert smith_invariant_factors(IntMatrix([[]] * rows if rows else [], cols=cols)) == ()
    empty_side = build_region(parse_ideal("x^4,y^4,z^4,x^2z^2"), 1)
    assert (len(empty_side.down), len(empty_side.up)) == (0, 1)
    assert region_invariant_factors(empty_side) == ()
