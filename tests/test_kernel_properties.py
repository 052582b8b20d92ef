"""Property tests: the exact kernels of ``intlinalg`` against brute-force
oracles on random small integer matrices."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz_lab import (
    IntMatrix,
    determinantal_divisor,
    matching_counts,
    permanent,
    rank_mod_p,
    smith_invariant_factors,
)
from _oracles import (
    all_minors_divisor,
    cofactor_determinant,
    permutation_permanent,
    plain_rank_mod,
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
