"""Independent brute-force oracles used to validate the fast implementations.

Each oracle deliberately takes a different road than the code under test:
recursive cofactor expansion instead of fraction-free elimination, explicit
permutation sums instead of matching counts, all-minors gcds instead of
Smith reduction, row reduction over fractions and mod p instead of counting
Smith invariant factors, polynomial multiplication instead of triangle
adjacency, and a row-by-row plane partition count instead of the box
formula.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from lefschetz_lab import (
    IntMatrix,
    Monomial,
    MonomialIdeal,
    monomials_of_degree,
)


def cofactor_determinant(matrix: IntMatrix) -> int:
    """Recursive cofactor expansion; exponential, keep n <= 7."""
    n = matrix.rows
    assert n == matrix.cols <= 7
    rows = matrix.to_lists()

    def det(rws, cols):
        if not cols:
            return 1
        i = len(rws[0]) - len(cols)  # expand along successive rows
        total = 0
        for pos, j in enumerate(cols):
            a = rws[i][j]
            if a:
                rest = cols[:pos] + cols[pos + 1:]
                total += (-1) ** pos * a * det(rws, rest)
        return total

    return det(rows, list(range(n)))


def permutation_permanent(matrix: IntMatrix) -> int:
    """Permanent as an explicit sum over permutations; keep n <= 7."""
    n = matrix.rows
    assert n == matrix.cols <= 8
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= matrix.entries[i][j]
            if prod == 0:
                break
        total += prod
    return total


def all_minors_divisor(matrix: IntMatrix, r: int) -> int:
    """Gcd of all r x r minors by direct enumeration; keep min dim <= 6."""
    if r == 0:
        return 1
    g = 0
    for rows in itertools.combinations(range(matrix.rows), r):
        for cols in itertools.combinations(range(matrix.cols), r):
            g = math.gcd(g, cofactor_determinant(matrix.submatrix(rows, cols)))
    return g


def fraction_rank(matrix: IntMatrix) -> int:
    """Rank over Q by plain Gaussian elimination on exact fractions."""
    a = [[Fraction(e) for e in row] for row in matrix.entries]
    rows, cols = matrix.rows, matrix.cols
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def plain_rank_mod(matrix: IntMatrix, p: int) -> int:
    """Rank over GF(p) by Gaussian elimination on lists of Python ints."""
    a = [[e % p for e in row] for row in matrix.entries]
    r = 0
    for c in range(matrix.cols):
        pivot = next((i for i in range(r, matrix.rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p)
        for i in range(r + 1, matrix.rows):
            f = a[i][c] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def multiplication_matrix(ideal: MonomialIdeal, d: int) -> IntMatrix:
    """Matrix of multiplication by x+y+z from degree d-2 to degree d-1 of R/I,
    in ascending reverse-lex monomial bases, built by polynomial arithmetic."""
    source = [m for m in monomials_of_degree(d - 2) if m not in ideal]
    target = [m for m in monomials_of_degree(d - 1) if m not in ideal]
    index = {m: i for i, m in enumerate(target)}
    entries = [[0] * len(source) for _ in target]
    for j, m in enumerate(source):
        for v in (Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1)):
            prod = v * m
            if prod in index:
                entries[index[prod]][j] += 1
    return IntMatrix(entries, cols=len(source))


def plane_partition_oracle(a: int, b: int, c: int) -> int:
    """Count a x b arrays with entries in 0..c that weakly decrease along
    rows and columns, by direct recursion over rows.

    Independent of the hyperfactorial formula; capped at a*b <= 16 cells.
    """
    if min(a, b, c) < 0:
        raise ValueError("box sides must be nonnegative")
    if a * b > 16:
        raise ValueError("oracle cap exceeded: a*b must stay at most 16")
    if a == 0 or b == 0 or c == 0:
        return 1

    def rows_below(bound: tuple[int, ...]):
        # weakly decreasing rows dominated entrywise by `bound`
        def go(prefix: list[int], i: int):
            if i == b:
                yield tuple(prefix)
                return
            hi = min(bound[i], prefix[-1]) if prefix else bound[0]
            for v in range(hi + 1):
                prefix.append(v)
                yield from go(prefix, i + 1)
                prefix.pop()

        yield from go([], 0)

    @functools.lru_cache(maxsize=None)
    def count(rows_left: int, bound: tuple[int, ...]) -> int:
        if rows_left == 0:
            return 1
        return sum(count(rows_left - 1, row) for row in rows_below(bound))

    return count(a, (c,) * b)


def random_artinian_ideal(rng: random.Random, max_power: int, extra: int = 3) -> MonomialIdeal:
    """A random Artinian monomial ideal: pure powers plus a few random
    generators of bounded degree."""
    gens = [
        Monomial(rng.randint(1, max_power), 0, 0),
        Monomial(0, rng.randint(1, max_power), 0),
        Monomial(0, 0, rng.randint(1, max_power)),
    ]
    for _ in range(rng.randint(0, extra)):
        j = rng.randint(1, max_power)
        a = rng.randint(0, j)
        b = rng.randint(0, j - a)
        gens.append(Monomial(a, b, j - a - b))
    ideal = MonomialIdeal(gens)
    if not ideal.is_proper:
        return MonomialIdeal(gens[:3])
    return ideal
