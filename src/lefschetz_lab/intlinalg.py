"""Exact linear algebra over the integers: determinants, permanents, ranks,
Smith form, and three matrices of a triangular region (``biadjacency``,
``lattice_points``, ``lattice_path_matrix``).  This module owns the matrix
kernels; ``regions`` builds the sparse rows of a region's Z for
``sparse_determinant``, and of the Schur complement S that carries Z's
Smith form for ``sparse_invariant_factors``.

Entries are arbitrary-precision Python ints; nothing here ever rounds.  Each
question has one kernel:

* determinants: fraction-free Bareiss elimination, whose last pivot is a
  nonzero maximal minor: the primes it leaves undivided keep the rank
  over Q.  A sparse square matrix, such as a region's Z or K, goes through
  the unit-pivot pass of the Smith kernel below first
  (``sparse_determinant``), which also returns the pivot positions and the
  product of the +-1 pivots; Bareiss finishes only the small remainder;
* ranks over Q and GF(p) and determinantal divisors: the integer Smith
  form s_1 | s_2 | ... | s_r.  One kernel computes it on sparse rows:
  unit pivots are eliminated first, each adding a factor 1, and the small
  remainder without units is diagonalized by gcd steps, then its diagonal
  is normalized by gcd/lcm.  The rank over Q is r, the rank over GF(p) is
  the number of s_i that p does not divide, and the k-th determinantal
  divisor is s_1 ... s_k;
* permanents of 0/1 matrices: a row-by-row dynamic program over the sets
  of used columns, which carries the signed sum of the matchings (the
  determinant) alongside their count.  No program path runs it; it is
  the public kernel and the test oracle of the tiling count |det K|.

Row and column order of the region matrices is globally fixed (ascending
reverse-lexicographic), so determinant signs are reproducible run to run.
All contracts downstream are stated on absolute values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ExactnessError
from .ideals import Monomial, Y


def binom(n: int, k: int) -> int:
    """Binomial coefficient with C(n, k) = 0 for k < 0 or k > n.

    This is the lattice-path convention: paths with a negative step count do
    not exist.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class IntMatrix:
    """A dense matrix of Python ints, stored as a tuple of row tuples.

    Dimensions are explicit so that genuinely empty shapes (0 x k and k x 0
    matrices do occur as lattice path matrices) survive round trips.
    """

    entries: tuple[tuple[int, ...], ...]
    rows: int
    cols: int

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        rows_t = tuple(tuple(map(operator.index, row)) for row in entries)
        if rows_t:
            width = len(rows_t[0])
            if any(len(r) != width for r in rows_t):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        object.__setattr__(self, "entries", rows_t)
        object.__setattr__(self, "rows", len(rows_t))
        object.__setattr__(self, "cols", cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.entries), cols=self.rows) if self.entries else IntMatrix(
            [[] for _ in range(self.cols)] if self.cols else [], cols=0
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        return IntMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx], cols=len(col_idx))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __str__(self) -> str:
        if not self.entries:
            return f"[] ({self.rows}x{self.cols})"
        width = max(len(str(e)) for row in self.entries for e in row)
        return "\n".join(" ".join(str(e).rjust(width) for e in row) for row in self.entries)


def bareiss(matrix: IntMatrix) -> tuple[int, int]:
    """Fraction-free Bareiss elimination with column skips.

    Returns the rank r over the rationals and the last pivot, negated once
    per row swap.  That pivot is the r x r minor on the pivot rows and
    columns, so it is never 0 (with no pivots at all it is 1), and every
    prime p not dividing it has rank over GF(p) equal to r.  For a square
    matrix of full rank the signed pivot is the determinant.
    """
    a = matrix.to_lists()
    rows, cols = matrix.rows, matrix.cols
    r = 0
    sign = 1
    prev = 1
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        pivot = a[r][c]
        for i in range(r + 1, rows):
            aic = a[i][c]
            row_i = a[i]
            row_r = a[r]
            for j in range(c + 1, cols):
                row_i[j] = (row_i[j] * pivot - aic * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
        if r == rows:
            break
    return r, sign * prev


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    The empty 0x0 matrix has determinant 1 (empty product).
    """
    if not matrix.is_square:
        raise ValueError("determinant of a non-square matrix")
    rank, signed_pivot = bareiss(matrix)
    return signed_pivot if rank == matrix.rows else 0


#: ``matching_counts`` refuses a matrix once its dynamic program would keep
#: more sets of used columns than this; the sets, not the matchings, bound
#: its time and memory.
MAX_LIVE_SETS = 2**15


def matching_counts(matrix: IntMatrix) -> tuple[int, int]:
    """Permanent and determinant of a square 0/1 matrix, in one pass.

    Rows are matched in order, keeping per set (bitmask) of used columns the
    number of partial matchings and their signed sum.  When row i takes
    column j, the permutation gains one inversion per used column above j,
    so the sign flips with the parity of those columns.  A column whose last
    nonzero row has passed can never be used again, so every set that leaves
    such a column free is dropped.  The live sets then differ only in the
    columns spanning the current row, which keeps them few for banded
    matrices such as region matrices; a matrix that needs more than
    ``MAX_LIVE_SETS`` of them is refused, never approximated.  Any entry
    other than 0 or 1 raises.
    """
    if not matrix.is_square:
        raise ValueError("permanent of a non-square matrix")
    if not all(set(row) <= {0, 1} for row in matrix.entries):
        raise ValueError("permanent needs a 0/1 matrix (a bi-adjacency matrix)")
    cap = MAX_LIVE_SETS
    last = [-1] * matrix.cols
    row_cols = []
    for i, row in enumerate(matrix.entries):
        cols = [j for j, e in enumerate(row) if e]
        for j in cols:
            last[j] = i
        row_cols.append([(j, 1 << j) for j in cols])
    if -1 in last:
        return 0, 0
    closing = [0] * matrix.rows
    for j, i in enumerate(last):
        closing[i] |= 1 << j
    live = {0: (1, 1)}
    closed = 0
    for cols, newly_closed in zip(row_cols, closing):
        closed |= newly_closed
        step: dict[int, tuple[int, int]] = {}
        for used, (ways, signed) in live.items():
            for j, bit in cols:
                if used & bit:
                    continue
                nxt = used | bit
                if nxt & closed != closed:
                    continue
                term = -signed if (used >> j).bit_count() & 1 else signed
                old = step.get(nxt)
                if old is not None:
                    step[nxt] = (old[0] + ways, old[1] + term)
                elif len(step) < cap:
                    step[nxt] = (ways, term)
                else:
                    raise ValueError(f"matching count cap exceeded: more than MAX_LIVE_SETS = {cap} live column sets")
        live = step
        if not live:
            return 0, 0
    return live[(1 << matrix.cols) - 1]


def permanent(matrix: IntMatrix) -> int:
    """Exact permanent of a square 0/1 matrix.

    The permanent of a bi-adjacency matrix is the number of perfect matchings
    of its bipartite graph, counted by ``matching_counts``, never by
    enumerating the matchings.
    """
    return matching_counts(matrix)[0]


def rank_q(matrix: IntMatrix) -> int:
    """Exact rank over the rationals: the number of invariant factors."""
    return len(smith_invariant_factors(matrix))


#: psi_13, the least strong pseudoprime to each of the first 13 prime bases.
MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases up to 41, exact below
    ``MILLER_RABIN_EXACT_BELOW``; from there on also the strong Lucas test,
    which with the base-2 test makes BPSW (Baillie-Wagstaff 1980), with no
    known counterexample."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < MILLER_RABIN_EXACT_BELOW or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1-D)/4.  With n+1 = d 2^s, n passes iff U_d = 0 or V_{d 2^r} = 0
    mod n for some r < s."""
    if math.isqrt(n) ** 2 == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # 1 < gcd(D, n) < n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(v: int) -> int:
        v %= n
        return (v + n if v % 2 else v) // 2

    U, V, Qk = 0, 2, 1  # U_k, V_k, Q^k at k = 0, then k runs through d's leading bits
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def rank_mod_p(matrix: IntMatrix, p: int) -> int:
    """Exact rank over GF(p): the number of invariant factors that p does
    not divide.  The unimodular transforms to the Smith form stay
    invertible mod p, so the reduced Smith form has the rank of Z mod p."""
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return sum(1 for s in smith_invariant_factors(matrix) if s % p)


def smith_invariant_factors(matrix: IntMatrix) -> tuple[int, ...]:
    """Nonnegative invariant factors s_1 | s_2 | ... of the integer Smith form.

    The rows become sparse rows and go through ``sparse_invariant_factors``,
    the one Smith kernel, which the WLP scan reaches straight from the rows
    of S that ``regions.degree_complement`` reads off the staircase.
    """
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix.entries]
    return sparse_invariant_factors(rows, matrix.cols)


def sparse_determinant(rows: list[dict[int, int]], n: int) -> int:
    """Determinant of the n x n matrix whose row i maps column -> nonzero
    entry; consumes ``rows``.

    Order the rows and the columns pivots first, in elimination order, then
    the rest ascending.  After the row steps of ``_unit_pivots``, which keep
    the determinant, a pivot row is zero in every earlier pivot column and a
    remaining row in every pivot column, so the reordered matrix is block
    upper triangular: the determinant is the parity of both orders times the
    product of the +-1 pivots times the Bareiss determinant of the small
    remainder.
    """
    if len(rows) != n:
        raise ValueError("determinant of a non-square matrix")
    pivots, sign, rest_rows = _unit_pivots(rows, n)
    pivot_rows, pivot_cols = [i for i, _ in pivots], [j for _, j in pivots]
    taken = set(pivot_cols)
    rest_cols = [j for j in range(n) if j not in taken]
    if len(rest_rows) < len(rest_cols):  # a row became zero
        return 0
    sign *= permutation_sign(pivot_rows + rest_rows) * permutation_sign(pivot_cols + rest_cols)
    remainder = IntMatrix([[rows[i].get(j, 0) for j in rest_cols] for i in rest_rows], cols=len(rest_cols))
    return sign * determinant(remainder)


def permutation_sign(images: Sequence[int]) -> int:
    """Sign of a permutation given as a list of images, by cycle counting."""
    seen = [False] * len(images)
    sign = 1
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _unit_pivots(rows: list[dict[int, int]], cols: int) -> tuple[list[tuple[int, int]], int, list[int]]:
    """Eliminate unit pivots from the matrix whose row i maps column ->
    nonzero entry, in place.

    Going through the rows in order, a row with a +-1 entry takes the one
    whose column has the fewest live rows, and exact integer row steps clear
    that column; the pivot row is then emptied.  Passes repeat while fill-in
    creates new units.  Returns the pivot positions (row, column) in
    elimination order, the product of the pivots, and the rows left
    nonzero, which hold no unit entry and no pivot column.
    """
    col_rows: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    pivots: list[tuple[int, int]] = []
    sign = 1
    live = [i for i, row in enumerate(rows) if row]
    progress = True
    while progress:
        progress = False
        for i in live:
            row = rows[i]
            best = None
            for j, v in row.items():
                if (v == 1 or v == -1) and (best is None or len(col_rows[j]) < len(col_rows[best])):
                    best = j
            if best is None:
                continue
            progress = True
            rows[i] = {}
            for j in row:
                col_rows[j].discard(i)
            pivot = row.pop(best)
            pivots.append((i, best))
            sign *= pivot
            for k in col_rows[best]:
                other = rows[k]
                f = other.pop(best) * pivot  # the pivot is its own inverse
                for j, v in row.items():
                    w = other.get(j, 0) - f * v
                    if w:
                        if j not in other:
                            col_rows[j].add(k)
                        other[j] = w
                    elif j in other:
                        del other[j]
                        col_rows[j].discard(k)
            col_rows[best] = set()
        live = [i for i in live if rows[i]]
    return pivots, sign, live


def sparse_invariant_factors(rows: list[dict[int, int]], cols: int) -> tuple[int, ...]:
    """Invariant factors of the matrix whose row i maps column -> nonzero
    entry; consumes ``rows``.

    Unit pivots go first (``_unit_pivots``): column steps would clear each
    pivot row without touching any other row, so each pivot adds an
    invariant factor 1.  What is left has no unit entry; it is diagonalized
    by ``_gcd_step_diagonal``, and replacing each pair (s_i, s_j), i < j, of
    its non-unit diagonal entries by (gcd, lcm), then putting the units
    first, yields the invariant factors (the Smith form is unique).
    Arbitrary precision, so no overflow is possible.  A matrix with no row
    or no column has no factor.
    """
    if not rows or not cols:
        return ()
    pivots, _, live = _unit_pivots(rows, cols)
    remainder_cols = sorted({j for i in live for j in rows[i]})
    remainder = [[rows[i].get(j, 0) for j in remainder_cols] for i in live]
    diagonal = _gcd_step_diagonal(remainder)
    rest = [s for s in diagonal if s != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = math.gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return (1,) * (len(pivots) + len(diagonal) - len(rest)) + tuple(rest)


def _gcd_step_diagonal(a: list[list[int]]) -> list[int]:
    """Absolute diagonal of a dense matrix (list of rows, changed in place)
    after diagonalization by gcd steps.

    For each pivot position k, alternately move a smallest nonzero entry of
    column k to the pivot and clear the column by floor-division row steps,
    then clear row k by column steps, swapping in its smallest remainder,
    until row and column k are zero off the pivot.  Each swap strictly
    shrinks the pivot, so this terminates.
    """
    rows, cols = len(a), len(a[0]) if a else 0
    diagonal: list[int] = []
    for k in range(min(rows, cols)):
        # rows and columns before k are already zero off the diagonal
        j0 = next((j for j in range(k, cols) if any(a[i][j] for i in range(k, rows))), None)
        if j0 is None:
            break
        while True:
            if j0 != k:
                for row in a[k:]:
                    row[k], row[j0] = row[j0], row[k]
            while True:
                i0 = min((i for i in range(k, rows) if a[i][k]), key=lambda i: abs(a[i][k]))
                a[k], a[i0] = a[i0], a[k]
                row_k = a[k]
                pivot = row_k[k]
                support = [j for j in range(k, cols) if row_k[j]]
                dirty = False
                for row_i in a[k + 1:]:
                    if row_i[k]:
                        q = row_i[k] // pivot
                        for j in support:
                            row_i[j] -= q * row_k[j]
                        dirty = dirty or row_i[k] != 0
                if not dirty:
                    break
            # column k is clear below the pivot, so column steps touch row k only
            for j in range(k + 1, cols):
                row_k[j] %= pivot
            j0 = min((j for j in range(k + 1, cols) if row_k[j]), key=lambda j: abs(row_k[j]), default=None)
            if j0 is None:
                break
        diagonal.append(abs(pivot))
    return diagonal


def determinantal_divisor(matrix: IntMatrix, r: int) -> int:
    """Gcd of all r x r minors (0 if they all vanish, 1 for r = 0).

    Computed as the product of the first r invariant factors of the Smith
    form, which equals the r-th determinantal divisor.
    """
    if r < 0 or r > min(matrix.rows, matrix.cols):
        raise ValueError(f"minor order {r} out of range")
    if r == 0:
        return 1
    factors = smith_invariant_factors(matrix)
    if len(factors) < r:
        return 0
    return math.prod(factors[:r])


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at desk scale."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# The two matrices of a triangular region
# ---------------------------------------------------------------------------


def biadjacency(region) -> IntMatrix:
    """0/1 adjacency of downward vs upward triangles of a region.

    Rows are the downward triangles, columns the upward ones, both in
    ascending reverse-lexicographic order of their labels.  Entry (i, j) is 1
    iff up label j is the down label i times a variable, as listed in
    ``region.adjacency``, so each row and each column carries at most three
    ones.  The transpose is the matrix of multiplication by x+y+z between the
    two graded pieces.
    """
    cols = len(region.up)
    entries = []
    for neighbours in region.adjacency:
        row = [0] * cols
        for j in neighbours:
            row[j] = 1
        entries.append(row)
    return IntMatrix(entries, cols=cols)


@dataclass(frozen=True)
class LatticePoints:
    """Start (A) and end (E) vertices of the region's path lattice.

    Vertices sit on the triangle edges parallel to the upper-right boundary;
    the vertex shared by up triangle m and down triangle m/y is labeled m.  A
    label m maps to the plane point (d-1-ez, ex), where East steps and South
    steps are the two legal path moves.

    A-vertices lie only on an upward triangle: m is present and its down
    neighbor m/y is absent or nonexistent.  E-vertices lie only on a downward
    triangle: they are the labels y*n for present downs n with y*n absent.
    Both lists are ascending in the monomial order.
    """

    a_points: tuple[tuple[Monomial, tuple[int, int]], ...]
    e_points: tuple[tuple[Monomial, tuple[int, int]], ...]


def _lattice_coord(m: Monomial, d: int) -> tuple[int, int]:
    return (d - 1 - m.ez, m.ex)


def lattice_points(region) -> LatticePoints:
    d = region.d
    down_set = region.down_set
    up_set = region.up_set
    a_pts = [(m, _lattice_coord(m, d)) for m in region.up if m.ey == 0 or (m // Y) not in down_set]
    e_pts = [(Y * n, _lattice_coord(Y * n, d)) for n in region.down if (Y * n) not in up_set]
    return LatticePoints(tuple(a_pts), tuple(e_pts))


def lattice_path_matrix(region) -> tuple[IntMatrix, LatticePoints]:
    """Binomial matrix counting lattice paths from each A-vertex to each E-vertex.

    Entry (i, j) is C((xE-xA) + (yA-yE), xE-xA), i.e. the number of
    East/South walks in the plane, and 0 whenever either difference is
    negative.
    """
    pts = lattice_points(region)
    entries = [
        [
            binom((xe - xa) + (ya - ye), xe - xa) if xe >= xa and ya >= ye else 0
            for (_, (xe, ye)) in pts.e_points
        ]
        for (_, (xa, ya)) in pts.a_points
    ]
    matrix = IntMatrix(entries, cols=len(pts.e_points))
    return matrix, pts


def exact_quotient(num: int, den: int) -> int:
    """Integer division that must be exact; anything else is an internal error."""
    if den == 0:
        raise ExactnessError("division by zero")
    q, r = divmod(num, den)
    if r:
        raise ExactnessError(f"{num} is not divisible by {den}")
    return q
