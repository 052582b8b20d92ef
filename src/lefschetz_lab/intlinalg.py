"""Exact linear algebra over the integers: determinants, permanents, ranks,
Smith form, and the two matrices attached to a triangular region.

Entries are arbitrary-precision Python ints; nothing here ever rounds.  Each
question has one kernel:

* determinants: fraction-free Bareiss elimination, whose last pivot is a
  nonzero maximal minor: the primes it leaves undivided keep the rank
  over Q;
* ranks over Q and GF(p) and determinantal divisors: the integer Smith
  form s_1 | s_2 | ... | s_r.  One kernel computes it on sparse rows:
  unit pivots are eliminated first, each adding a factor 1, and the small
  remainder without units is diagonalized by gcd steps, then its diagonal
  is normalized by gcd/lcm.  Region matrices reach it straight from the
  region's adjacency, other matrices from their rows.  The rank over Q is
  r, the rank over GF(p) is the number of s_i that p does not divide, and
  the k-th determinantal divisor is s_1 ... s_k;
* permanents of 0/1 matrices: a row-by-row dynamic program over the sets
  of used columns, which carries the signed sum of the matchings (the
  determinant) alongside their count; Bareiss stays the independent check
  of that signed sum.

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
        return IntMatrix(
            [[self.entries[i][j] for j in col_idx] for i in row_idx], cols=len(col_idx)
        )

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
    if any(e not in (0, 1) for row in matrix.entries for e in row):
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
                    raise ValueError(f"matching count cap exceeded (more than {cap} live column sets)")
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


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for anything below 3.3 * 10^24."""
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
    return True


def rank_mod_p(matrix: IntMatrix, p: int) -> int:
    """Exact rank over GF(p): the number of invariant factors that p does
    not divide.  The unimodular transforms to the Smith form stay
    invertible mod p, so the reduced Smith form has the rank of Z mod p."""
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return sum(1 for s in smith_invariant_factors(matrix) if s % p)


def smith_invariant_factors(matrix: IntMatrix) -> tuple[int, ...]:
    """Nonnegative invariant factors s_1 | s_2 | ... of the integer Smith form.

    The rows become sparse rows and go through ``_sparse_smith``, the one
    Smith kernel, which region matrices also reach straight from their
    adjacency (``region_invariant_factors``).
    """
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix.entries]
    return _sparse_smith(rows, matrix.cols)


def region_invariant_factors(region) -> tuple[int, ...]:
    """Invariant factors of the region's bi-adjacency matrix Z, read from
    ``region.adjacency`` as sparse rows; Z is never built densely."""
    return _sparse_smith([dict.fromkeys(js, 1) for js in region.adjacency], len(region.up))


def _sparse_smith(rows: list[dict[int, int]], cols: int) -> tuple[int, ...]:
    """Invariant factors of the matrix whose row i maps column -> nonzero
    entry; consumes ``rows``.

    Unit pivots first: going through the rows in order, a row with a +-1
    entry takes the one whose column has the fewest live rows, and exact
    integer row steps clear that column.  Column steps would then clear the
    pivot row without touching any other row, so the row and the column are
    dropped and the pivot adds an invariant factor 1.  Passes repeat while
    fill-in creates new units.  What is left has no unit entry; it is
    diagonalized by ``_gcd_step_diagonal``, and replacing each pair
    (s_i, s_j), i < j, of its non-unit diagonal entries by (gcd, lcm), then
    putting the units first, yields the invariant factors (the Smith form is
    unique).  Arbitrary precision, so no overflow is possible.
    """
    col_rows: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    units = 0
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
            units += 1
            rows[i] = {}
            for j in row:
                col_rows[j].discard(i)
            pivot = row.pop(best)
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
    remainder_cols = sorted({j for i in live for j in rows[i]})
    remainder = [[rows[i].get(j, 0) for j in remainder_cols] for i in live]
    diagonal = _gcd_step_diagonal(remainder)
    rest = [s for s in diagonal if s != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = math.gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return (1,) * (units + len(diagonal) - len(rest)) + tuple(rest)


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
            j0 = min(
                (j for j in range(k + 1, cols) if row_k[j]),
                key=lambda j: abs(row_k[j]),
                default=None,
            )
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
    a_pts = [
        (m, _lattice_coord(m, d))
        for m in region.up
        if m.ey == 0 or (m // Y) not in down_set
    ]
    e_pts = [
        (Y * n, _lattice_coord(Y * n, d))
        for n in region.down
        if (Y * n) not in up_set
    ]
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
