"""Independent brute-force oracles used to validate the fast implementations.

Each oracle deliberately takes a different road than the code under test:
recursive cofactor expansion instead of fraction-free elimination, explicit
permutation sums instead of matching counts, all-minors gcds instead of
Smith reduction, row reduction over fractions and mod p instead of counting
Smith invariant factors, polynomial multiplication instead of triangle
adjacency, a row-by-row plane partition count instead of the box
formula, a flood fill over the missing triangles instead of counting
the cells of the region, and one path DP per E-row over the listed ups
instead of one packed sweep over the staircase runs.

The staircase kernels of ``ideals`` are pinned against their earlier
versions, kept here as written before they were rewritten for speed:
``minimalize_oracle``, ``pure_power_exponent_oracle``, ``staircase_oracle``
and ``socle_profile_oracle`` (which reads ``staircase_oracle`` and these
pure powers instead of the package's).  ``per_ideal_conjecture_scan`` is
the conjecture scan as written before it answered each isomorphism class
once: it classifies (by permutation search) and scans at every degree each
enumerated ideal, twins included, checking each degree's rank over Q;
``region_key`` is the key the scan shares a region shape under, one degree
at a time.  ``split_binom_det_product`` and ``two_mahonian_product`` are
the block-binomial and two-Mahonian closed forms as products of box counts
and hyperfactorials, as written before they were evaluated from prime
valuations.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from bisect import bisect_left
from fractions import Fraction

from lefschetz_lab import (
    InternalCheckError,
    IntMatrix,
    Monomial,
    MonomialIdeal,
    SplitBinomParams,
    TriangularRegion,
    hyperfactorial,
    macmahon,
    monomials_of_degree,
    standard_monomials,
)
from lefschetz_lab.intlinalg import exact_quotient
from lefschetz_lab.errors import NotArtinianError
from lefschetz_lab import wlp
from lefschetz_lab.ideals import VARIABLES, SocleProfile, _Staircase
from lefschetz_lab.wlp import (
    ConjectureCounterexample,
    _scan_range,
    _shape_factors,
    _truncation_form,
    enumerate_type2_forms,
    type2_char0_verdict,
)

_EZ = operator.itemgetter(2)


def minimalize_oracle(gens) -> tuple[Monomial, ...]:
    """Drop every generator that is a multiple of another one."""
    unique = set(gens)
    minimal = [
        g for g in unique if not any(h != g and h.divides(g) for h in unique)
    ]
    # Descending revlex, the order used for canonical printing.
    minimal.sort(key=Monomial.revlex_key, reverse=True)
    return tuple(minimal)


def pure_power_exponent_oracle(ideal: MonomialIdeal, var: int) -> int | None:
    """Smallest e with (variable)^e among the generators, else None."""
    exps = [g[var] for g in ideal.gens if g.degree == g[var]]
    return min(exps) if exps else None


def staircase_oracle(ideal: MonomialIdeal) -> _Staircase:
    xs = sorted({0, *(g.ex for g in ideal.gens)})
    ys = sorted({0, *(g.ey for g in ideal.gens)})
    x_at = {e: a for a, e in enumerate(xs)}
    y_at = {e: b for b, e in enumerate(ys)}
    heights = [[math.inf] * len(ys) for _ in xs]
    for g in ideal.gens:
        a, b = x_at[g.ex], y_at[g.ey]
        heights[a][b] = min(heights[a][b], g.ez)
    for a, row in enumerate(heights):
        for b in range(len(ys)):
            row[b] = min(row[b], heights[a - 1][b] if a else math.inf, row[b - 1] if b else math.inf)
    levels = sorted({h for row in heights for h in row if h != math.inf})
    bands = []
    for n in range(len(levels) + 1):
        threshold = levels[n - 1] if n else -1
        runs = []
        for a, row in enumerate(heights):
            width = next((ys[b] for b, h in enumerate(row) if h <= threshold), math.inf)
            if width == 0:  # H is nonincreasing in i: the later runs are empty too
                break
            runs.append((xs[a], xs[a + 1] if a + 1 < len(xs) else math.inf, width))
        bands.append(tuple(runs))
    return _Staircase(
        xs=tuple(xs),
        ys=tuple(ys),
        heights=tuple(map(tuple, heights)),
        levels=tuple(levels),
        bands=tuple(bands),
        top=levels[-1] if not bands[-1] else math.inf,
    )


def socle_profile_oracle(ideal: MonomialIdeal) -> SocleProfile:
    if any(pure_power_exponent_oracle(ideal, v) is None for v in range(3)):
        raise NotArtinianError(f"ideal ({ideal}) lacks a pure power of some variable")
    stair = staircase_oracle(ideal)
    h = stair.heights
    socle = sorted(
        (
            Monomial(stair.xs[a + 1] - 1, stair.ys[b + 1] - 1, h[a][b] - 1)
            for a in range(len(stair.xs) - 1)
            for b in range(len(stair.ys) - 1)
            if h[a + 1][b] < h[a][b] > h[a][b + 1]
        ),
        key=Monomial.revlex_key,
    )
    degrees = tuple(m.degree for m in socle)
    return SocleProfile(
        socle_monomials=tuple(socle),
        degrees=degrees,
        type_=len(socle),
        socle_degree=max(degrees) if degrees else -1,
        is_level=len(set(degrees)) <= 1,
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


def path_count_complement(ideal: MonomialIdeal, d: int) -> tuple[int, int, list[dict[int, int]], int]:
    """``regions.degree_complement`` one E-row at a time: the ups of each
    slice listed off ``standard_monomials``, and for each E-down r a DP over
    the slices from y*r upward that counts the +x/+z paths to every A-up."""
    up, down = (
        {ez: [m.ex for m in group] for ez, group in itertools.groupby(standard_monomials(ideal, j), _EZ)}
        for j in (d - 1, d - 2)
    )
    a_cols = {ez: a for a, ez in enumerate(ez for ez, xs in up.items() if xs[-1] == d - 1 - ez)}
    n_up = sum(map(len, up.values()))
    units = n_up - len(a_cols)
    n_e = sum(map(len, down.values())) - units
    rows = []
    for e0, xs in down.items() if n_e and a_cols else ():
        for i0 in sorted(set(xs).difference(up.get(e0, ()))):  # y*r missing
            # cur: signed path counts on up slice z^ez, seeded at y*r; prev: slice z^(ez-1)
            row, prev, cur, ez = {}, {}, {i0: -1 if (d - i0 - e0) % 2 else 1}, e0
            while prev or cur:
                xs = up.get(ez, ())
                for i in xs[bisect_left(xs, next(iter(cur or prev))):]:
                    if v := prev.get(i, 0) + cur.get(i - 1, 0):
                        cur[i] = v
                if d - 1 - ez in cur:
                    row[a_cols[ez]] = cur[d - 1 - ez]
                prev, cur, ez = cur, {}, ez + 1
            rows.append(row)
    return n_up, units, rows or [{} for _ in range(n_e)], len(a_cols)


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


def random_low_socle_ideal(rng: random.Random, max_power: int, extra: int = 3) -> MonomialIdeal:
    """A random Artinian monomial ideal with a socle element m of degree 1 or
    2: its generators are x*m, y*m, z*m, pure powers and a few random
    generators of degree deg(m)+2 .. max_power (at least 4).

    A peak shortcut needs no socle element more than two degrees below the
    last rise of the Hilbert function, so these often have none, while
    ``random_artinian_ideal`` almost never draws such an ideal.
    """
    k = rng.randint(1, 2)
    m = rng.choice(monomials_of_degree(k))
    gens = [v * m for v in VARIABLES]
    gens += [Monomial(*(rng.randint(k + 2, max_power) * e for e in v)) for v in VARIABLES]
    for _ in range(rng.randint(0, extra)):
        j = rng.randint(k + 2, max_power)
        a = rng.randint(0, j)
        b = rng.randint(0, j - a)
        gens.append(Monomial(a, b, j - a - b))
    return MonomialIdeal(gens)


def random_floating_ideal(rng: random.Random, max_power: int, extra: int = 3) -> MonomialIdeal:
    """A random Artinian monomial ideal: pure powers of at least 3 plus one
    to ``extra`` generators with every exponent positive, whose punctures
    float unless they overlap or touch a side's puncture."""
    gens = [Monomial(*(rng.randint(3, max_power) * e for e in v)) for v in VARIABLES]
    for _ in range(rng.randint(1, extra)):
        a, b, c = (rng.randint(1, max_power // 2) for _ in range(3))
        gens.append(Monomial(a, b, c))
    return MonomialIdeal(gens)


def random_balanced_region(rng: random.Random, max_d: int) -> TriangularRegion:
    """A balanced subregion of the degree-d triangle, d <= max_d, that drops
    k down triangles and d + k up triangles at random: mostly a few, so it
    is often tileable and sometimes has a floating hole, and sometimes
    many, so it is often singular."""
    d = rng.randint(1, max_d)
    ups, downs = list(monomials_of_degree(d - 1)), list(monomials_of_degree(d - 2))
    k = rng.randint(0, len(downs) if rng.random() < 0.3 else min(len(downs), 4))
    return TriangularRegion(d, rng.sample(ups, len(ups) - d - k), rng.sample(downs, len(downs) - k))


def complement(region: TriangularRegion) -> TriangularRegion:
    """The triangles of the degree-d triangle that the region lacks, so that
    ``has_floating_group`` of it finds islands of present triangles."""
    d = region.d
    return TriangularRegion(
        d,
        (m for m in monomials_of_degree(d - 1) if m not in region.up_set),
        (n for n in monomials_of_degree(d - 2) if n not in region.down_set),
    )


def off_the_sides(region: TriangularRegion) -> TriangularRegion:
    """The region moved into the middle of the degree d+3 triangle, every
    label times xyz: an island whose boundary touches no side."""
    xyz = Monomial(1, 1, 1)
    return TriangularRegion(region.d + 3, (xyz * m for m in region.up), (xyz * n for n in region.down))


def has_floating_group(region: TriangularRegion) -> bool:
    """Whether some group of missing triangles, linked through shared
    corners, has no corner on a side (an exponent 0): a flood fill over the
    corners of every missing triangle of the degree-d triangle."""
    d = region.d
    links: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for j, present, corner_steps in (
        (d - 1, region.up_set, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        (d - 2, region.down_set, ((1, 1, 0), (1, 0, 1), (0, 1, 1))),
    ):
        for m in monomials_of_degree(j):
            if m not in present:
                corners = [tuple(e + s for e, s in zip(m, step)) for step in corner_steps]
                for v in corners:
                    links.setdefault(v, []).extend(corners)
    reached = {v for v in links if 0 in v}
    frontier = list(reached)
    while frontier:
        for w in links[frontier.pop()]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return len(reached) < len(links)


#: Every prime up to 31, for the prime caps the conjecture-scan tests use.
PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def region_key(ideal: MonomialIdeal, d: int, forms: dict) -> tuple:
    """The key under which ``wlp.conjecture_scan`` shares the degree-d
    region: the canonical form of the generators of degree below d, and d.
    The scan forms the same key one truncation at a time."""
    return _truncation_form(tuple(g for g in ideal.gens if g.degree < d), forms), d


def per_ideal_conjecture_scan(max_exponent: int, prime_cap: int) -> list[ConjectureCounterexample]:
    """The conjecture scan that classifies and scans each enumerated ideal,
    sharing only the reduction of each region shape.  It looks
    ``wlp._dropping_primes`` up at call time, so a test can patch it, and
    reads the candidate primes off ``PRIMES_TO_31``."""
    assert prime_cap <= PRIMES_TO_31[-1]
    counterexamples = []
    forms: dict = {}
    shared: dict = {}  # truncation form -> d -> the degree-d factors
    for form in enumerate_type2_forms(max_exponent):
        ideal = form.normalized_ideal
        holds, _ = type2_char0_verdict(ideal)
        if not holds:
            continue
        s = sum(ideal.pure_powers)
        if not any(p <= prime_cap and 2 * p > s for p in PRIMES_TO_31):
            continue
        gens = ideal.gens
        cut, shapes = len(gens), None  # gens[cut:] have degree below d
        for d in _scan_range(ideal):
            last = cut
            while cut and gens[cut - 1].degree < d:
                cut -= 1
            if shapes is None or cut != last:
                shapes = shared.setdefault(_truncation_form(gens[cut:], forms), {})
            found = shapes.get(d)
            if found is None:
                found = shapes[d] = _shape_factors(ideal, d)
            n_up, n_down, factors = found
            required = min(n_up, n_down)
            if len(factors) < required:
                raise InternalCheckError(
                    f"type-2 verdict says ({ideal}) has the property, but degree {d} "
                    f"has rank {len(factors)} < {required} over Q"
                )
            for p in wlp._dropping_primes(factors):
                if p <= prime_cap and 2 * p > s:
                    counterexamples.append(ConjectureCounterexample(ideal, p, d))
    return counterexamples


def split_binom_det_product(params: SplitBinomParams) -> int:
    """``formulas.split_binom_det`` as the product of two box counts and a
    hyperfactorial quotient, built exactly."""
    p, q, r, m, n = params.p, params.q, params.r, params.m, params.n
    h = hyperfactorial
    num = macmahon(m, q, r) * macmahon(n - m, p - q - r, r)
    num *= h(q + r) * h(p - q) * h(n + r) * h(n + p)
    den = h(n + p - q) * h(n + q + r) * h(p) * h(r)
    return exact_quotient(num, den)


def two_mahonian_product(a: int, b: int, c: int, alpha: int, beta: int, d: int) -> int:
    """``formulas.two_mahonian_enumeration`` as the product of two box counts
    and a hyperfactorial quotient, built exactly."""
    h = hyperfactorial
    s = d - (alpha + beta)
    boxes = macmahon(a + beta - d, d - a, s) * macmahon(alpha + b - d, d - b, s)
    num = h(d - a + s) * h(d - b + s) * h(d - c + s) * h(d)
    den = h(a) * h(b) * h(c) * h(s)
    return exact_quotient(boxes * num, den)
