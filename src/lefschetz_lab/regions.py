"""Triangular regions: the planar picture of a graded piece of R/I.

The degree-d region of an ideal I has one upward unit triangle per degree
(d-1) monomial outside I and one downward unit triangle per degree (d-2)
monomial outside I; a downward triangle n is adjacent to the upward triangles
x*n, y*n, z*n.  This module owns the region and the rows of its matrix Z:
``TriangularRegion.adjacency`` builds them from the labels, and
``region_determinant`` and the Kasteleyn signing hand them to the kernels
of ``intlinalg``.  For the WLP scan, ``degree_complement`` reads off the
staircase only the small Schur complement S of Z's unit triangular y-pivot
block, which carries Z's Smith form.  Matchings and tilings live in
``tilings``.  Everything here is label arithmetic on exponents; no
floating-point geometry exists outside the SVG emitter.

Each minimal generator g of degree at most d-1 cuts an upward-pointing
triangular puncture of side d - deg(g) out of the full region.  Two punctures
overlap iff deg lcm(g1, g2) <= d-1 and touch (share exactly one point) iff
deg lcm(g1, g2) = d; a puncture is non-floating iff it reaches the outer
boundary (some exponent of g is zero) or chains to one that does through
overlaps and touches.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import InternalCheckError
from .ideals import (
    Monomial,
    MonomialIdeal,
    Y,
    _degree_runs,
    hilbert_value,
    monomials_of_degree,
    standard_monomials,
)
from .intlinalg import lattice_points, sparse_determinant

_EZ_EY = operator.itemgetter(2, 1)

UP_HEAVY = "up-heavy"
DOWN_HEAVY = "down-heavy"
BALANCED = "balanced"


@dataclass(frozen=True)
class TriangularRegion:
    """An arbitrary subregion of the degree-d triangle, as two label sets.

    ``up`` holds degree (d-1) labels, ``down`` degree (d-2) labels; both are
    kept in ascending reverse-lexicographic order, the order that fixes all
    matrix rows and columns.
    """

    d: int
    up: tuple[Monomial, ...]
    down: tuple[Monomial, ...]

    def __init__(self, d: int, up, down):
        # at one degree, ascending revlex order is descending (ez, ey)
        up = tuple(sorted(up, key=_EZ_EY, reverse=True))
        down = tuple(sorted(down, key=_EZ_EY, reverse=True))
        if any(sum(m) != d - 1 for m in up) or any(sum(n) != d - 2 for n in down):
            raise ValueError("labels of the wrong degree for this region")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    @cached_property
    def up_set(self) -> frozenset[Monomial]:
        return frozenset(self.up)

    @cached_property
    def down_set(self) -> frozenset[Monomial]:
        return frozenset(self.down)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """For each downward triangle n, the indices in ``up`` of x*n, y*n and
        z*n, in that order, skipping the absent ones: the keys of Z's rows.
        Each up slice z^e maps its x exponents to their indices; down
        n = x^i y^k z^e meets x*n and y*n at i+1 and i in slice z^e, z*n at
        i in slice z^(e+1); absent ones land on the key None, dropped."""
        index: dict[int, dict[int, int]] = {}  # slice z^e: x exponent -> up index
        for j, (i, _, ez) in enumerate(self.up):
            index.setdefault(ez, {})[i] = j
        rows = []
        for ez, group in itertools.groupby(self.down, operator.itemgetter(2)):
            same, above = index.get(ez, {}).get, index.get(ez + 1, {}).get
            for i, _, _ in group:
                row = {same(i + 1): 1, same(i): 1, above(i): 1}
                row.pop(None, None)
                rows.append(tuple(row))
        return tuple(rows)

    @property
    def is_empty(self) -> bool:
        return not self.up and not self.down

    def without(self, ups=(), downs=()) -> "TriangularRegion":
        ups = set(ups)
        downs = set(downs)
        return TriangularRegion(
            self.d,
            (m for m in self.up if m not in ups),
            (n for n in self.down if n not in downs),
        )

    def divided_by(self, m: Monomial) -> "TriangularRegion":
        """Divide every label by m, landing in the degree d - deg(m) triangle.

        Only valid when every label is a multiple of m, e.g. for a monomial
        subregion; this is how an upper portion is compared with the region
        of a smaller ideal.
        """
        return TriangularRegion(self.d - m.degree, (u // m for u in self.up), (n // m for n in self.down))


#: ``check_region_size`` refuses a region with more triangles than this
#: before it is built or read.  The Mac(50,50,50) hexagon has 15,000.
MAX_REGION_TRIANGLES = 30_000


def check_region_size(ideal: MonomialIdeal, d: int) -> None:
    """The one check before the degree-d region of I is built or read: the
    full triangle has d^2 triangles, and past ``MAX_REGION_TRIANGLES`` the
    region's h(d-1) + h(d-2) come off the staircase first."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    if d * d > MAX_REGION_TRIANGLES:
        size = hilbert_value(ideal, d - 1) + hilbert_value(ideal, d - 2)
        if size > MAX_REGION_TRIANGLES:
            raise ValueError(
                f"the degree-{d} region has {size} triangles, above the limit "
                f"MAX_REGION_TRIANGLES = {MAX_REGION_TRIANGLES}"
            )


@functools.lru_cache(maxsize=4096)
def build_region(ideal: MonomialIdeal, d: int) -> TriangularRegion:
    """The degree-d triangular region of R/I, refused above ``MAX_REGION_TRIANGLES``."""
    check_region_size(ideal, d)
    return TriangularRegion(d, standard_monomials(ideal, d - 1), standard_monomials(ideal, d - 2))


def degree_complement(ideal: MonomialIdeal, d: int) -> tuple[int, int, list[dict[int, int]], int]:
    """h(d-1), p, and the rows and column count of S, where Z of the degree-d
    region is equivalent to 1^p (+) S; read off the staircase, no label built.

    Pivot each down n whose y*n is present on the column y*n.  Another row
    n' meets that column only if y*n is x*n' or z*n', so ey(n') = ey(n) + 1:
    ordered by ey the pivot block is unit triangular, hence unimodular, and
    Smith(Z) = 1^p (+) Smith(S) for its Schur complement S.  Each present up
    m with ey(m) > 0 is a pivot column (m / y is present), so p is h(d-1)
    less the A-ups x^(d-1-e) z^e, the columns of S; its rows are the E-downs
    r, y*r missing.  Clearing the pivot columns carries -v at y*n to x*n and
    z*n, so S[r][a] is (-1)^ey(r) times the number of +x/+z paths from y*r
    to a through present ups, counted slice by slice.
    """
    check_region_size(ideal, d)
    up = {ez: [i for run in runs for i in run] for ez, runs in _degree_runs(ideal, d - 1)}
    a_cols = {ez: a for a, ez in enumerate(ez for ez, xs in up.items() if xs and xs[-1] == d - 1 - ez)}
    n_up = sum(map(len, up.values()))
    units = n_up - len(a_cols)
    down = list(_degree_runs(ideal, d - 2))
    n_e = sum(len(run) for _, runs in down for run in runs) - units
    rows = []
    for e0, runs in down if n_e and a_cols else ():
        for i0 in set(itertools.chain.from_iterable(runs)).difference(up.get(e0, ())):  # y*r missing
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


def region_determinant(region: TriangularRegion) -> int:
    """Signed det Z of a balanced region by the sparse unit-pivot
    elimination (``intlinalg.sparse_determinant``); Z is never built densely."""
    return sparse_determinant([dict.fromkeys(js, 1) for js in region.adjacency], len(region.up))


def kasteleyn_determinant(region: TriangularRegion) -> int | None:
    """det K of the Kasteleyn signing K of Z (``_kasteleyn_cut``), whose
    absolute value counts the tilings of a balanced region, or None when
    K = Z and ``region_determinant`` already gives it."""
    rows = _kasteleyn_cut(region)
    return None if rows is None else sparse_determinant(rows, len(rows))


@dataclass(frozen=True)
class Balance:
    n_up: int
    n_down: int
    kind: str
    excess: int

    @classmethod
    def of(cls, nu: int, nd: int) -> "Balance":
        kind = UP_HEAVY if nu > nd else DOWN_HEAVY if nd > nu else BALANCED
        return cls(nu, nd, kind, abs(nu - nd))


def balance(region: TriangularRegion) -> Balance:
    return Balance.of(len(region.up), len(region.down))


def monomial_subregion(region: TriangularRegion, m: Monomial) -> TriangularRegion:
    """The part of the region inside the puncture position of m: all labels
    divisible by m, re-wrapped as a region of the same degree-d triangle."""
    if m.degree >= region.d:
        raise ValueError("subregion monomial must have degree below d")
    return TriangularRegion(
        region.d,
        (u for u in region.up if m.divides(u)),
        (n for n in region.down if m.divides(n)),
    )


def split_portions(region: TriangularRegion, alpha: int) -> tuple[TriangularRegion, TriangularRegion]:
    """Cut along the horizontal line alpha rows above the bottom edge.

    The upper portion is the monomial subregion at x^alpha (empty when
    d <= alpha); the lower portion is the complementary trapezoid.
    """
    if alpha < 0:
        raise ValueError("row index must be nonnegative")
    upper = TriangularRegion(
        region.d,
        (u for u in region.up if u.ex >= alpha),
        (n for n in region.down if n.ex >= alpha),
    )
    lower = TriangularRegion(
        region.d,
        (u for u in region.up if u.ex < alpha),
        (n for n in region.down if n.ex < alpha),
    )
    return upper, lower


# ---------------------------------------------------------------------------
# Punctures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Puncture:
    """The removed upward triangle attached to one minimal generator."""

    generator: Monomial
    side_length: int
    floating: bool
    overlap_partners: tuple[Monomial, ...]
    touch_partners: tuple[Monomial, ...]


def punctures_overlap(g1: Monomial, g2: Monomial, d: int) -> bool:
    """Share at least an edge: the common region is the puncture of the lcm,
    which has positive side length exactly when deg lcm <= d-1."""
    return g1.lcm(g2).degree <= d - 1


def punctures_touch(g1: Monomial, g2: Monomial, d: int) -> bool:
    """Share precisely one vertex: the lcm puncture degenerates to a point."""
    return g1.lcm(g2).degree == d


def puncture_analysis(ideal: MonomialIdeal, d: int) -> tuple[Puncture, ...]:
    """One puncture per minimal generator of degree at most d-1.

    Floating status is a fixpoint: seed with the boundary-touching punctures
    (some exponent zero) and close under overlap-or-touch.  The closure is
    monotone, so the iteration order cannot change the result.
    """
    gens = [g for g in ideal.gens if g.degree <= d - 1]
    gens.sort(key=Monomial.revlex_key)
    overlaps = {g: [] for g in gens}
    touches = {g: [] for g in gens}
    for g1, g2 in itertools.combinations(gens, 2):
        if punctures_overlap(g1, g2, d):
            overlaps[g1].append(g2)
            overlaps[g2].append(g1)
        elif punctures_touch(g1, g2, d):
            touches[g1].append(g2)
            touches[g2].append(g1)
    non_floating = {g for g in gens if min(g) == 0}
    grew = True
    while grew:
        grew = False
        for g in gens:
            if g in non_floating:
                continue
            if any(h in non_floating for h in overlaps[g] + touches[g]):
                non_floating.add(g)
                grew = True
    return tuple(
        Puncture(
            generator=g,
            side_length=d - g.degree,
            floating=g not in non_floating,
            overlap_partners=tuple(overlaps[g]),
            touch_partners=tuple(touches[g]),
        )
        for g in gens
    )


def _kasteleyn_cut(region: TriangularRegion) -> list[dict[int, int]] | None:
    """The rows of a Kasteleyn signing K of Z, so that |det K| counts the
    tilings, or None when K = Z; linear in the region.

    A bounded face of the region's planar bipartite graph is a hexagon round
    an inner vertex, where Z meets Kasteleyn's condition, or the inside of a
    boundary curve, where it does iff the curve's charge is even.  An edge
    of a present down and a missing up has charge 1, of a present up and a
    missing or absent down -1; joining their end vertices gives one class
    per curve (curves through a common vertex join), of charge its sum / 3,
    and a class with a side vertex bounds the outer face.  From a vertex
    (p, y, z) of each odd class a cut along x = p down to z = 0 negates each
    pair (n, x*n), n = x^(p-1) y^(y+t) z^(z-t-1), whose edge it crosses: of
    all bounded faces it flips the sign parity of the one round that vertex
    alone.  A curve round an island of present triangles is cut too: a
    balanced island has the charge parity of its holes, whose cuts also flip
    the face round it, and an unbalanced one leaves det K = det Z = 0.
    """
    ups, downs = region.up_set, region.down_set
    edges = []  # (up m, variable k, charge): the edge of m facing m / k
    for n, js in zip(region.down, region.adjacency):
        if len(js) < 3:
            edges += [(m, k, 1) for k, m in enumerate(_shifts(n, 1)) if m not in ups]
    down_count = collections.Counter(itertools.chain.from_iterable(region.adjacency))
    for j, m in enumerate(region.up):
        if down_count[j] < 3:
            edges += [(m, k, -1) for k, n in enumerate(_shifts(m, -1)) if n not in downs]
    parent: dict = {}

    def root(v):
        while parent.setdefault(v, v) != v:
            parent[v] = v = parent[parent[v]]
        return v

    ends = []
    for m, k, charge in edges:
        u, w = (v if min(v) else None for i, v in enumerate(_shifts(m, 1)) if i != k)
        parent[root(u)] = root(w)
        ends.append((u, charge))
    charges: dict = {}
    for u, charge in ends:
        charges[root(u)] = charges.get(root(u), 0) + charge
    charges.pop(root(None), None)
    cut: set = set()
    for (p, y, z), total in charges.items():
        if total % 3:
            raise InternalCheckError(f"the boundary curve through {(p, y, z)} has edge charges summing to {total}")
        if total // 3 % 2:
            cut ^= {(p - 1, y + t, z - t - 1) for t in range(z)}
    negated = [i for i, n in enumerate(region.down) if n in cut and (n[0] + 1, n[1], n[2]) in ups]
    if not negated:
        return None
    rows = [dict.fromkeys(js, 1) for js in region.adjacency]
    for i in negated:
        rows[i][region.adjacency[i][0]] = -1  # the entry at x*n
    return rows


def _shifts(t: tuple[int, int, int], s: int) -> tuple[tuple[int, int, int], ...]:
    a, b, c = t
    return (a + s, b, c), (a, b + s, c), (a, b, c + s)


def merge_touching_punctures(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """Repeatedly replace a pair of overlapping-or-touching punctures by the
    puncture of their gcd, whenever the covering region they leave behind is
    met by no other puncture.

    The covering region minus the two punctures is uniquely tileable, so both
    the signed and unsigned enumerations of the degree-d region are unchanged
    (this is verified by tests, not assumed).  The resulting ideal has fewer
    minimal generators.
    """
    current = ideal
    merged = True
    while merged:
        merged = False
        gens = [g for g in current.gens if g.degree <= d - 1]
        gens.sort(key=Monomial.revlex_key)
        for g1, g2 in itertools.combinations(gens, 2):
            if g1.lcm(g2).degree > d:
                continue
            g = g1.gcd(g2)
            others = [h for h in current.gens if h not in (g1, g2)]
            cover_cells = [
                g * rest
                for j in (d - 1 - g.degree, d - 2 - g.degree)
                for rest in monomials_of_degree(j)
            ]
            leftover = [cell for cell in cover_cells if not (g1.divides(cell) or g2.divides(cell))]
            if any(h.divides(cell) for cell in leftover for h in others):
                continue
            current = current.with_generator(g)
            merged = True
            break
    return current


# ---------------------------------------------------------------------------
# Maximal minors as regions
# ---------------------------------------------------------------------------


def maximal_minors(region: TriangularRegion) -> Iterator[TriangularRegion]:
    """All balanced subregions obtained by deleting excess-many triangles of
    the heavy orientation; a balanced region yields only itself.

    The stream is deterministic: combinations of ascending reverse-lex labels
    in lexicographic combination order.
    """
    bal = balance(region)
    if bal.kind == BALANCED:
        yield region
    elif bal.kind == UP_HEAVY:
        for combo in itertools.combinations(region.up, bal.excess):
            yield region.without(ups=combo)
    else:
        for combo in itertools.combinations(region.down, bal.excess):
            yield region.without(downs=combo)


def restricted_maximal_minors(region: TriangularRegion) -> Iterator[TriangularRegion]:
    """Maximal minors that only delete lattice start or end triangles.

    In the up-heavy case only A-vertex upward triangles may go; in the
    down-heavy case only the downward triangles carrying an E-vertex.  These
    are exactly the minors visible to the lattice path matrix, and always a
    subset of the full maximal-minor stream.
    """
    bal = balance(region)
    if bal.kind == BALANCED:
        yield region
        return
    pts = lattice_points(region)
    if bal.kind == UP_HEAVY:
        candidates = [label for label, _ in pts.a_points]
        for combo in itertools.combinations(candidates, bal.excess):
            yield region.without(ups=combo)
    else:
        candidates = [label // Y for label, _ in pts.e_points]
        for combo in itertools.combinations(candidates, bal.excess):
            yield region.without(downs=combo)


def region_ideal(region: TriangularRegion) -> MonomialIdeal:
    """Reconstruct a monomial ideal whose degree-d region equals the input.

    Exists for regions cut out by an ideal (in particular every up-deletion
    minor of one): take all absent labels as generators and minimalize.  The
    caller is responsible for only using it on such regions; the round trip
    is asserted in tests.
    """
    d = region.d
    absent = [m for m in monomials_of_degree(d - 1) if m not in region.up_set]
    absent += [n for n in monomials_of_degree(d - 2) if n not in region.down_set]
    return MonomialIdeal(absent)
