"""Triangular regions: the planar picture of a graded piece of R/I.

The degree-d region of an ideal I has one upward unit triangle per degree
(d-1) monomial outside I and one downward unit triangle per degree (d-2)
monomial outside I; a downward triangle n is adjacent to the upward triangles
x*n, y*n, z*n.  ``build_region`` reads both label sets from
``standard_monomials``, and ``TriangularRegion.adjacency`` is the one map from
downward triangles to the indices of their upward neighbours; matchings,
tilings and the bi-adjacency matrix all read it.  Everything here is label
arithmetic on exponents; no floating-point geometry exists outside the SVG
emitter.

Each minimal generator g of degree at most d-1 cuts an upward-pointing
triangular puncture of side d - deg(g) out of the full region.  Two punctures
overlap iff deg lcm(g1, g2) <= d-1 and touch (share exactly one point) iff
deg lcm(g1, g2) = d; a puncture is non-floating iff it reaches the outer
boundary (some exponent of g is zero) or chains to one that does through
overlaps and touches.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .ideals import (
    Monomial,
    MonomialIdeal,
    Y,
    monomials_of_degree,
    standard_monomials,
)
from .intlinalg import lattice_points
from .tilings import Tiling

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
        z*n, in that order, skipping the absent ones.  A ``Monomial`` hashes
        and compares as its exponent tuple, so plain tuples look it up."""
        get = {m: j for j, m in enumerate(self.up)}.get
        found = ((get((x + 1, y, z)), get((x, y + 1, z)), get((x, y, z + 1))) for x, y, z in self.down)
        return tuple(tuple(j for j in js if j is not None) for js in found)

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
        return TriangularRegion(
            self.d - m.degree,
            (u // m for u in self.up),
            (n // m for n in self.down),
        )


@functools.lru_cache(maxsize=4096)
def build_region(ideal: MonomialIdeal, d: int) -> TriangularRegion:
    """The degree-d triangular region of R/I."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    return TriangularRegion(d, standard_monomials(ideal, d - 1), standard_monomials(ideal, d - 2))


@dataclass(frozen=True)
class Balance:
    n_up: int
    n_down: int
    kind: str
    excess: int


def balance(region: TriangularRegion) -> Balance:
    nu, nd = len(region.up), len(region.down)
    kind = UP_HEAVY if nu > nd else DOWN_HEAVY if nd > nu else BALANCED
    return Balance(nu, nd, kind, abs(nu - nd))


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
            leftover = [
                cell
                for cell in cover_cells
                if not (g1.divides(cell) or g2.divides(cell))
            ]
            if any(h.divides(cell) for cell in leftover for h in others):
                continue
            current = current.with_generator(g)
            merged = True
            break
    return current


# ---------------------------------------------------------------------------
# Tileability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HallViolator:
    """A set of same-orientation triangles with too small a neighborhood."""

    orientation: str  # "up" or "down"
    labels: tuple[Monomial, ...]


@dataclass(frozen=True)
class TileabilityResult:
    tileable: bool
    tiling: Tiling | None
    violator: HallViolator | None

    def __bool__(self) -> bool:
        return self.tileable


def _hopcroft_karp(adj: tuple[tuple[int, ...], ...], n_right: int) -> tuple[list[int], list[int]]:
    """Maximum matching on a bipartite graph given as left adjacency lists."""
    inf = float("inf")
    match_left = [-1] * len(adj)
    match_right = [-1] * n_right
    while True:
        dist = [inf] * len(adj)
        queue = [i for i in range(len(adj)) if match_left[i] == -1]
        for i in queue:
            dist[i] = 0
        found_free = False
        head = 0
        while head < len(queue):
            i = queue[head]
            head += 1
            for j in adj[i]:
                k = match_right[j]
                if k == -1:
                    found_free = True
                elif dist[k] is inf:
                    dist[k] = dist[i] + 1
                    queue.append(k)
        if not found_free:
            return match_left, match_right

        def augment(i: int) -> bool:
            for j in adj[i]:
                k = match_right[j]
                if k == -1 or (dist[k] == dist[i] + 1 and augment(k)):
                    match_left[i] = j
                    match_right[j] = i
                    return True
            dist[i] = inf
            return False

        for i in range(len(adj)):
            if match_left[i] == -1:
                augment(i)


def is_tileable(region: TriangularRegion) -> TileabilityResult:
    """Decide tileability by maximum matching, with a certificate either way.

    A tileable region is exactly one whose adjacency graph has a perfect
    matching; the witness is returned as a tiling.  Otherwise the result
    carries a Hall violator: a set of triangles of one orientation with
    strictly fewer neighbors than members.  Unbalanced regions are never
    tileable and the heavier side as a whole is the violator.
    """
    nu, nd = len(region.up), len(region.down)
    if nu != nd:
        if nu > nd:
            return TileabilityResult(False, None, HallViolator("up", region.up))
        return TileabilityResult(False, None, HallViolator("down", region.down))
    if nu == 0:
        return TileabilityResult(True, Tiling(()), None)
    adj = region.adjacency
    match_down, match_up = _hopcroft_karp(adj, nu)
    if all(j != -1 for j in match_down):
        tiling = Tiling({region.down[i]: region.up[j] for i, j in enumerate(match_down)})
        return TileabilityResult(True, tiling, None)
    # Koenig-style violator: downs reachable by alternating paths from the
    # unmatched ones; their whole neighborhood is matched back inside the set.
    reachable = {i for i in range(nd) if match_down[i] == -1}
    frontier = list(reachable)
    while frontier:
        new_frontier = []
        for i in frontier:
            for j in adj[i]:
                k = match_up[j]
                if k != -1 and k not in reachable:
                    reachable.add(k)
                    new_frontier.append(k)
        frontier = new_frontier
    violator = HallViolator("down", tuple(region.down[i] for i in sorted(reachable)))
    return TileabilityResult(False, None, violator)


def first_tiling(region: TriangularRegion) -> Tiling | None:
    """The first tiling that ``tilings.enumerate_tilings`` streams, or None.

    Starting from a Hopcroft-Karp matching, down triangle i in turn takes
    its first partner in ``adjacency[i]`` that the later downs can still be
    matched around: partner j qualifies when an alternating cycle leads from
    j back to the current partner of i through up triangles not yet fixed,
    and that cycle is swapped in (``taker`` maps each up the search reaches
    to the down that would take it).  Quadratic in the region at worst, but
    with no search over tilings.
    """
    if len(region.up) != len(region.down):
        return None
    adj = region.adjacency
    match_down, match_up = _hopcroft_karp(adj, len(region.up))
    if -1 in match_down:
        return None
    fixed = [False] * len(match_up)
    for i, partners in enumerate(adj):
        target = match_down[i]
        for j in partners:
            if j == target:
                break
            if fixed[j]:
                continue
            taker = {j: i}
            stack = [j]
            while stack and target not in taker:
                k = match_up[stack.pop()]
                for w in adj[k]:
                    if not fixed[w] and w not in taker:
                        taker[w] = k
                        stack.append(w)
            if target in taker:
                u, k = target, -1
                while k != i:
                    k = taker[u]
                    match_down[k], match_up[u], u = u, k, match_down[k]
                break
        fixed[match_down[i]] = True
    return Tiling(tuple(zip(region.down, (region.up[j] for j in match_down))))


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
