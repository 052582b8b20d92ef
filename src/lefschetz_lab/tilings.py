"""Lozenge tilings of a triangular region, their two signs, and the
translation to non-intersecting lattice path families.

A tiling is a perfect matching between present downward and upward triangles:
each matched pair (n, v*n) is a lozenge.  Two signs are attached to a tiling:

* the matching sign: the parity of the permutation sending the rank of each
  downward triangle to the rank of its partner (ranks in ascending
  reverse-lexicographic order);
* the path sign: route each tiling through the lattice whose vertices sit on
  the triangle edges parallel to the upper-right boundary (the edge shared by
  up triangle m and down triangle m/y carries the label m).  A lozenge
  {n, x*n} joins the vertices x*n and y*n, a lozenge {n, z*n} joins z*n and
  y*n, and a lozenge {n, y*n} encloses its vertex.  Chaining the joins turns a
  tiling into vertex-disjoint walks from the A-vertices to the E-vertices,
  and the path sign is the parity of the induced start-to-end permutation.

The signed sums over all tilings are determinants: the matching sum is det Z
and, on a region an ideal cuts out, the path sum is det N, of the lattice
path matrix (the Lindstrom-Gessel-Viennot lemma; Lindstrom 1973,
Gessel-Viennot 1985).  So ``signed_enumeration`` builds no tiling; |det K|,
for the Kasteleyn signing K of Z that ``regions`` builds, is the count.  The
module owns the matchings: ``is_tileable`` (a witness tiling, or a Hall
violator; ``signed_enumeration`` asks it only where det Z = 0) and
``first_tiling`` start from one Hopcroft-Karp matching.  ``enumerate_tilings``
streams every tiling by backtracking, the test oracle for these shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import InternalCheckError
from .ideals import Monomial, VARIABLES, Y, monomials_of_degree
from .intlinalg import determinant, lattice_path_matrix, lattice_points, permutation_sign
from .regions import TriangularRegion, kasteleyn_determinant, region_determinant


@dataclass(frozen=True)
class Tiling:
    """A lozenge tiling as a matching, stored as (down, up) label pairs."""

    pairs: tuple[tuple[Monomial, Monomial], ...]

    def __init__(self, pairs: Iterable[tuple[Monomial, Monomial]] | Mapping[Monomial, Monomial]):
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        ordered = tuple(sorted(pairs, key=lambda p: p[0].revlex_key()))
        object.__setattr__(self, "pairs", ordered)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class PathFamily:
    """Vertex-disjoint lattice walks extracted from a tiling.

    ``paths[i]`` starts at the i-th A-vertex; ``permutation[i]`` is the index
    of the E-vertex it reaches.
    """

    paths: tuple[tuple[Monomial, ...], ...]
    permutation: tuple[int, ...]


def _check_is_tiling(region, tiling: Tiling) -> None:
    downs = tuple(d for d, _ in tiling.pairs)
    ups = [u for _, u in tiling.pairs]
    if downs != region.down or len(ups) != len(region.up) or set(ups) != region.up_set:
        raise ValueError("not a tiling of this region: triangle sets differ")
    for down, up in tiling.pairs:
        if (up.ex - down.ex, up.ey - down.ey, up.ez - down.ez) not in VARIABLES:
            raise ValueError(f"not a tiling: {down} and {up} are not adjacent")


def enumerate_tilings(region) -> Iterator[Tiling]:
    """All tilings, duplicate-free, in a deterministic stream order.

    Backtracking always extends the reverse-lex-least uncovered downward
    triangle and tries its partners in ``region.adjacency`` order (x, y, z).
    Unbalanced regions yield nothing; the empty region has exactly the empty
    tiling.  The stream visits every tiling, so it is exponential in the
    region and serves as the oracle for ``signed_enumeration``.
    """
    n = len(region.down)
    if len(region.up) != n:
        return
    ups, downs, adj = region.up, region.down, region.adjacency
    used = [False] * n
    choice = [0] * n

    def extend(i: int) -> Iterator[Tiling]:
        if i == n:
            yield Tiling(tuple(zip(downs, (ups[j] for j in choice))))
            return
        for j in adj[i]:
            if not used[j]:
                used[j] = True
                choice[i] = j
                yield from extend(i + 1)
                used[j] = False

    yield from extend(0)


def msgn(region, tiling: Tiling) -> int:
    """Matching sign: parity of down-rank -> up-rank of the partner."""
    if len(region.up) != len(region.down):
        raise ValueError("matching sign needs a balanced region")
    _check_is_tiling(region, tiling)
    up_rank = {m: j for j, m in enumerate(region.up)}
    return permutation_sign([up_rank[up] for _, up in tiling.pairs])


def to_path_family(region, tiling: Tiling) -> PathFamily:
    """Convert a tiling into its family of non-intersecting lattice walks.

    Starting from each A-vertex, repeatedly cross the lozenge covering the
    current upward triangle m: it leads to the vertex y*(m/v), where m = v*n
    is the lozenge.  The walk ends the moment it reaches a label whose upward
    triangle is absent, which is by construction an E-vertex.
    """
    if len(region.up) != len(region.down):
        raise ValueError("path families need a balanced region")
    _check_is_tiling(region, tiling)
    pts = lattice_points(region)
    up_set = region.up_set
    partner = {up: down for down, up in tiling.pairs}
    e_index = {label: k for k, (label, _) in enumerate(pts.e_points)}
    paths = []
    images = []
    for a_label, _ in pts.a_points:
        walk = [a_label]
        current = a_label
        while True:
            below = partner[current]  # the down triangle fused with `current`
            nxt = Y * below
            walk.append(nxt)
            if nxt in up_set:
                current = nxt
            else:
                break
        paths.append(tuple(walk))
        images.append(e_index[walk[-1]])
    return PathFamily(paths=tuple(paths), permutation=tuple(images))


def lpsgn(region, tiling: Tiling) -> int:
    """Path sign: parity of the A-vertex to E-vertex permutation."""
    return permutation_sign(list(to_path_family(region, tiling).permutation))


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
        dist = [0 if j == -1 else inf for j in match_left]
        queue = [i for i, j in enumerate(match_left) if j == -1]
        found_free = False
        for i in queue:  # a breadth-first search: the queue grows as it is read
            for j in adj[i]:
                k = match_right[j]
                if k == -1:
                    found_free = True
                elif dist[k] is inf:
                    dist[k] = dist[i] + 1
                    queue.append(k)
        if not found_free:
            return match_left, match_right

        # a depth-first augmenting search from each free left vertex along
        # rising dist, partners in adjacency order, on an explicit stack of
        # [vertex, next partner position]; a dead end gets distance inf
        for start in range(len(adj)):
            stack = [[start, 0]] if match_left[start] == -1 else []
            while stack:
                i, t = frame = stack[-1]
                if t == len(adj[i]):
                    dist[i] = inf
                    stack.pop()
                    continue
                frame[1] += 1
                k = match_right[adj[i][t]]
                if k == -1:  # flip the path into the matching
                    for i, t in stack:
                        match_left[i], match_right[adj[i][t - 1]] = adj[i][t - 1], i
                    break
                if dist[k] == dist[i] + 1:
                    stack.append([k, 0])


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
    adj = region.adjacency
    match_down, match_up = _hopcroft_karp(adj, nu)
    if all(j != -1 for j in match_down):
        tiling = Tiling({region.down[i]: region.up[j] for i, j in enumerate(match_down)})
        return TileabilityResult(True, tiling, None)
    # Koenig-style violator: downs reachable by alternating paths from the
    # unmatched ones; their whole neighborhood is matched back inside the set.
    reachable = {i for i in range(nd) if match_down[i] == -1}
    stack = list(reachable)
    while stack:
        for j in adj[stack.pop()]:
            k = match_up[j]
            if k != -1 and k not in reachable:
                reachable.add(k)
                stack.append(k)
    violator = HallViolator("down", tuple(region.down[i] for i in sorted(reachable)))
    return TileabilityResult(False, None, violator)


def first_tiling(region: TriangularRegion) -> Tiling | None:
    """The first tiling that ``enumerate_tilings`` streams, or None.

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


@dataclass(frozen=True)
class EnumerationReport:
    """All six enumeration quantities of a balanced region, cross-checked."""

    count: int
    sum_msgn: int
    sum_lpsgn: int
    det_z: int
    det_n: int
    per_z: int


def signed_enumeration(region: TriangularRegion) -> EnumerationReport:
    """Count tilings, both signed sums, both determinants, and the permanent.

    No tiling is visited or built.  The signed sparse elimination of Z
    (``regions.region_determinant``) gives det Z, the matching sum, and
    Bareiss elimination of N gives det N, the path sum by
    Lindstrom-Gessel-Viennot.  The count and per Z are |det K| for the
    Kasteleyn signing K of Z: Z negated along one cut from each hole of odd
    charge (``regions.kasteleyn_determinant``; Kasteleyn 1967, Kuperberg
    1998), or Z itself, whose det is reused, without such a hole.  |det Z|
    must equal |det N|, and per Z be at least |det Z| and of its parity.
    Only where det Z = 0, which leaves tileability open, must
    ``is_tileable`` agree with per Z > 0.  A violation is an internal error,
    never a result, except that a region no ideal cuts out (an up triangle
    over a missing down one) failing the determinant check is refused with
    a ValueError.
    """
    if len(region.up) != len(region.down):
        raise ValueError("signed enumeration needs a balanced region")
    det_z = region_determinant(region)
    det_k = kasteleyn_determinant(region)
    per_z = abs(det_z if det_k is None else det_k)
    det_n = determinant(lattice_path_matrix(region)[0])
    if abs(det_z) != abs(det_n):
        missing = (n for n in monomials_of_degree(region.d - 2) if n not in region.down_set)
        if any(v * n in region.up_set for n in missing for v in VARIABLES):
            raise ValueError("no ideal cuts out this region (an up triangle lies over a missing down one)")
        raise InternalCheckError(f"|det Z| {abs(det_z)} != |det N| {abs(det_n)}")
    if per_z < abs(det_z) or (per_z - det_z) % 2 or (det_z == 0 and is_tileable(region).tileable != (per_z > 0)):
        raise InternalCheckError(f"per Z {per_z} is below det Z {det_z}, of another parity, or wrong on tileability")
    return EnumerationReport(per_z, det_z, det_n, det_z, det_n, per_z)
