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

The signed sums over all tilings reproduce, up to one global sign, the
determinants of the bi-adjacency matrix and of the lattice path matrix; those
equalities are enforced at runtime by ``signed_enumeration`` and extensively
in the test suite.  ``signed_enumeration`` first counts the tilings as the
permanent and refuses regions over ``MAX_TILINGS`` before visiting any; it
then computes both signs of each matching on integer indices, from tables
built once per region, while ``msgn``, ``lpsgn`` and ``to_path_family`` work
on ``Tiling`` objects and check them against the region.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import contains
from typing import Iterable, Iterator, Mapping

from .errors import InternalCheckError
from .ideals import Monomial, VARIABLES, Y
from .intlinalg import (
    biadjacency,
    determinant,
    lattice_path_matrix,
    lattice_points,
    permanent,
)

#: ``signed_enumeration`` refuses regions with more tilings than this.
MAX_TILINGS = 500_000


@dataclass(frozen=True)
class Tiling:
    """A lozenge tiling as a matching, stored as (down, up) label pairs."""

    pairs: tuple[tuple[Monomial, Monomial], ...]

    def __init__(self, pairs: Iterable[tuple[Monomial, Monomial]] | Mapping[Monomial, Monomial]):
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        ordered = tuple(sorted(pairs, key=lambda p: p[0].revlex_key()))
        object.__setattr__(self, "pairs", ordered)

    def up_partner(self) -> dict[Monomial, Monomial]:
        """Map each upward triangle to the downward one it is fused with."""
        return {up: down for down, up in self.pairs}

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
    downs = [d for d, _ in tiling.pairs]
    ups = sorted((u for _, u in tiling.pairs), key=Monomial.revlex_key)
    if tuple(downs) != region.down or tuple(ups) != region.up:
        raise ValueError("not a tiling of this region: triangle sets differ")
    for down, up in tiling.pairs:
        if all(v * down != up for v in VARIABLES):
            raise ValueError(f"not a tiling: {down} and {up} are not adjacent")


def _matchings(region) -> Iterator[list[int]]:
    """Perfect matchings of a region as lists of up indices, one per down.

    ``choice[k]`` is the index in ``region.up`` of the partner of
    ``region.down[k]``.  Backtracking always extends the reverse-lex-least
    unmatched downward triangle and tries its partners in ``region.adjacency``
    order (x, y, z).  The same list is yielded each time, updated in place,
    so a consumer that keeps a matching must copy it.  Unbalanced regions
    yield nothing; the empty region yields the empty matching once.
    """
    n = len(region.down)
    if len(region.up) != n:
        return
    adj = region.adjacency
    used = [False] * n
    choice = [0] * n

    def extend(i: int) -> Iterator[list[int]]:
        if i == n:
            yield choice
            return
        for j in adj[i]:
            if not used[j]:
                used[j] = True
                choice[i] = j
                yield from extend(i + 1)
                used[j] = False

    yield from extend(0)


def enumerate_tilings(region) -> Iterator[Tiling]:
    """All tilings, duplicate-free, in a deterministic stream order.

    Backtracking always extends the reverse-lex-least uncovered downward
    triangle and tries its partners in x, y, z order.  Unbalanced regions
    yield nothing; the empty region has exactly the empty tiling.
    """
    ups, downs = region.up, region.down
    for choice in _matchings(region):
        yield Tiling(tuple(zip(downs, (ups[j] for j in choice))))


def _perm_sign(images: list[int]) -> int:
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


def msgn(region, tiling: Tiling) -> int:
    """Matching sign: parity of down-rank -> up-rank of the partner."""
    if len(region.up) != len(region.down):
        raise ValueError("matching sign needs a balanced region")
    _check_is_tiling(region, tiling)
    up_rank = {m: j for j, m in enumerate(region.up)}
    images = [up_rank[up] for _, up in tiling.pairs]
    return _perm_sign(images)


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
    partner = tiling.up_partner()
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
    return _perm_sign(list(to_path_family(region, tiling).permutation))


def tiling_from_path_family(region, family: PathFamily) -> Tiling:
    """Invert ``to_path_family``: rebuild the tiling from its walks.

    Every step u -> w of a walk came from the lozenge {w/y, u}; downward
    triangles on no walk were fused straight up with y times themselves.
    """
    pairs: dict[Monomial, Monomial] = {}
    for walk in family.paths:
        for u, w in zip(walk, walk[1:]):
            pairs[w // Y] = u
    for n in region.down:
        if n not in pairs:
            pairs[n] = Y * n
    return Tiling(pairs)


@dataclass(frozen=True)
class EnumerationReport:
    """All six enumeration quantities of a balanced region, cross-checked."""

    count: int
    sum_msgn: int
    sum_lpsgn: int
    det_z: int
    det_n: int
    per_z: int


def _check_matching(choice: list[int], adjacency) -> None:
    """A matching must be a permutation of the up indices that pairs every
    down triangle with one of its neighbours."""
    n = len(adjacency)
    if len(choice) != n or len(set(choice)) != n or not all(map(contains, adjacency, choice)):
        raise InternalCheckError(f"matching search produced a non-tiling: {choice}")


def signed_enumeration(region) -> EnumerationReport:
    """Count tilings, both signed sums, both determinants, and the permanent.

    The theory forces count = per Z and |sum of either sign| = |det Z| =
    |det N|; a violation is reported as an internal error, never as a result.
    The permanent comes first, from its own matching count, and a region with
    more than ``MAX_TILINGS`` tilings is refused before any tiling is visited:
    the cap bounds the work and never turns into an approximation.

    Signs are computed on indices, from tables built once per region.  The
    matching sign is the parity of ``choice`` itself, because matchings list
    partners in down order.  For the path sign, ``y_next[k]`` is the up index
    of y * down[k], or ``~e`` when that vertex is the E-vertex e; each walk of
    ``to_path_family`` then steps from up index u to ``y_next[inv[u]]``,
    where ``inv[u]`` is the down triangle matched with u.
    """
    if len(region.up) != len(region.down):
        raise ValueError("signed enumeration needs a balanced region")
    z = biadjacency(region)
    per_z = permanent(z)
    if per_z > MAX_TILINGS:
        raise ValueError(f"tiling count cap exceeded ({per_z} tilings, more than {MAX_TILINGS})")
    n_matrix, pts = lattice_path_matrix(region)
    adjacency = region.adjacency
    up_index = {m: j for j, m in enumerate(region.up)}
    e_index = {label: k for k, (label, _) in enumerate(pts.e_points)}
    y_next = []
    for n in region.down:
        label = Y * n
        y_next.append(up_index[label] if label in up_index else ~e_index[label])
    starts = [up_index[label] for label, _ in pts.a_points]
    inv = [0] * len(region.up)
    count = 0
    sum_msgn = 0
    sum_lpsgn = 0
    for choice in _matchings(region):
        count += 1
        if count > MAX_TILINGS:
            raise ValueError(f"tiling count cap exceeded (more than {MAX_TILINGS})")
        _check_matching(choice, adjacency)
        for k, j in enumerate(choice):
            inv[j] = k
        ends = []
        for u in starts:
            while u >= 0:
                u = y_next[inv[u]]
            ends.append(~u)
        sum_msgn += _perm_sign(choice)
        sum_lpsgn += _perm_sign(ends)
    det_z = determinant(z)
    det_n = determinant(n_matrix)
    report = EnumerationReport(count, sum_msgn, sum_lpsgn, det_z, det_n, per_z)
    if count != per_z:
        raise InternalCheckError(f"tiling count {count} != permanent {per_z}")
    if abs(sum_msgn) != abs(det_z):
        raise InternalCheckError(f"|sum msgn| {abs(sum_msgn)} != |det Z| {abs(det_z)}")
    if abs(sum_lpsgn) != abs(det_n):
        raise InternalCheckError(f"|sum lpsgn| {abs(sum_lpsgn)} != |det N| {abs(det_n)}")
    if abs(det_z) != abs(det_n):
        raise InternalCheckError(f"|det Z| {abs(det_z)} != |det N| {abs(det_n)}")
    return report
