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
determinants of the bi-adjacency matrix and of the lattice path matrix.  On a
balanced region the product of the two signs is the same for every tiling
(Cook and Nagel), so ``signed_enumeration`` visits no tiling: one signed
matching count of the bi-adjacency matrix gives the count and the matching
sum, and one witness tiling gives the constant that turns it into the path
sum.  ``enumerate_tilings`` streams every tiling by backtracking and serves
as the test oracle for that shortcut; ``msgn``, ``lpsgn`` and
``to_path_family`` work on ``Tiling`` objects and check them against the
region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import InternalCheckError
from .ideals import Monomial, VARIABLES, Y
from .intlinalg import (
    biadjacency,
    determinant,
    lattice_path_matrix,
    lattice_points,
    matching_counts,
)


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


def signed_enumeration(region) -> EnumerationReport:
    """Count tilings, both signed sums, both determinants, and the permanent.

    No tiling is visited.  One signed matching count of Z gives per Z, which
    is the tiling count, and the matching sum.  On a balanced region
    msgn * lpsgn is the same for every tiling, so the path sum is that
    constant, read off the witness tiling of ``is_tileable``, times the
    matching sum.  The matching sum must equal det Z and the path sum must
    match |det N|, both by Bareiss elimination; per Z must be at least |det Z|
    and of its parity.  A violation is reported as an internal error, never
    as a result.  A region whose count needs more than
    ``intlinalg.MAX_LIVE_SETS`` column sets is refused: the cap bounds the
    work and never turns into an approximation.
    """
    from .regions import is_tileable  # regions imports this module

    if len(region.up) != len(region.down):
        raise ValueError("signed enumeration needs a balanced region")
    z = biadjacency(region)
    per_z, sum_msgn = matching_counts(z)
    witness = is_tileable(region).tiling
    sign = 0 if witness is None else msgn(region, witness) * lpsgn(region, witness)
    sum_lpsgn = sign * sum_msgn
    n_matrix, _ = lattice_path_matrix(region)
    det_z = determinant(z)
    det_n = determinant(n_matrix)
    if sum_msgn != det_z:
        raise InternalCheckError(f"sum msgn {sum_msgn} != det Z {det_z}")
    if abs(sum_lpsgn) != abs(det_n):
        raise InternalCheckError(f"|sum lpsgn| {abs(sum_lpsgn)} != |det N| {abs(det_n)}")
    if per_z < abs(det_z) or (per_z - det_z) % 2:
        raise InternalCheckError(f"per Z {per_z} is below |det Z| or of another parity than det Z {det_z}")
    return EnumerationReport(per_z, sum_msgn, sum_lpsgn, det_z, det_n, per_z)
